package telemetry

import (
	"io"
	"slices"
	"strconv"
	"sync"
)

// Registry is a process-lifetime set of labelled metric families — int64
// counters, float64 gauges and Histogram-backed histograms — safe for
// concurrent use, with one Prometheus text writer. The serve daemon and
// the router export /metrics through it. The zero Registry is empty and
// ready to use.
//
// It is deliberately not the Recorder: a Recorder belongs to one
// simulation run, is nil-safe and lock-free, and merges chain by chain;
// a Registry is shared by every request goroutine and only exports. The
// two share Histogram.
//
// The writer's rules: families print in registration order and the
// series inside a family in sorted label-value order; a labelled family
// with no series prints nothing, an unlabelled one always prints.
// Counters print as integers; gauge values, bucket bounds and sums in
// strconv's shortest 'g' form; label values quoted as by %q.
type Registry struct {
	mu   sync.Mutex
	fams []*family
}

// maxLabels bounds a family's label count so a series key is a fixed
// array: looking up an existing series never allocates.
const maxLabels = 2

type labelKey [maxLabels]string

type family struct {
	mu     *sync.Mutex // the registry's
	name   string
	help   string
	typ    string // "counter", "gauge" or "histogram"
	labels []string
	bounds []float64 // histogram families only
	series map[labelKey]*series
}

// series is one label-value combination's state; only the field of its
// family's type is used.
type series struct {
	key   labelKey
	count int64
	value float64
	hist  *Histogram
}

// CounterVec is a registered counter family.
type CounterVec struct{ f *family }

// GaugeVec is a registered gauge family.
type GaugeVec struct{ f *family }

// HistogramVec is a registered histogram family.
type HistogramVec struct{ f *family }

// Counter registers a counter family with the given label names.
func (r *Registry) Counter(name, help string, labels ...string) CounterVec {
	return CounterVec{r.register(name, help, "counter", nil, labels)}
}

// Gauge registers a gauge family with the given label names.
func (r *Registry) Gauge(name, help string, labels ...string) GaugeVec {
	return GaugeVec{r.register(name, help, "gauge", nil, labels)}
}

// Histogram registers a histogram family with fixed ascending bucket
// bounds and the given label names.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...string) HistogramVec {
	return HistogramVec{r.register(name, help, "histogram", bounds, labels)}
}

func (r *Registry) register(name, help, typ string, bounds []float64, labels []string) *family {
	if len(labels) > maxLabels {
		panic("telemetry: " + name + ": more than " + strconv.Itoa(maxLabels) + " labels")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, f := range r.fams {
		if f.name == name {
			panic("telemetry: " + name + " registered twice")
		}
	}
	f := &family{mu: &r.mu, name: name, help: help, typ: typ, labels: labels, bounds: bounds, series: map[labelKey]*series{}}
	if len(labels) == 0 {
		f.get(nil)
	}
	r.fams = append(r.fams, f)
	return f
}

// get returns the series for values, creating it on first use. Callers
// hold f.mu.
func (f *family) get(values []string) *series {
	if len(values) != len(f.labels) {
		panic("telemetry: " + f.name + ": wrong number of label values")
	}
	var k labelKey
	copy(k[:], values)
	s := f.series[k]
	if s == nil {
		s = &series{key: k}
		if f.typ == "histogram" {
			s.hist = newHistogram(f.bounds)
		}
		f.series[k] = s
	}
	return s
}

// Add adds delta to the series named by values, one per label. Adding 0
// makes a series print before its first event.
func (c CounterVec) Add(delta int64, values ...string) {
	c.f.mu.Lock()
	defer c.f.mu.Unlock()
	c.f.get(values).count += delta
}

// Set sets the series named by values to v.
func (g GaugeVec) Set(v float64, values ...string) {
	g.f.mu.Lock()
	defer g.f.mu.Unlock()
	g.f.get(values).value = v
}

// Observe adds v to the series named by values.
func (h HistogramVec) Observe(v float64, values ...string) {
	h.f.mu.Lock()
	defer h.f.mu.Unlock()
	h.f.get(values).hist.Observe(v)
}

// Mean is the mean of every value observed in the family, across all
// its series (0 before the first).
func (h HistogramVec) Mean() float64 {
	h.f.mu.Lock()
	defer h.f.mu.Unlock()
	var all Histogram
	for _, s := range h.f.series {
		all.Sum += s.hist.Sum
		all.N += s.hist.N
	}
	return all.Mean()
}

// WritePrometheus writes every family in Prometheus text exposition
// format. It renders under the registry lock and writes to w only after
// releasing it, so a slow reader never stalls the goroutines recording.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	var b []byte
	for _, f := range r.fams {
		b = f.appendText(b)
	}
	r.mu.Unlock()
	_, err := w.Write(b)
	return err
}

func (f *family) appendText(b []byte) []byte {
	if len(f.series) == 0 {
		return b
	}
	b = append(b, "# HELP "+f.name+" "+f.help+"\n# TYPE "+f.name+" "+f.typ+"\n"...)
	list := make([]*series, 0, len(f.series))
	for _, s := range f.series {
		list = append(list, s)
	}
	slices.SortFunc(list, func(a, b *series) int { return slices.Compare(a.key[:], b.key[:]) })
	for _, s := range list {
		switch f.typ {
		case "counter":
			b = strconv.AppendInt(f.appendName(b, "", s, ""), s.count, 10)
		case "gauge":
			b = appendFloat(f.appendName(b, "", s, ""), s.value)
		case "histogram":
			h, cum := s.hist, int64(0)
			for i, bound := range h.Bounds {
				cum += h.Counts[i]
				b = strconv.AppendInt(f.appendName(b, "_bucket", s, strconv.FormatFloat(bound, 'g', -1, 64)), cum, 10)
				b = append(b, '\n')
			}
			cum += h.Counts[len(h.Bounds)]
			b = strconv.AppendInt(f.appendName(b, "_bucket", s, "+Inf"), cum, 10)
			b = appendFloat(f.appendName(append(b, '\n'), "_sum", s, ""), h.Sum)
			b = strconv.AppendInt(f.appendName(append(b, '\n'), "_count", s, ""), h.N, 10)
		}
		b = append(b, '\n')
	}
	return b
}

// appendName appends a series name, its labels (plus le, when set) and
// the space before the value.
func (f *family) appendName(b []byte, suffix string, s *series, le string) []byte {
	b = append(append(b, f.name...), suffix...)
	sep := byte('{')
	for i, l := range f.labels {
		b = strconv.AppendQuote(append(append(append(b, sep), l...), '='), s.key[i])
		sep = ','
	}
	if le != "" {
		b = append(append(append(b, sep), `le="`...), le+`"`...)
		sep = ','
	}
	if sep == ',' {
		b = append(b, '}')
	}
	return append(b, ' ')
}

func appendFloat(b []byte, v float64) []byte { return strconv.AppendFloat(b, v, 'g', -1, 64) }
