// Package telemetry is the simulator's deterministic observability layer:
// a per-run Recorder of counters, gauges and fixed-bucket histograms,
// span-style event tracing of node phases keyed to RTC slot time, and
// per-node energy/backlog timeline sampling. Nothing here reads the wall
// clock or any RNG — every recorded value is a pure function of the
// simulation — so two runs from the same seed produce byte-identical
// exports (trace.go, timeline.go, summary.go).
//
// The Recorder is nil-safe: every method on a nil *Recorder returns
// immediately without allocating, which is how the simulator meets its
// overhead contract — telemetry off (a nil recorder) leaves the hot path
// untouched and the Result bit-identical to an unobserved run. Telemetry
// observes, never perturbs: a Recorder must never feed back into any
// simulation decision.
//
// Registry (registry.go) is the serve daemon's and the router's
// process-lifetime /metrics set. It shares only Histogram with the
// Recorder.
package telemetry

import (
	"fmt"
	"sort"

	"neofog/internal/units"
)

// Phase tags what a node (or the balancer track) was doing during a span.
type Phase uint8

// The traced phases of one RTC slot, in the order they occur within it.
const (
	PhaseHarvest Phase = iota
	PhaseWake
	PhaseSense
	PhaseFog
	PhaseCompress
	PhaseBalance
	PhaseTx
	PhaseRetry
	PhaseFailover
	PhaseOrphan
)

var phaseNames = [...]string{
	"harvest", "wake", "sense", "fog-compute", "compress",
	"balance", "tx", "retry", "failover", "orphan",
}

func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return fmt.Sprintf("phase(%d)", int(p))
}

// Kind distinguishes duration spans from point events.
type Kind uint8

// Event kinds.
const (
	KindSpan Kind = iota
	KindInstant
)

// Event is one trace record. Start and Dur are simulated RTC time, not
// wall clock; Track is a per-chain lane (physical node index, or the
// balancer lane one past the last node); Value carries one phase-specific
// scalar (income mW, payload bytes, retry ordinal, moved tasks, ...).
type Event struct {
	Chain int
	Track int
	Phase Phase
	Kind  Kind
	Start units.Duration
	Dur   units.Duration
	Value float64
}

// Sample is one per-node timeline point: the node's stored energy and its
// logical slot's backlog at the end of a round.
type Sample struct {
	Chain   int
	Node    int
	Round   int
	Time    units.Duration
	Stored  units.Energy
	Backlog int
	Awake   bool
}

// DefaultBounds are the fixed bucket upper bounds of a Recorder's
// histograms. The final (overflow) bucket is implicit.
var DefaultBounds = []float64{1, 2, 5, 10, 20, 50, 100, 200, 500, 1000}

// Histogram is a fixed-bucket histogram; buckets never change after
// creation, so merging and export stay deterministic.
type Histogram struct {
	// Bounds are ascending upper bounds; Counts has one extra overflow
	// bucket at the end.
	Bounds []float64
	Counts []int64
	Sum    float64
	N      int64
}

func newHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{Bounds: b, Counts: make([]int64, len(b)+1)}
}

// Observe adds one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.Bounds, v)
	h.Counts[i]++
	h.Sum += v
	h.N++
}

// Mean is the running average of observed values (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.N == 0 {
		return 0
	}
	return h.Sum / float64(h.N)
}

func (h *Histogram) merge(o *Histogram) {
	for i := range h.Counts {
		if i < len(o.Counts) {
			h.Counts[i] += o.Counts[i]
		}
	}
	h.Sum += o.Sum
	h.N += o.N
}

type trackKey struct{ chain, track int }

// Recorder accumulates one run's (or one fleet's) telemetry. It is not
// safe for concurrent use: a fleet gives each chain its own Recorder and
// merges them in input order afterwards (MergeNext), which is what keeps
// multi-chain telemetry deterministic.
type Recorder struct {
	counters map[string]int64
	gauges   map[string]float64
	hists    map[string]*Histogram
	events   []Event
	samples  []Sample
	tracks   map[trackKey]string
	chains   int
	// sink is set only on a stream-only recorder (NewStreaming), which
	// forwards records to it and keeps nothing: its maps stay nil and
	// every read sees an empty recorder.
	sink Sink
}

// New builds an empty Recorder.
func New() *Recorder {
	return &Recorder{
		counters: map[string]int64{},
		gauges:   map[string]float64{},
		hists:    map[string]*Histogram{},
		tracks:   map[trackKey]string{},
	}
}

// NewStreaming builds a stream-only Recorder: every span, instant and
// sample — direct or merged from a child chain — goes to s the moment it
// is recorded, in the order a retaining recorder keeps them, and nothing
// is kept. Counters, gauges, histograms and track labels are dropped, so
// every read and export equals an empty recorder's. s must not be nil.
func NewStreaming(s Sink) *Recorder {
	if s == nil {
		panic("telemetry: nil sink")
	}
	return &Recorder{sink: s}
}

// retains reports whether the recorder keeps what it records.
func (r *Recorder) retains() bool { return r != nil && r.sink == nil }

// Enabled reports whether the recorder is live; it is the idiomatic guard
// around recording code whose argument preparation itself costs something.
func (r *Recorder) Enabled() bool { return r != nil }

// Count adds delta to a named monotone counter.
func (r *Recorder) Count(name string, delta int64) {
	if !r.retains() {
		return
	}
	r.counters[name] += delta
}

// Counter reads a counter (0 if never written).
func (r *Recorder) Counter(name string) int64 {
	if r == nil {
		return 0
	}
	return r.counters[name]
}

// SetGauge records the latest value of a named gauge.
func (r *Recorder) SetGauge(name string, v float64) {
	if !r.retains() {
		return
	}
	r.gauges[name] = v
}

// Observe adds a value to a named histogram, creating it with
// DefaultBounds on first use.
func (r *Recorder) Observe(name string, v float64) {
	if !r.retains() {
		return
	}
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(DefaultBounds)
		r.hists[name] = h
	}
	h.Observe(v)
}

// Track names a trace lane (a physical node, or the balancer).
func (r *Recorder) Track(id int, label string) {
	if !r.retains() {
		return
	}
	r.tracks[trackKey{0, id}] = label
}

// Span records a duration event on a track.
func (r *Recorder) Span(track int, phase Phase, start, dur units.Duration, value float64) {
	if r == nil {
		return
	}
	r.event(Event{Track: track, Phase: phase, Kind: KindSpan, Start: start, Dur: dur, Value: value})
}

// Instant records a point event on a track.
func (r *Recorder) Instant(track int, phase Phase, at units.Duration, value float64) {
	if r == nil {
		return
	}
	r.event(Event{Track: track, Phase: phase, Kind: KindInstant, Start: at, Value: value})
}

// Sample records one per-node timeline point.
func (r *Recorder) Sample(round, node int, at units.Duration, stored units.Energy, backlog int, awake bool) {
	if r == nil {
		return
	}
	r.sample(Sample{Node: node, Round: round, Time: at, Stored: stored, Backlog: backlog, Awake: awake})
}

// event hands e to a stream-only recorder's sink, or keeps it.
func (r *Recorder) event(e Event) {
	if r.sink != nil {
		r.sink.OnEvent(e)
		return
	}
	r.events = append(r.events, e)
}

// sample hands s to a stream-only recorder's sink, or keeps it.
func (r *Recorder) sample(s Sample) {
	if r.sink != nil {
		r.sink.OnSample(s)
		return
	}
	r.samples = append(r.samples, s)
}

// Events returns the recorded events in recording order.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	return r.events
}

// Samples returns the recorded timeline points in recording order.
func (r *Recorder) Samples() []Sample {
	if r == nil {
		return nil
	}
	return r.samples
}

// CounterNames returns the counter names in sorted (deterministic) order.
func (r *Recorder) CounterNames() []string { return sortedKeys(r.counters) }

// GaugeNames returns the gauge names in sorted order.
func (r *Recorder) GaugeNames() []string { return sortedKeys(r.gauges) }

// HistNames returns the histogram names in sorted order.
func (r *Recorder) HistNames() []string { return sortedKeys(r.hists) }

func sortedKeys[V any](m map[string]V) []string {
	if m == nil {
		return nil
	}
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// chainSpan is how many chain slots this recorder occupies when merged
// into a parent: at least one (its own direct recordings), or however many
// chains it has itself absorbed.
func (r *Recorder) chainSpan() int {
	if r.chains > 1 {
		return r.chains
	}
	return 1
}

// MergeNext folds a child recorder into r as the next chain(s), assigning
// chain ids in call order — the facade's SimulateFleet merges per-chain
// recorders in input order, so a fleet's telemetry reads exactly as if
// the chains had run serially. Counters and histograms are summed, gauges are overwritten in
// merge order, and events, samples and track labels are re-tagged with the
// assigned chain id. It returns the base chain id the child received.
// A stream-only parent forwards the re-tagged events and samples to its
// sink and keeps nothing. A recorder should either record directly (chain 0) or aggregate merges,
// not both.
func (r *Recorder) MergeNext(child *Recorder) int {
	if r == nil || child == nil {
		return 0
	}
	base := r.chains
	r.chains = base + child.chainSpan()
	for _, e := range child.events {
		e.Chain += base
		r.event(e)
	}
	for _, s := range child.samples {
		s.Chain += base
		r.sample(s)
	}
	if r.sink != nil {
		return base
	}
	for k, label := range child.tracks {
		r.tracks[trackKey{k.chain + base, k.track}] = label
	}
	for _, name := range child.CounterNames() {
		r.counters[name] += child.counters[name]
	}
	for _, name := range child.GaugeNames() {
		r.gauges[name] = child.gauges[name]
	}
	for _, name := range child.HistNames() {
		ch := child.hists[name]
		h, ok := r.hists[name]
		if !ok {
			h = newHistogram(ch.Bounds)
			r.hists[name] = h
		}
		h.merge(ch)
	}
	return base
}
