package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"time"
)

// metricDef is one metric of BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better,omitempty"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the system sees, printed by every
// untraced run. A request is what the workload's user asks for: one job
// submission on hot-read and write-mix (a miss completes at the poll
// that returns its result), one regeneration of every paper artifact on
// paper-sweep. work_latency_p50_ms is the median of the request class
// that takes most of the clients' time: the misses on write-mix, the
// only class on the others. Throughput is printed but not bounded: a
// closed loop's throughput is the inverse of its mean latency, which
// scheduling stalls on a shared 2-vCPU VM moved by up to 28 % between
// runs while the medians moved by 6 %.
var endToEnd = []metricDef{
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"work_latency_p50_ms", "ms", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// unattributedTolerance is the share of client-observed time the spans
// may leave uncovered before a traced run flags its breakdown. On
// hot-read most of that share is the client's own HTTP round trip to the
// router, which no program seam covers; on write-mix it is mostly the
// wait between a job's persistence and the poll that sees it done.
var unattributedTolerance = map[string]float64{"hot-read": 0.40, "write-mix": 0.10, "paper-sweep": 0.01}

// sweptArtifacts are the artifacts with a per-layer time; the others
// regenerate in well under a millisecond.
var sweptArtifacts = []string{"fig9", "fig10", "fig11", "fig12", "fig13", "headline", "chaos", "resilience", "table2", "camera"}

// perLayer are the traced run's metrics. A layer the workload never
// enters reports 0 over 0 samples, as does a p99 with fewer than ten
// samples beyond it.
var perLayer = func() []metricDef {
	lower := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "lower"} }
	defs := []metricDef{
		lower("router.handle_ms_p50", "ms"),
		lower("router.handle_ms_p99", "ms"),
		lower("router.self_ms_p50", "ms"),
		lower("router.forward_ms_p50", "ms"),
		lower("router.forward_ms_p99", "ms"),
		lower("router.retries", "count"),
		lower("serve.hit_submit_ms_p50", "ms"),
		lower("serve.hit_submit_ms_p99", "ms"),
		lower("serve.miss_submit_ms_p50", "ms"),
		lower("serve.poll_ms_p50", "ms"),
		lower("serve.poll_ms_p99", "ms"),
		lower("serve.canonical_us", "us"),
		{Name: "serve.cache_hit_ratio", Unit: "fraction", Better: "higher"},
		{Name: "serve.cache_entries_end", Unit: "count", Better: "higher"},
		lower("qos.queue_wait_ms_p50", "ms"),
		lower("qos.queue_wait_ms_p99", "ms"),
		lower("serve.execute_ms_p50", "ms"),
		lower("serve.execute_ms_p99", "ms"),
		lower("neofog.simulate_ms_p50", "ms"),
		lower("store.fsyncs_per_put", "count"),
		lower("store.result_bytes_per_put", "B"),
		lower("store.index_bytes_per_put", "B"),
		lower("store.fs_ms_per_put", "ms"),
		lower("store.promotions", "count"),
	}
	for _, id := range sweptArtifacts {
		defs = append(defs, lower("experiments."+id+"_ms", "ms"))
	}
	for _, name := range telemetryCounters {
		defs = append(defs, lower(name, "count"))
	}
	return append(defs,
		lower("sim.host_ns_per_wakeup", "ns"),
		lower("runtime.alloc_kb_per_op", "KiB"),
		lower("runtime.mallocs_per_op", "count"),
		lower("runtime.gc_cpu_frac", "fraction"),
		lower("client.polls_per_miss", "count"),
		lower("trace.overhead_frac", "fraction"),
		lower("trace.unattributed_frac", "fraction"),
	)
}()

// value is one measured number with the sample count behind it.
type value struct {
	v    float64
	unit string
	n    int
	note string
}

// report collects a run's metrics and per-phase request counts.
type report struct {
	values map[string]value
	order  []string
	phases [3]outcome // set-up, window, verification
}

var phaseNames = [3]string{"set-up", "window", "verification"}

func newReport() *report { return &report{values: map[string]value{}} }

func (r *report) set(name string, v float64, unit string, n int) {
	if _, ok := r.values[name]; !ok {
		r.order = append(r.order, name)
	}
	r.values[name] = value{v: v, unit: unit, n: n}
}

// pct sets a nearest-rank percentile of samples. A tail percentile with
// fewer than ten samples beyond it is not reported: it reads 0.
func (r *report) pct(name string, samples []float64, p float64, unit string) {
	if p > 50 && !tailSupported(len(samples), p) {
		r.set(name, 0, unit, len(samples))
		v := r.values[name]
		v.note = "not reported: fewer than 10 samples beyond"
		r.values[name] = v
		return
	}
	r.set(name, percentile(samples, p), unit, len(samples))
}

// flagUnattributed notes the traced run's unattributed share against the
// workload's tolerance.
func (r *report) flagUnattributed(workload string) {
	v, ok := r.values["trace.unattributed_frac"]
	if !ok {
		return
	}
	tol := unattributedTolerance[workload]
	v.note = fmt.Sprintf("tolerance %.2f: within", tol)
	if v.v > tol {
		v.note = fmt.Sprintf("tolerance %.2f: EXCEEDED, the spans do not account for the client's latency", tol)
	}
	r.values["trace.unattributed_frac"] = v
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func (r *report) attempted() int {
	n := 0
	for _, p := range r.phases {
		n += p.sent
	}
	return n
}

func (r *report) failed() int {
	n := 0
	for _, p := range r.phases {
		n += p.failed
	}
	return n
}

// print writes every metric as a readable line, then the result object
// as the last line: the end-to-end metrics untraced, the per-layer ones
// traced.
func (r *report) print(traced bool) error {
	r.set("failed_frac", float64(r.failed())/float64(max(1, r.attempted())), "fraction", r.attempted())
	for i, p := range r.phases {
		fmt.Printf("phase %-12s sent=%d succeeded=%d failed=%d\n", phaseNames[i], p.sent, p.ok, p.failed)
		for _, e := range p.errs {
			fmt.Printf("  failure: %s\n", e)
		}
	}
	for _, name := range r.order {
		v := r.values[name]
		line := fmt.Sprintf("metric %-30s %14.6g %-8s n=%d", name, v.v, v.unit, v.n)
		if v.note != "" {
			line += "  (" + v.note + ")"
		}
		fmt.Println(line)
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	type jsonValue struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]jsonValue `json:"metrics"`
	}{Correct: r.failed() == 0, Attempted: r.attempted(), Failed: r.failed(), Metrics: map[string]jsonValue{}}
	var missing []string
	for _, d := range defs {
		v, ok := r.values[d.Name]
		if !ok || math.IsNaN(v.v) || math.IsInf(v.v, 0) {
			missing = append(missing, d.Name)
			continue
		}
		out.Metrics[d.Name] = jsonValue{Value: v.v, Unit: d.Unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("metrics not measured: %v", missing)
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}
