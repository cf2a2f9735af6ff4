// Package bench is the regression-bench harness behind cmd/neofog-bench
// and the root package's Benchmark* functions: one registry of headline
// benchmark cases, a median-of-N measurement runner built on
// testing.Benchmark, a JSON report format (BENCH_PR4.json), and a
// tolerance gate comparing a fresh report against a checked-in baseline.
//
// The root bench_test.go delegates every Benchmark* to a case here, so
// `go test -bench` and `neofog-bench` measure exactly the same code; a
// coverage test enforces that the two lists never drift apart.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"
	"testing"
	"time"

	"neofog"
	"neofog/internal/energytrace"
	"neofog/internal/experiments"
	"neofog/internal/loadgen"
	"neofog/internal/sched"
	"neofog/internal/units"
)

// Case is one named benchmark.
type Case struct {
	Name string
	F    func(b *testing.B)
}

// ExperimentParallel is the worker-pool width every experiment-backed case
// passes through to the sweep engine (cmd/neofog-bench -parallel). Outputs
// are byte-identical at any width, so allocs/op and B/op stay comparable
// across settings; ns/op reflects the parallel wall time, so reports gated
// against a baseline should use the width the baseline was recorded at.
var ExperimentParallel int

func experimentCase(id string, rounds int) func(*testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			out, err := neofog.RunExperiment(id, neofog.ExperimentOptions{
				Seed: 1, Rounds: rounds, Parallel: ExperimentParallel,
			})
			if err != nil {
				b.Fatal(err)
			}
			if len(out) == 0 {
				b.Fatal("empty experiment output")
			}
		}
	}
}

// Cases returns the benchmark registry: every experiment harness the
// paper's evaluation regenerates (shortened simulation-backed figures),
// the simulator throughput cases, and the telemetry-overhead case. Names
// match the root package's Benchmark* suffixes.
func Cases() []Case {
	return []Case{
		{"Table1", experimentCase("table1", 0)},
		{"Table2", experimentCase("table2", 0)},
		{"Fig4", experimentCase("fig4", 0)},
		{"Fig6", experimentCase("fig6", 0)},
		{"Fig7", experimentCase("fig7", 0)},
		{"Fig9", experimentCase("fig9", 300)},
		{"Fig10", experimentCase("fig10", 300)},
		{"Fig11", experimentCase("fig11", 300)},
		{"Fig12", experimentCase("fig12", 300)},
		{"Fig13", experimentCase("fig13", 300)},
		{"Headline", experimentCase("headline", 300)},
		{"SimulateNEOFog", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := neofog.Simulate(neofog.SimulationConfig{Seed: int64(i + 1)})
				if err != nil {
					b.Fatal(err)
				}
				if res.TotalProcessed() == 0 {
					b.Fatal("degenerate run")
				}
			}
		}},
		{"SimulateTelemetry", func(b *testing.B) {
			// The telemetry-enabled twin of SimulateNEOFog: the delta
			// between the two is the observability layer's overhead.
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tel := neofog.NewTelemetry()
				res, err := neofog.Simulate(neofog.SimulationConfig{Seed: int64(i + 1), Telemetry: tel})
				if err != nil {
					b.Fatal(err)
				}
				if res.TotalProcessed() == 0 || tel.Counter("sim.wakeups") == 0 {
					b.Fatal("degenerate run")
				}
			}
		}},
		{"SimulateStreaming", func(b *testing.B) {
			// SimulateNEOFog under the stream-only collector serve attaches
			// to every job: records go to a sink and nothing is kept, so
			// the delta to SimulateNEOFog is the cost of forwarding alone.
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tel := neofog.NewStreamingTelemetry(discardStreamer{})
				res, err := neofog.Simulate(neofog.SimulationConfig{Seed: int64(i + 1), Telemetry: tel})
				if err != nil {
					b.Fatal(err)
				}
				if res.TotalProcessed() == 0 {
					b.Fatal("degenerate run")
				}
			}
		}},
		{"SimulateServeMiss", func(b *testing.B) {
			// A serve cache miss as the write-mix workload makes them: a
			// short never-seen run (nodes 4–10, rounds 30–300, every
			// system) under the stream-only collector serve attaches to
			// every job. The configs cycle through a fixed seeded draw, so
			// every measurement averages the same mix.
			rng := rand.New(rand.NewSource(1))
			systems := []neofog.System{neofog.SystemVP, neofog.SystemNVP, neofog.SystemNEOFog}
			cfgs := make([]neofog.SimulationConfig, 16)
			for i := range cfgs {
				cfgs[i] = neofog.SimulationConfig{
					System: systems[rng.Intn(len(systems))],
					Nodes:  4 + rng.Intn(7),
					Rounds: 30 + rng.Intn(271),
					Seed:   1 + rng.Int63n(1<<40),
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cfg := cfgs[i%len(cfgs)]
				cfg.Telemetry = neofog.NewStreamingTelemetry(discardStreamer{})
				res, err := neofog.Simulate(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if res.Rounds != cfg.Rounds {
					b.Fatalf("ran %d rounds, want %d", res.Rounds, cfg.Rounds)
				}
			}
		}},
		{"SimulateLargeFleet", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := neofog.Simulate(neofog.SimulationConfig{
					Nodes:  100,
					Rounds: 300,
					Seed:   int64(i + 1),
				})
				if err != nil {
					b.Fatal(err)
				}
				_ = res
			}
		}},
		{"FigPacketsFull", func(b *testing.B) {
			if testing.Short() {
				b.Skip("full-length")
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := experiments.Fig10Independent(experiments.Options{Seed: 1, Parallel: ExperimentParallel}); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"PlanDistributed", func(b *testing.B) {
			// The Algorithm 1 balancer layer of Fig. 13: one round of the
			// production path (Plan over a warm scratch) on a 50-slot
			// rainy-day chain with backlogs in the tens, at the 12 000-tick
			// slot.
			rng := rand.New(rand.NewSource(1))
			nodes := make([]sched.NodeLoad, 50)
			for i := range nodes {
				capacity := rng.Intn(3)
				if rng.Intn(5) == 0 {
					capacity = 20 + rng.Intn(40)
				}
				nodes[i] = sched.NodeLoad{
					Alive:        rng.Float64() < 0.85,
					Tasks:        10 + rng.Intn(50),
					Capacity:     capacity,
					TicksPerTask: rng.Intn(9000) + 1000,
				}
			}
			var s sched.Scratch
			bal := sched.Distributed{}
			bal.Plan(&s, nodes, 12000, 0.02, rng)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bal.Plan(&s, nodes, 12000, 0.02, rng)
			}
		}},
		{"TraceIndependentIncome", func(b *testing.B) {
			// The trace-synthesis layer: the facade's forest income for a
			// 10-node chain (5-hour sunny day at 1 s, 5-minute segments,
			// integrated into 12 s slots).
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cfg := energytrace.SunnyDay()
				opts := energytrace.IncomeOpts{Slot: 12 * units.Second}
				set := energytrace.IndependentIncome(cfg, 10, 5*units.Minute, opts, rand.New(rand.NewSource(int64(i+1))))
				if len(set) != 10 {
					b.Fatal("short income set")
				}
			}
		}},
		{"ServeScheduleBuild", func(b *testing.B) {
			// The serve load harness's schedule expansion: one second of
			// 1000 qps arrivals, each normalized and content-addressed.
			// This is the per-request fixed cost the open-loop generator
			// pays before a trace starts, so it gates like any other
			// headline case (the trace replay itself is wall-clock-bound
			// and gated separately via BENCH_SERVE.json).
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				schedule, err := loadgen.BuildSchedule(loadgen.TraceSpec{
					Seed: 1, QPS: 1000, Duration: time.Second,
				})
				if err != nil {
					b.Fatal(err)
				}
				if len(schedule) == 0 {
					b.Fatal("empty schedule")
				}
			}
		}},
	}
}

// discardStreamer is a TelemetryStreamer that drops every record.
type discardStreamer struct{}

func (discardStreamer) TelemetryEvent(int, int, string, bool, float64, float64, float64) {}
func (discardStreamer) TelemetrySample(int, int, int, float64, float64, int, bool)       {}

// Find returns the named case.
func Find(name string) (Case, bool) {
	for _, c := range Cases() {
		if c.Name == name {
			return c, true
		}
	}
	return Case{}, false
}

// Measurement is the median-of-runs record for one benchmark.
type Measurement struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// N is the total benchmark iterations across all runs.
	N int `json:"n"`
}

// Measure runs the case `runs` times under testing.Benchmark and reports
// the per-metric medians — medians, not means, so one noisy run on a
// shared machine cannot skew the record. The second return is false when
// the case skipped itself (e.g. a full-length case under -short).
func Measure(c Case, runs int) (Measurement, bool) {
	if runs < 1 {
		runs = 1
	}
	ns := make([]float64, 0, runs)
	allocs := make([]int64, 0, runs)
	bytes := make([]int64, 0, runs)
	n := 0
	for i := 0; i < runs; i++ {
		r := testing.Benchmark(c.F)
		if r.N == 0 {
			return Measurement{}, false
		}
		ns = append(ns, float64(r.T.Nanoseconds())/float64(r.N))
		allocs = append(allocs, r.AllocsPerOp())
		bytes = append(bytes, r.AllocedBytesPerOp())
		n += r.N
	}
	return Measurement{
		Name:        c.Name,
		NsPerOp:     medianFloat(ns),
		AllocsPerOp: medianInt(allocs),
		BytesPerOp:  medianInt(bytes),
		N:           n,
	}, true
}

func medianFloat(v []float64) float64 {
	sort.Float64s(v)
	m := len(v) / 2
	if len(v)%2 == 1 {
		return v[m]
	}
	return (v[m-1] + v[m]) / 2
}

func medianInt(v []int64) int64 {
	sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
	m := len(v) / 2
	if len(v)%2 == 1 {
		return v[m]
	}
	return (v[m-1] + v[m]) / 2
}

// Report is the BENCH_PR4.json schema.
type Report struct {
	Runs      int           `json:"runs"`
	Benchtime string        `json:"benchtime"`
	Results   []Measurement `json:"results"`
}

// WriteJSON writes the report with stable formatting.
func WriteJSON(w io.Writer, rep Report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// ReadJSON loads a report file.
func ReadJSON(path string) (Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Report{}, err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return Report{}, fmt.Errorf("bench: parsing %s: %w", path, err)
	}
	return rep, nil
}

// FormatComparison renders a before/after table of two reports for the
// names present in both: ns/op, allocs/op, and B/op side by side with the
// change ratio (current/baseline; lower is better). It is the human-facing
// companion to Compare, used by `neofog-bench -compare` to publish a
// PR-over-PR artifact.
func FormatComparison(current, baseline Report) string {
	base := map[string]Measurement{}
	for _, m := range baseline.Results {
		base[m.Name] = m
	}
	ratio := func(cur, b float64) string {
		if b <= 0 {
			return "n/a"
		}
		return fmt.Sprintf("%.2fx", cur/b)
	}
	out := fmt.Sprintf("%-18s %28s %26s %30s\n", "benchmark",
		"ns/op (base -> cur)", "allocs/op (base -> cur)", "B/op (base -> cur)")
	for _, cur := range current.Results {
		b, ok := base[cur.Name]
		if !ok {
			continue
		}
		out += fmt.Sprintf("%-18s %10.0f -> %10.0f %s %10d -> %8d %s %12d -> %10d %s\n",
			cur.Name,
			b.NsPerOp, cur.NsPerOp, ratio(cur.NsPerOp, b.NsPerOp),
			b.AllocsPerOp, cur.AllocsPerOp, ratio(float64(cur.AllocsPerOp), float64(b.AllocsPerOp)),
			b.BytesPerOp, cur.BytesPerOp, ratio(float64(cur.BytesPerOp), float64(b.BytesPerOp)))
	}
	return out
}

// Compare gates current against baseline: a benchmark regresses when its
// median exceeds the baseline by more than the tolerance fraction (0.5 =
// 50% slower allowed). A negative tolerance disables that gate — the
// ns/op gate is usually disabled on shared CI runners, where wall time is
// noise but allocation counts are deterministic. Only names present in
// both reports are compared. It returns one message per violation.
func Compare(current, baseline Report, nsTol, allocTol float64) []string {
	base := map[string]Measurement{}
	for _, m := range baseline.Results {
		base[m.Name] = m
	}
	var violations []string
	for _, cur := range current.Results {
		b, ok := base[cur.Name]
		if !ok {
			continue
		}
		if nsTol >= 0 && b.NsPerOp > 0 && cur.NsPerOp > b.NsPerOp*(1+nsTol) {
			violations = append(violations, fmt.Sprintf(
				"%s: %.0f ns/op exceeds baseline %.0f ns/op by more than %.0f%%",
				cur.Name, cur.NsPerOp, b.NsPerOp, nsTol*100))
		}
		if allocTol >= 0 && float64(cur.AllocsPerOp) > float64(b.AllocsPerOp)*(1+allocTol) {
			violations = append(violations, fmt.Sprintf(
				"%s: %d allocs/op exceeds baseline %d allocs/op by more than %.0f%%",
				cur.Name, cur.AllocsPerOp, b.AllocsPerOp, allocTol*100))
		}
	}
	return violations
}
