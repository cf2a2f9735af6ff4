// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus simulator-throughput and telemetry-overhead cases.
// Each Benchmark* runs a body declared beside it with an allocation
// budget, and TestBenchAllocBudgets holds every body to its budget, so
// `go test` gates what `go test -bench` measures. Component-level and
// ablation benchmarks live in the internal packages.
package neofog

import (
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"neofog/internal/experiments"
)

// benchBody is one benchmark's operation and the allocations it may make.
type benchBody struct {
	// op runs the operation on input i. A benchmark passes its iteration
	// index, so an input that varies with i varies the same way in the
	// budget test.
	op func(tb testing.TB, i int)
	// cycle is how many distinct inputs op cycles through (0 means one).
	// The budget test measures one whole cycle.
	cycle int
	// budget caps allocations per op at ⌈1.10 × the count measured when it
	// was set⌉, which each row's comment states (testing.AllocsPerRun,
	// Go 1.24, linux/amd64).
	budget float64
}

func (c benchBody) run(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.op(b, i)
	}
}

// experimentBody regenerates one paper artifact at seed 1; rounds 0 is
// the published length.
func experimentBody(id string, rounds int, budget float64) benchBody {
	return benchBody{budget: budget, op: func(tb testing.TB, _ int) {
		out, err := RunExperiment(id, ExperimentOptions{Seed: 1, Rounds: rounds})
		if err != nil {
			tb.Fatal(err)
		}
		if len(out) == 0 {
			tb.Fatal("empty experiment output")
		}
	}}
}

// The shortened simulation-backed figures run 300 rounds.
var (
	benchTable1   = experimentBody("table1", 0, 22)      // measured 20
	benchTable2   = experimentBody("table2", 0, 174_564) // measured 158,694
	benchFig4     = experimentBody("fig4", 0, 39)        // measured 35
	benchFig6     = experimentBody("fig6", 0, 54)        // measured 49
	benchFig7     = experimentBody("fig7", 0, 27)        // measured 24
	benchFig9     = experimentBody("fig9", 300, 773)     // measured 702
	benchFig10    = experimentBody("fig10", 300, 2_981)  // measured 2,710
	benchFig11    = experimentBody("fig11", 300, 2_961)  // measured 2,691
	benchFig12    = experimentBody("fig12", 300, 3_108)  // measured 2,825
	benchFig13    = experimentBody("fig13", 300, 3_123)  // measured 2,839
	benchHeadline = experimentBody("headline", 300, 967) // measured 879
)

func BenchmarkTable1(b *testing.B)   { benchTable1.run(b) }
func BenchmarkTable2(b *testing.B)   { benchTable2.run(b) }
func BenchmarkFig4(b *testing.B)     { benchFig4.run(b) }
func BenchmarkFig6(b *testing.B)     { benchFig6.run(b) }
func BenchmarkFig7(b *testing.B)     { benchFig7.run(b) }
func BenchmarkFig9(b *testing.B)     { benchFig9.run(b) }
func BenchmarkFig10(b *testing.B)    { benchFig10.run(b) }
func BenchmarkFig11(b *testing.B)    { benchFig11.run(b) }
func BenchmarkFig12(b *testing.B)    { benchFig12.run(b) }
func BenchmarkFig13(b *testing.B)    { benchFig13.run(b) }
func BenchmarkHeadline(b *testing.B) { benchHeadline.run(b) }

// simulateBody runs cfg at seed i+1, under the collector tel returns (nil
// for none), and fails on a run that processed nothing.
func simulateBody(cfg SimulationConfig, tel func() *Telemetry, budget float64) benchBody {
	return benchBody{budget: budget, op: func(tb testing.TB, i int) {
		cfg := cfg
		cfg.Seed = int64(i + 1)
		if tel != nil {
			cfg.Telemetry = tel()
		}
		res, err := Simulate(cfg)
		if err != nil {
			tb.Fatal(err)
		}
		if res.TotalProcessed() == 0 {
			tb.Fatal("degenerate run")
		}
	}}
}

func streaming() *Telemetry { return NewStreamingTelemetry(discardStreamer{}) }

// benchSimulateNEOFog is the standard 10-node, 5-hour deployment.
// Measured 194.
var benchSimulateNEOFog = simulateBody(SimulationConfig{}, nil, 214)

// BenchmarkSimulateNEOFog measures the system simulator's throughput on
// the standard 10-node, 5-hour deployment.
func BenchmarkSimulateNEOFog(b *testing.B) { benchSimulateNEOFog.run(b) }

// benchSimulateTelemetry is benchSimulateNEOFog with a retaining
// collector, which must have recorded the run. Measured 277.
var benchSimulateTelemetry = benchBody{budget: 305, op: func(tb testing.TB, i int) {
	tel := NewTelemetry()
	res, err := Simulate(SimulationConfig{Seed: int64(i + 1), Telemetry: tel})
	if err != nil {
		tb.Fatal(err)
	}
	if res.TotalProcessed() == 0 || tel.Counter("sim.wakeups") == 0 {
		tb.Fatal("degenerate run")
	}
}}

// BenchmarkSimulateTelemetry is the telemetry-enabled twin of
// BenchmarkSimulateNEOFog; the delta is the observability layer's cost.
func BenchmarkSimulateTelemetry(b *testing.B) { benchSimulateTelemetry.run(b) }

// benchSimulateStreaming is benchSimulateNEOFog under the stream-only
// collector. Measured 209.
var benchSimulateStreaming = simulateBody(SimulationConfig{}, streaming, 230)

// BenchmarkSimulateStreaming is BenchmarkSimulateNEOFog under the
// stream-only collector the serve daemon attaches to every job: records
// go to a sink and nothing is kept, so the delta to SimulateNEOFog is the
// cost of forwarding alone.
func BenchmarkSimulateStreaming(b *testing.B) { benchSimulateStreaming.run(b) }

// benchSimulateLargeFleet is the 100-node inter-chain scale at 300
// rounds. Measured 1,729.
var benchSimulateLargeFleet = simulateBody(SimulationConfig{Nodes: 100, Rounds: 300}, nil, 1_902)

// BenchmarkSimulateLargeFleet runs the 100-node inter-chain scale the
// paper's simulator targets (reduced rounds to keep the benchmark honest
// but bounded).
func BenchmarkSimulateLargeFleet(b *testing.B) { benchSimulateLargeFleet.run(b) }

// serveMisses are short never-seen runs as the write-mix workload makes
// them: nodes 4–10, rounds 30–300, every system, from a fixed seeded draw.
var serveMisses = func() []SimulationConfig {
	rng := rand.New(rand.NewSource(1))
	systems := []System{SystemVP, SystemNVP, SystemNEOFog}
	cfgs := make([]SimulationConfig, 16)
	for i := range cfgs {
		cfgs[i] = SimulationConfig{
			System: systems[rng.Intn(len(systems))],
			Nodes:  4 + rng.Intn(7),
			Rounds: 30 + rng.Intn(271),
			Seed:   1 + rng.Int63n(1<<40),
		}
	}
	return cfgs
}()

// benchSimulateServeMiss cycles through serveMisses under the stream-only
// collector, so every whole cycle averages the same mix. Measured 125.
var benchSimulateServeMiss = benchBody{cycle: len(serveMisses), budget: 138, op: func(tb testing.TB, i int) {
	cfg := serveMisses[i%len(serveMisses)]
	cfg.Telemetry = streaming()
	res, err := Simulate(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	if res.Rounds != cfg.Rounds {
		tb.Fatalf("ran %d rounds, want %d", res.Rounds, cfg.Rounds)
	}
}}

// BenchmarkSimulateServeMiss is a serve cache miss as the write-mix
// workload makes them: short never-seen runs under the stream-only
// collector.
func BenchmarkSimulateServeMiss(b *testing.B) { benchSimulateServeMiss.run(b) }

// benchFigPacketsFull is the full-length Fig. 10 sweep. Measured 2,704.
var benchFigPacketsFull = benchBody{budget: 2_975, op: func(tb testing.TB, _ int) {
	if testing.Short() {
		tb.Skip("full-length")
	}
	if _, _, err := experiments.Fig10Independent(experiments.Options{Seed: 1}); err != nil {
		tb.Fatal(err)
	}
}}

// BenchmarkFigPacketsFull is the full-length Fig. 10 regeneration (5
// profiles × 3 systems × 1500 rounds), for tracking the cost of the
// heaviest published artifact. Skipped under -short.
func BenchmarkFigPacketsFull(b *testing.B) { benchFigPacketsFull.run(b) }

// raceEnabled reports a build with the race detector (see race_test.go).
var raceEnabled bool

// TestBenchAllocBudgets holds every benchmark body above to its budget.
// testing.AllocsPerRun makes a warm-up call, then counts one whole cycle
// of the body's inputs at GOMAXPROCS 1, so a count does not depend on the
// host. The collector is off while it counts: a collection empties the
// sync.Pools the income recipes and codecs recycle, and refilling them
// would charge a row for the collector's timing. The race build drops
// pooled items at random, so its counts say nothing about this one's.
func TestBenchAllocBudgets(t *testing.T) {
	if raceEnabled {
		t.Skip("the race build drops pooled items at random; allocation counts hold for the normal build")
	}
	for _, row := range []struct {
		name string
		body benchBody
	}{
		{"Table1", benchTable1},
		{"Table2", benchTable2},
		{"Fig4", benchFig4},
		{"Fig6", benchFig6},
		{"Fig7", benchFig7},
		{"Fig9", benchFig9},
		{"Fig10", benchFig10},
		{"Fig11", benchFig11},
		{"Fig12", benchFig12},
		{"Fig13", benchFig13},
		{"Headline", benchHeadline},
		{"SimulateNEOFog", benchSimulateNEOFog},
		{"SimulateTelemetry", benchSimulateTelemetry},
		{"SimulateStreaming", benchSimulateStreaming},
		{"SimulateServeMiss", benchSimulateServeMiss},
		{"SimulateLargeFleet", benchSimulateLargeFleet},
		{"FigPacketsFull", benchFigPacketsFull},
	} {
		t.Run(row.name, func(t *testing.T) {
			runs := max(row.body.cycle, 1)
			runtime.GC()
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			i := 0
			allocs := testing.AllocsPerRun(runs, func() {
				row.body.op(t, i)
				i++
			})
			t.Logf("%v allocs/op, budget %v", allocs, row.body.budget)
			if allocs > row.body.budget {
				t.Errorf("%v allocs/op, want ≤ %v", allocs, row.body.budget)
			}
		})
	}
}
