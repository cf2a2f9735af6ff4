// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus simulator-throughput and telemetry-overhead cases.
// Every Benchmark* here delegates to the registry in internal/bench, so
// `go test -bench` and the cmd/neofog-bench regression harness measure
// exactly the same code; internal/bench's coverage test enforces that the
// two lists never drift apart. Component-level and ablation benchmarks
// live in the internal packages.
package neofog_test

import (
	"testing"

	"neofog/internal/bench"
)

func runCase(b *testing.B, name string) {
	b.Helper()
	c, ok := bench.Find(name)
	if !ok {
		b.Fatalf("no bench case %q registered in internal/bench", name)
	}
	c.F(b)
}

func BenchmarkTable1(b *testing.B)   { runCase(b, "Table1") }
func BenchmarkTable2(b *testing.B)   { runCase(b, "Table2") }
func BenchmarkFig4(b *testing.B)     { runCase(b, "Fig4") }
func BenchmarkFig6(b *testing.B)     { runCase(b, "Fig6") }
func BenchmarkFig7(b *testing.B)     { runCase(b, "Fig7") }
func BenchmarkFig9(b *testing.B)     { runCase(b, "Fig9") }
func BenchmarkFig10(b *testing.B)    { runCase(b, "Fig10") }
func BenchmarkFig11(b *testing.B)    { runCase(b, "Fig11") }
func BenchmarkFig12(b *testing.B)    { runCase(b, "Fig12") }
func BenchmarkFig13(b *testing.B)    { runCase(b, "Fig13") }
func BenchmarkHeadline(b *testing.B) { runCase(b, "Headline") }

// BenchmarkSimulateNEOFog measures the system simulator's throughput on
// the standard 10-node, 5-hour deployment.
func BenchmarkSimulateNEOFog(b *testing.B) { runCase(b, "SimulateNEOFog") }

// BenchmarkSimulateTelemetry is the telemetry-enabled twin of
// BenchmarkSimulateNEOFog; the delta is the observability layer's cost.
func BenchmarkSimulateTelemetry(b *testing.B) { runCase(b, "SimulateTelemetry") }

// BenchmarkSimulateStreaming is BenchmarkSimulateNEOFog under the
// stream-only collector the serve daemon attaches to every job.
func BenchmarkSimulateStreaming(b *testing.B) { runCase(b, "SimulateStreaming") }

// BenchmarkSimulateServeMiss is a serve cache miss as the write-mix
// workload makes them: short never-seen runs under the stream-only
// collector.
func BenchmarkSimulateServeMiss(b *testing.B) { runCase(b, "SimulateServeMiss") }

// BenchmarkSimulateLargeFleet runs the 100-node inter-chain scale the
// paper's simulator targets (reduced rounds to keep the benchmark honest
// but bounded).
func BenchmarkSimulateLargeFleet(b *testing.B) { runCase(b, "SimulateLargeFleet") }

// BenchmarkFigPacketsFull is the full-length Fig. 10 regeneration (5
// profiles × 3 systems × 1500 rounds), for tracking the cost of the
// heaviest published artifact. Skipped under -short.
func BenchmarkFigPacketsFull(b *testing.B) { runCase(b, "FigPacketsFull") }

// BenchmarkServeScheduleBuild measures the serve load harness's
// deterministic schedule expansion (normalize + content-address per
// arrival) — the fixed cost the open-loop generator pays before a trace
// starts.
func BenchmarkServeScheduleBuild(b *testing.B) { runCase(b, "ServeScheduleBuild") }

// BenchmarkPlanDistributed times one Algorithm 1 balancing round on a
// Fig. 13-shaped load, so a Fig. 13 regression can be pinned on the
// balancer layer.
func BenchmarkPlanDistributed(b *testing.B) { runCase(b, "PlanDistributed") }

// BenchmarkTraceIndependentIncome times the forest income synthesis the
// facade runs before every simulation.
func BenchmarkTraceIndependentIncome(b *testing.B) { runCase(b, "TraceIndependentIncome") }
