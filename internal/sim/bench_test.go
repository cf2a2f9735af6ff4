package sim

import (
	"math/rand"
	"testing"

	"neofog/internal/apps"
	"neofog/internal/energytrace"
	"neofog/internal/node"
	"neofog/internal/sched"
	"neofog/internal/units"
)

func benchRun(b *testing.B, kind node.SystemKind, bal sched.Balancer, nodes int) {
	cfg := energytrace.SunnyDay()
	cfg.Peak = 0.7
	income := energytrace.IndependentIncome(cfg, nodes, 5*units.Minute, energytrace.IncomeOpts{Slot: 12 * units.Second}, rand.New(rand.NewSource(1)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := Run(Config{
			Node:     node.DefaultConfig(kind, apps.BridgeHealth()),
			Income:   income,
			Slot:     12 * units.Second,
			Rounds:   300,
			Balancer: bal,
			Seed:     int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation: per-system-stack simulation cost and outcome (the three
// architectures of Figs. 9–13).
func BenchmarkRunVP(b *testing.B)     { benchRun(b, node.NOSVP, sched.NoBalance{}, 10) }
func BenchmarkRunNVP(b *testing.B)    { benchRun(b, node.NOSNVP, sched.BaselineTree{}, 10) }
func BenchmarkRunNEOFog(b *testing.B) { benchRun(b, node.FIOSNVMote, sched.Distributed{}, 10) }

// The thousand-node scale the paper's system simulator targets.
func BenchmarkRunThousandNodes(b *testing.B) {
	if testing.Short() {
		b.Skip("large fleet")
	}
	benchRun(b, node.FIOSNVMote, sched.Distributed{}, 1000)
}

// Ablation: the incidental-computing extension's cost and benefit under
// starvation income.
func BenchmarkRunResumable(b *testing.B) {
	cfg := energytrace.RainyDay()
	cfg.Peak = 0.35
	income := energytrace.DependentIncome(cfg, 10, 0.3, energytrace.IncomeOpts{Slot: 12 * units.Second}, rand.New(rand.NewSource(5)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nc := node.DefaultConfig(node.NOSNVP, apps.BridgeHealth())
		nc.Resumable = true
		r, err := Run(Config{
			Node:     nc,
			Income:   income,
			Slot:     12 * units.Second,
			Rounds:   300,
			Balancer: sched.BaselineTree{},
			Seed:     int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.FogProcessed), "fog-packets")
	}
}
