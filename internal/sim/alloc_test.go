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

// allocConfig is the Fig. 10-shaped deployment the steady-state allocation
// budget is pinned against (telemetry off, journal off).
func allocConfig(rounds int) Config {
	cfg := energytrace.SunnyDay()
	cfg.Peak = units.Power(0.8)
	income := energytrace.IndependentIncome(cfg, 10, 5*units.Minute, energytrace.IncomeOpts{Slot: 12 * units.Second}, rand.New(rand.NewSource(3)))
	return Config{
		Node:     node.DefaultConfig(node.FIOSNVMote, apps.BridgeHealth()),
		Income:   income,
		Slot:     12 * units.Second,
		Rounds:   rounds,
		Balancer: sched.Distributed{},
		Seed:     7,
	}
}

// TestRunAllocBudget pins sim.Run's allocation budget with telemetry off.
//
// Budget accounting — fixed setup (one-time, any round count): the nodes,
// their NVBuffer headers and fixed-cost tables (each table's level slice
// takes the allocation the NVBuffer's 64 KiB ring used to: the ring now
// waits for a real Push, which the simulator never makes), traces'
// cursors, the run arena, and the Result maps; measured 191, budgeted 600.
// Marginal per round: none. The balancing plan's Exec, Leftover and Moves
// live in the run arena's sched.Scratch, valid for the round that reads
// them, and reach high-water size within the first 100 rounds, as do the
// pooled packet buffers: measured 191 allocations at both lengths, in the
// normal and the race build, so 0 per round, budgeted 0. Before the
// scratch arena this path sat near 190 allocs per round (wake lists, load
// vectors, DP tables, heap nodes), so the budget fails loudly on any arena
// or pool regression.
func TestRunAllocBudget(t *testing.T) {
	short, long := 100, 400
	cfgShort, cfgLong := allocConfig(short), allocConfig(long)
	measure := func(cfg Config) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := Run(cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	aShort, aLong := measure(cfgShort), measure(cfgLong)
	marginal := (aLong - aShort) / float64(long-short)
	if marginal > 0 {
		t.Errorf("marginal allocations = %.2f per round, want 0", marginal)
	}
	fixed := aShort - marginal*float64(short)
	if fixed > 600 {
		t.Errorf("fixed setup allocations = %.0f, want <= 600", fixed)
	}
	t.Logf("allocs: %.0f @ %d rounds, %.0f @ %d rounds (%.2f/round marginal, %.0f fixed)",
		aShort, short, aLong, long, marginal, fixed)
}
