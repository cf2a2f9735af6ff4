package energytrace

import (
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"neofog/internal/units"
)

// forestIncome is the facade's forest income for a 10-node chain at seed
// seed: a 5-hour sunny day at 1 s, 5-minute segments, integrated into
// 12 s slots.
func forestIncome(tb testing.TB, seed int64) {
	opts := IncomeOpts{Slot: 12 * units.Second}
	if set := IndependentIncome(SunnyDay(), 10, 5*units.Minute, opts, rand.New(rand.NewSource(seed))); len(set) != 10 {
		tb.Fatal("short income set")
	}
}

// BenchmarkTraceIndependentIncome times the forest income synthesis the
// facade runs before every simulation.
func BenchmarkTraceIndependentIncome(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		forestIncome(b, int64(i+1))
	}
}

// TestTraceIndependentIncomeAllocBudget holds the benchmark's body to 4
// allocations, ⌈1.10 × the 3 measured⌉: the set's header, its income
// slice and the one energy buffer every node shares. The recipe's scratch
// is recycled, so losing it costs three more. The collector is off while
// it counts, since a collection empties the scratch pool. The race build
// drops pooled scratches at random, and a drop costs the scratch, its
// sample buffer and its picks again, so that build allows those three on
// top.
func TestTraceIndependentIncomeAllocBudget(t *testing.T) {
	budget := 4.0
	if raceEnabled {
		budget += 3
	}
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	seed := int64(1)
	allocs := testing.AllocsPerRun(1, func() {
		forestIncome(t, seed)
		seed++
	})
	t.Logf("%v allocs/op, budget %v", allocs, budget)
	if allocs > budget {
		t.Errorf("%v allocs/op, want ≤ %v", allocs, budget)
	}
}
