package loadgen

import (
	"runtime"
	"runtime/debug"
	"testing"
	"time"
)

// raceEnabled reports a build with the race detector (see race_test.go).
var raceEnabled bool

// buildSecond expands one second of 1000 qps arrivals, each normalized
// and content-addressed: the per-request fixed cost the open loop pays
// before a trace starts.
func buildSecond(tb testing.TB) {
	schedule, err := BuildSchedule(TraceSpec{Seed: 1, QPS: 1000, Duration: time.Second})
	if err != nil {
		tb.Fatal(err)
	}
	if len(schedule) == 0 {
		tb.Fatal("empty schedule")
	}
}

// BenchmarkServeScheduleBuild measures the load harness's deterministic
// schedule expansion (normalize + content-address per arrival).
func BenchmarkServeScheduleBuild(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buildSecond(b)
	}
}

// TestServeScheduleBuildAllocBudget holds the benchmark's body to 6,847
// allocations, ⌈1.10 × the 6,224 measured⌉, about six per arrival. The
// collector is off while it counts, since a collection empties the
// encoder pool of encoding/json, which content-addressing uses. The race
// build drops pooled items at random, so its count says nothing about
// this one's, and it skips.
func TestServeScheduleBuildAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race build drops pooled items at random; allocation counts hold for the normal build")
	}
	const budget = 6_847
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := testing.AllocsPerRun(1, func() { buildSecond(t) })
	t.Logf("%v allocs/op, budget %v", allocs, budget)
	if allocs > budget {
		t.Errorf("%v allocs/op, want ≤ %v", allocs, budget)
	}
}
