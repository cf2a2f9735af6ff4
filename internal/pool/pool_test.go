package pool

import (
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestWidth(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, tc := range []struct{ parallel, want int }{
		{0, 1},
		{1, 1},
		{procs, procs},
		{procs + 1, procs},
		{-1, procs},
		{-7, procs},
	} {
		if got := Width(tc.parallel); got != tc.want {
			t.Errorf("Width(%d) = %d, want %d", tc.parallel, got, tc.want)
		}
	}
}

func TestDispatchOrder(t *testing.T) {
	for _, tc := range []struct {
		name string
		cost []int
		want []int
	}{
		{"nil cost", nil, []int{0, 1, 2, 3, 4}},
		{"ascending", []int{1, 2, 3, 4, 5}, []int{4, 3, 2, 1, 0}},
		{"descending", []int{5, 4, 3, 2, 1}, []int{0, 1, 2, 3, 4}},
		{"all equal", []int{3, 3, 3, 3, 3}, []int{0, 1, 2, 3, 4}},
		{"ties keep input order", []int{2, 9, 2, 9, 1}, []int{1, 3, 0, 2, 4}},
	} {
		var cost func(int) int
		if tc.cost != nil {
			cost = func(i int) int { return tc.cost[i] }
		}
		if got := dispatchOrder(len(tc.want), cost); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: order %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestRunSerialStopsAtFirstFalse: one worker runs indices in input order
// and never starts one past the first that reports false, whatever the
// costs say.
func TestRunSerialStopsAtFirstFalse(t *testing.T) {
	var ran []int
	Run(6, 1, func(i int) int { return i }, func(i int) bool {
		ran = append(ran, i)
		return i != 2
	})
	if want := []int{0, 1, 2}; !reflect.DeepEqual(ran, want) {
		t.Fatalf("ran %v, want %v", ran, want)
	}
}

// TestRunEveryIndexOnce runs more indices than workers at several widths,
// some reporting false, and checks each index ran exactly once and never
// more than w at a time.
func TestRunEveryIndexOnce(t *testing.T) {
	const n = 40
	for _, w := range []int{2, 3, 8, 64} {
		counts := make([]atomic.Int64, n)
		var live, peak atomic.Int64
		var mu sync.Mutex
		Run(n, w, func(i int) int { return i % 7 }, func(i int) bool {
			cur := live.Add(1)
			mu.Lock()
			peak.Store(max(peak.Load(), cur))
			mu.Unlock()
			counts[i].Add(1)
			live.Add(-1)
			return i%5 != 0
		})
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Errorf("w=%d: index %d ran %d times", w, i, c)
			}
		}
		if p := peak.Load(); p > int64(w) {
			t.Errorf("w=%d: %d calls ran at once", w, p)
		}
	}
}

// TestRunPullsLargestFirst records the order in which parallel calls
// start. Workers pull in dispatch order, and at most w−1 other pulled
// calls can still be on their way to starting, so the call recorded k-th
// is at most w−1 places later in the dispatch order.
func TestRunPullsLargestFirst(t *testing.T) {
	const n = 12
	for _, w := range []int{2, 4} {
		var mu sync.Mutex
		var started []int
		Run(n, w, func(i int) int { return i }, func(i int) bool {
			mu.Lock()
			started = append(started, i)
			mu.Unlock()
			return true
		})
		for k, i := range started {
			if pos := n - 1 - i; pos > k+w-1 {
				t.Errorf("w=%d: index %d (dispatch position %d) started %d-th; order %v", w, i, pos, k, started)
			}
		}
	}
}
