// Package pool is the module's one bounded worker pool. The paper
// sweeps, the fault campaigns, Table 2 and the facade's chain fleet all
// fan their independent indices out through Run, and each keeps its own
// in-order merge, so what they return never depends on the width.
package pool

import (
	"cmp"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// Width resolves a Parallel knob to a worker count: 0 or 1 means one
// worker, N > 1 up to N, and a negative value every CPU. The result is
// always in [1, GOMAXPROCS].
func Width(parallel int) int {
	procs := runtime.GOMAXPROCS(0)
	if parallel < 0 || parallel > procs {
		return procs
	}
	return max(parallel, 1)
}

// Run calls fn(i) at most once for each i in [0, n) and returns when
// every call has returned.
//
// With w <= 1 (or n <= 1) the calls run in input order on the calling
// goroutine, and Run stops after the first one that returns false: later
// indices never run, like a serial loop that stops at its first error.
//
// Otherwise min(w, n) workers pull indices in descending order of
// cost(i), ties in input order, and every index runs whatever fn
// returns. Dispatching the largest first keeps one big index from
// starting last and setting the tail. A nil cost dispatches in input
// order. fn must be safe to call from several goroutines at once.
func Run(n, w int, cost func(i int) int, fn func(i int) bool) {
	if w <= 1 || n <= 1 {
		for i := 0; i < n && fn(i); i++ {
		}
		return
	}
	order := dispatchOrder(n, cost)
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(w, n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := int(next.Add(1) - 1); j < n; j = int(next.Add(1) - 1) {
				fn(order[j])
			}
		}()
	}
	wg.Wait()
}

// dispatchOrder lists [0, n) by descending cost, ties in input order.
func dispatchOrder(n int, cost func(i int) int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	if cost != nil {
		slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(cost(b), cost(a)) })
	}
	return order
}
