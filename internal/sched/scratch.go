package sched

import "math/rand"

// Scratch holds the working buffers a balancing round needs, so that a
// caller running many rounds (the simulator runs one per slot) can reuse
// them instead of re-allocating. A Scratch is owned by exactly one caller
// at a time: balancers never retain references to its buffers past the
// PlanScratch call, and the returned Plan never aliases scratch memory, so
// plans remain valid after the scratch is reused. The zero value is ready
// to use; buffers grow on demand and are kept at high-water size.
//
// Scratch is not safe for concurrent use. Fleet-style callers must give
// each goroutine its own Scratch (see internal/sim's per-run arena).
type Scratch struct {
	spare         []int
	tasks, shares []int
	up            []bool
	vis           []int
	donors        []flow
	receivers     []flow
}

// ScratchPlanner is implemented by balancers that can run a round against a
// caller-owned Scratch. The contract is strict: the resulting Plan must be
// identical (reflect.DeepEqual) to what Plan would return for the same
// inputs and RNG state — scratch reuse is an allocation optimisation, never
// a behavioural one. Every balancer here meets it by construction: Plan is
// PlanScratch on a fresh Scratch.
type ScratchPlanner interface {
	PlanScratch(s *Scratch, nodes []NodeLoad, maxTime int, interruption float64, rng *rand.Rand) Plan
}

// PlanWith runs one balancing round through the scratch-aware fast path
// when the balancer supports it (and a scratch is supplied), falling back
// to the plain Balancer interface otherwise.
func PlanWith(bal Balancer, s *Scratch, nodes []NodeLoad, maxTime int, interruption float64, rng *rand.Rand) Plan {
	if sp, ok := bal.(ScratchPlanner); ok && s != nil {
		return sp.PlanScratch(s, nodes, maxTime, interruption, rng)
	}
	return bal.Plan(nodes, maxTime, interruption, rng)
}

// growInts returns buf resized to n, reallocating only when capacity is
// short. Contents are unspecified; callers must overwrite or zero.
func growInts(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}

func growBools(buf []bool, n int) []bool {
	if cap(buf) < n {
		return make([]bool, n)
	}
	return buf[:n]
}

// PlanScratch implements ScratchPlanner. NoBalance has no working state, so
// this is Plan verbatim.
func (NoBalance) PlanScratch(_ *Scratch, nodes []NodeLoad, _ int, _ float64, _ *rand.Rand) Plan {
	return basePlan(nodes)
}
