package sched

import (
	"math/rand"
	"reflect"
	"testing"
)

// randomLoads builds a chain of up to 24 nodes with varied aliveness,
// backlog, capacity, and speed. One node in four carries a backlog of up to
// 95 tasks and one in four up to 47 tasks of capacity, so leftovers reach
// the tens the simulator sees in low-power regimes; speeds span the floor
// (0 → 1 tick) to the simulator's multi-second fog tasks.
func randomLoads(rng *rand.Rand) []NodeLoad {
	n := rng.Intn(24) + 1
	nodes := make([]NodeLoad, n)
	for i := range nodes {
		tasks, capacity, ticks := rng.Intn(8), rng.Intn(6), rng.Intn(5)
		if rng.Intn(4) == 0 {
			tasks = rng.Intn(96)
		}
		if rng.Intn(4) == 0 {
			capacity = rng.Intn(48)
		}
		if rng.Intn(2) == 0 {
			ticks = rng.Intn(9000)
		}
		nodes[i] = NodeLoad{
			Alive:        rng.Intn(4) != 0,
			Tasks:        tasks,
			Capacity:     capacity,
			TicksPerTask: ticks,
		}
	}
	return nodes
}

// randomMaxTime draws a balancing interval: up to the simulator's
// 12 000-tick slot, with the unquantised (≤ 256), the exact slot and the
// rejected (≤ 0) cases all represented.
func randomMaxTime(rng *rand.Rand) int {
	switch rng.Intn(8) {
	case 0:
		return rng.Intn(256) + 1
	case 1:
		return 12000
	case 2:
		return -rng.Intn(2)
	}
	return rng.Intn(12000) + 1
}

// samePlan is reflect.DeepEqual with an empty Moves list equal to a nil
// one: a reused scratch hands its move buffer back emptied, not nil.
func samePlan(a, b Plan) bool {
	if len(a.Moves) == 0 && len(b.Moves) == 0 {
		a.Moves, b.Moves = nil, nil
	}
	return reflect.DeepEqual(a, b)
}

// TestPlanScratchMatchesPlan is the planners' contract: for every balancer,
// Plan on a reused scratch and Plan on a fresh scratch must both return
// exactly the plan the reference implementation returns — same RNG draws,
// same moves, same counters — across many rounds, including rounds with
// interruption.
// The references run the general Algorithm 1 DP where Distributed runs its
// closed form.
func TestPlanScratchMatchesPlan(t *testing.T) {
	balancers := []struct {
		ref  func() refPlanner
		prod func() Balancer
	}{
		{func() refPlanner { return refNone{} }, func() Balancer { return NoBalance{} }},
		{func() refPlanner { return refDistributed{} }, func() Balancer { return Distributed{} }},
		{func() refPlanner { return refDistributed{MaxRounds: 1} }, func() Balancer { return Distributed{MaxRounds: 1} }},
		{func() refPlanner { return refTree{} }, func() Balancer { return BaselineTree{} }},
		{func() refPlanner { return &refLease{inner: refDistributed{}} }, func() Balancer { return &Lease{Inner: Distributed{}} }},
		{func() refPlanner { return &refLease{inner: refTree{}} }, func() Balancer { return &Lease{Inner: BaselineTree{}} }},
	}
	for _, bc := range balancers {
		ref, scratched, plain := bc.ref(), bc.prod(), bc.prod()
		t.Run(plain.Name(), func(t *testing.T) {
			gen := rand.New(rand.NewSource(42))
			rngRef := rand.New(rand.NewSource(7))
			rngScratch := rand.New(rand.NewSource(7))
			rngPlain := rand.New(rand.NewSource(7))
			var s Scratch
			for round := 0; round < 300; round++ {
				nodes := randomLoads(gen)
				maxTime := randomMaxTime(gen)
				var interruption float64
				switch gen.Intn(4) {
				case 0:
					interruption = 0
				case 1:
					interruption = gen.Float64()
				case 2:
					interruption = 1 // forces Lease rollback
				case 3:
					interruption = 0.3
				}
				want := ref.Plan(nodes, maxTime, interruption, rngRef)
				got := scratched.Plan(&s, nodes, maxTime, interruption, rngScratch)
				if !samePlan(want, got) {
					t.Fatalf("round %d (maxTime=%d intr=%v):\nreference      = %+v\nreused scratch = %+v",
						round, maxTime, interruption, want, got)
				}
				if got := plain.Plan(&Scratch{}, nodes, maxTime, interruption, rngPlain); !samePlan(want, got) {
					t.Fatalf("round %d (maxTime=%d intr=%v):\nreference     = %+v\nfresh scratch = %+v",
						round, maxTime, interruption, want, got)
				}
			}
			if l, ok := scratched.(*Lease); ok && l.Retries != ref.(*refLease).retries {
				t.Fatalf("lease retries %d, reference %d", l.Retries, ref.(*refLease).retries)
			}
		})
	}
}

// TestPlanScratchSteadyStateAllocs pins a reused scratch's per-round
// allocation budget. The plan's Exec, Leftover and Moves live in the
// scratch with every working buffer, so once the warm-up round has grown
// them to high-water size a round allocates nothing; any regression in the
// scratch plumbing trips it.
func TestPlanScratchSteadyStateAllocs(t *testing.T) {
	nodes := []NodeLoad{
		{Alive: true, Tasks: 6, Capacity: 2, TicksPerTask: 2},
		{Alive: true, Tasks: 0, Capacity: 4, TicksPerTask: 1},
		{Alive: true, Tasks: 5, Capacity: 1, TicksPerTask: 3},
		{Alive: true, Tasks: 0, Capacity: 5, TicksPerTask: 1},
	}
	bal := Distributed{}
	var s Scratch
	rng := rand.New(rand.NewSource(1))
	// Warm the scratch to high-water size.
	bal.Plan(&s, nodes, 4000, 0, rng)
	allocs := testing.AllocsPerRun(200, func() {
		bal.Plan(&s, nodes, 4000, 0, rng)
	})
	// Budget: 0, as measured in both the normal and the race build.
	if allocs > 0 {
		t.Fatalf("Plan steady-state allocs = %v, want 0", allocs)
	}
}
