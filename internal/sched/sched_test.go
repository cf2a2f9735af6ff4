package sched

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAssignTrivial(t *testing.T) {
	sides, makespan, err := Assign(nil, nil, 10)
	if err != nil || len(sides) != 0 || makespan != 0 {
		t.Fatalf("empty assign = %v,%d,%v", sides, makespan, err)
	}
	// One task: goes to the cheaper side.
	sides, makespan, err = Assign([]int{5}, []int{3}, 100)
	if err != nil || sides[0] != Right || makespan != 3 {
		t.Fatalf("single task: %v,%d,%v", sides, makespan, err)
	}
	sides, makespan, err = Assign([]int{2}, []int{3}, 100)
	if err != nil || sides[0] != Left || makespan != 2 {
		t.Fatalf("single task: %v,%d,%v", sides, makespan, err)
	}
}

func TestAssignErrors(t *testing.T) {
	if _, _, err := Assign([]int{1}, []int{1, 2}, 10); err == nil {
		t.Fatal("mismatched arrays must error")
	}
	if _, _, err := Assign([]int{0}, []int{1}, 10); err == nil {
		t.Fatal("zero task time must error")
	}
	if _, _, err := Assign([]int{1}, []int{1}, 0); err == nil {
		t.Fatal("zero maxTime must error")
	}
}

// The paper's worked example: node 4 has four surplus tasks; with equal
// neighbours, Algorithm 1 splits two and two.
func TestAssignPaperExample(t *testing.T) {
	a := []int{3, 3, 3, 3}
	b := []int{3, 3, 3, 3}
	sides, makespan, err := Assign(a, b, 100)
	if err != nil {
		t.Fatal(err)
	}
	var l, r int
	for _, s := range sides {
		if s == Left {
			l++
		} else {
			r++
		}
	}
	if l != 2 || r != 2 || makespan != 6 {
		t.Fatalf("split %d/%d makespan %d, want 2/2 at 6", l, r, makespan)
	}
}

// Exhaustive optimality check against brute force for small instances.
func TestAssignOptimalProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		n := len(raw) / 2
		if n == 0 {
			return true
		}
		if n > 10 {
			n = 10
		}
		a := make([]int, n)
		b := make([]int, n)
		for k := 0; k < n; k++ {
			a[k] = int(raw[k]%9) + 1
			b[k] = int(raw[n+k]%9) + 1
		}
		sides, makespan, err := Assign(a, b, 200)
		if err != nil {
			return false
		}
		if Makespan(a, b, sides) != makespan {
			return false
		}
		best := 1 << 30
		for mask := 0; mask < 1<<n; mask++ {
			var l, r int
			for k := 0; k < n; k++ {
				if mask>>k&1 == 0 {
					l += a[k]
				} else {
					r += b[k]
				}
			}
			m := l
			if r > m {
				m = r
			}
			if m < best {
				best = m
			}
		}
		return makespan == best
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// maxTime caps the left side's schedule (the DP table height).
func TestAssignRespectsMaxTime(t *testing.T) {
	a := []int{5, 5, 5, 5}
	b := []int{50, 50, 50, 50}
	sides, _, err := Assign(a, b, 10)
	if err != nil {
		t.Fatal(err)
	}
	var leftTicks int
	for k, s := range sides {
		if s == Left {
			leftTicks += a[k]
		}
	}
	if leftTicks > 10 {
		t.Fatalf("left schedule %d exceeds maxTime 10", leftTicks)
	}
}

func chainOf(loads ...NodeLoad) []NodeLoad { return loads }

func alive(tasks, capacity, ticks int) NodeLoad {
	return NodeLoad{Alive: true, Tasks: tasks, Capacity: capacity, TicksPerTask: ticks}
}

func dead(tasks int) NodeLoad { return NodeLoad{Alive: false, Tasks: tasks} }

func totalExec(p Plan) int {
	s := 0
	for _, v := range p.Exec {
		s += v
	}
	return s
}

func conserved(nodes []NodeLoad, p Plan) bool {
	var want, got int
	for _, n := range nodes {
		want += n.Tasks
	}
	for i := range p.Exec {
		got += p.Exec[i] + p.Leftover[i]
	}
	return want == got
}

func TestNoBalance(t *testing.T) {
	nodes := chainOf(alive(5, 2, 1), dead(3), alive(0, 4, 1))
	p := NoBalance{}.Plan(&Scratch{}, nodes, 100, 0, rand.New(rand.NewSource(1)))
	if p.Exec[0] != 2 || p.Leftover[0] != 3 {
		t.Fatalf("node 0: %+v", p)
	}
	if p.Exec[1] != 0 || p.Leftover[1] != 3 {
		t.Fatalf("dead node: %+v", p)
	}
	if p.Exec[2] != 0 || len(p.Moves) != 0 {
		t.Fatalf("idle node must stay idle: %+v", p)
	}
	if !conserved(nodes, p) {
		t.Fatal("tasks not conserved")
	}
}

// The Fig. 6 situation: an overloaded node sheds work to both neighbours,
// and a second round pushes past a saturated neighbour.
func TestDistributedSpillsBothWays(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	nodes := chainOf(
		alive(0, 2, 1), // spare 2
		alive(6, 2, 1), // overloaded by 4
		alive(0, 2, 1), // spare 2
	)
	p := Distributed{}.Plan(&Scratch{}, nodes, 1000, 0, rng)
	if totalExec(p) != 6 {
		t.Fatalf("all 6 tasks should run: %+v", p)
	}
	if p.Exec[0] != 2 || p.Exec[1] != 2 || p.Exec[2] != 2 {
		t.Fatalf("expected 2/2/2 split: %+v", p.Exec)
	}
	if !conserved(nodes, p) {
		t.Fatal("tasks not conserved")
	}
}

func TestDistributedSecondRoundPushesOutward(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	// Fig. 6(d)'s node 8 → node 10 case: the immediate neighbour fills up
	// and the surplus travels further along the chain.
	nodes := chainOf(
		alive(9, 1, 1), // node 8: heavily overloaded
		alive(0, 2, 1), // node 9: small spare
		alive(0, 9, 1), // node 10: big spare
	)
	p := Distributed{}.Plan(&Scratch{}, nodes, 1000, 0, rng)
	if totalExec(p) != 9 {
		t.Fatalf("all 9 tasks should run: exec=%v leftover=%v", p.Exec, p.Leftover)
	}
	if p.Exec[2] == 0 {
		t.Fatal("second round should reach node 10")
	}
	if !conserved(nodes, p) {
		t.Fatal("tasks not conserved")
	}
}

func TestDistributedPrefersFasterSide(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	nodes := chainOf(
		alive(0, 4, 8), // slow left neighbour
		alive(4, 0, 1), // all tasks must move
		alive(0, 4, 1), // fast right neighbour
	)
	p := Distributed{}.Plan(&Scratch{}, nodes, 1000, 0, rng)
	if p.Exec[2] <= p.Exec[0] {
		t.Fatalf("faster side should get more work: %+v", p.Exec)
	}
	if totalExec(p) != 4 {
		t.Fatalf("all tasks should run: %+v", p)
	}
}

func TestDistributedInterruption(t *testing.T) {
	nodes := chainOf(alive(0, 5, 1), alive(6, 1, 1), alive(0, 5, 1))
	// interruption = 1: every balancing attempt dies; no moves happen, but
	// functionality is preserved (local execution still runs).
	p := Distributed{}.Plan(&Scratch{}, nodes, 1000, 1.0, rand.New(rand.NewSource(5)))
	if len(p.Moves) != 0 {
		t.Fatalf("interrupted balancer must not move tasks: %+v", p.Moves)
	}
	if p.Exec[1] != 1 || p.Leftover[1] != 5 {
		t.Fatalf("local execution must continue: %+v", p)
	}
	if p.BalanceRuns == 0 {
		t.Fatal("balance attempts should be counted")
	}
}

func TestBaselineTreeBalances(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	nodes := chainOf(
		alive(8, 3, 1), alive(0, 3, 1), alive(0, 3, 1), alive(0, 3, 1),
	)
	p := BaselineTree{}.Plan(&Scratch{}, nodes, 1000, 0, rng)
	if totalExec(p) < 8 {
		t.Fatalf("tree should level 8 tasks across 12 capacity: %+v", p)
	}
	if !conserved(nodes, p) {
		t.Fatal("tasks not conserved")
	}
}

// Fig. 6(c): when the coordinator is down, its segment misses balancing —
// the proposed scheme still balances it.
func TestDeadCoordinatorFailureMode(t *testing.T) {
	// 4-node chain; the root coordinator (index 2) and the left subtree's
	// coordinator (index 1) are both dead, so the baseline tree cannot
	// move node 0's surplus anywhere, while the distributed scheme walks
	// the chain to the spare capacity on the right.
	nodes := chainOf(
		alive(6, 1, 1), dead(0), dead(0), alive(0, 5, 1),
	)
	rng := rand.New(rand.NewSource(7))
	tree := BaselineTree{}.Plan(&Scratch{}, nodes, 1000, 0, rng)
	dist := Distributed{}.Plan(&Scratch{}, nodes, 1000, 0, rng)
	if totalExec(tree) >= totalExec(dist) {
		t.Fatalf("distributed (%d) should beat tree with dead coordinator (%d)",
			totalExec(dist), totalExec(tree))
	}
	if totalExec(dist) != 6 {
		t.Fatalf("distributed should place all 6 tasks: %+v", dist)
	}
}

// Property: all balancers conserve tasks, never exceed capacity, and never
// assign work to dead nodes, across random chains.
func TestBalancersInvariantsProperty(t *testing.T) {
	balancers := []Balancer{NoBalance{}, Distributed{}, BaselineTree{}}
	f := func(raw []uint8, seed int64) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 20 {
			raw = raw[:20]
		}
		nodes := make([]NodeLoad, len(raw))
		for i, v := range raw {
			nodes[i] = NodeLoad{
				Alive:        v%5 != 0,
				Tasks:        int(v % 4),
				Capacity:     int(v / 4 % 5),
				TicksPerTask: int(v%3) + 1,
			}
		}
		rng := rand.New(rand.NewSource(seed))
		for _, bal := range balancers {
			p := bal.Plan(&Scratch{}, nodes, 500, 0.1, rng)
			if !conserved(nodes, p) {
				return false
			}
			for i, n := range nodes {
				if p.Exec[i] < 0 || p.Leftover[i] < 0 {
					return false
				}
				if !n.Alive && p.Exec[i] > 0 {
					return false
				}
				if n.Alive && p.Exec[i] > n.Capacity {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// The headline §3.2 property: with imbalanced energy, the proposed
// balancer completes far more tasks than no balancing, and at least as
// many as the baseline tree across random scenarios.
func TestDistributedBeatsAlternatives(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	var distTotal, treeTotal, noneTotal int
	for trial := 0; trial < 200; trial++ {
		nodes := make([]NodeLoad, 10)
		for i := range nodes {
			nodes[i] = NodeLoad{
				Alive:        rng.Float64() < 0.85,
				Tasks:        1,
				Capacity:     rng.Intn(4),
				TicksPerTask: rng.Intn(3) + 1,
			}
		}
		seedPlan := rand.New(rand.NewSource(int64(trial)))
		distTotal += totalExec(Distributed{}.Plan(&Scratch{}, nodes, 500, 0.05, seedPlan))
		treeTotal += totalExec(BaselineTree{}.Plan(&Scratch{}, nodes, 500, 0.05, seedPlan))
		noneTotal += totalExec(NoBalance{}.Plan(&Scratch{}, nodes, 500, 0.05, seedPlan))
	}
	t.Logf("totals over 200 trials: distributed=%d tree=%d none=%d", distTotal, treeTotal, noneTotal)
	if distTotal <= treeTotal || treeTotal <= noneTotal {
		t.Fatalf("expected distributed > tree > none, got %d/%d/%d",
			distTotal, treeTotal, noneTotal)
	}
}

// The lease protocol: a round certain to abort rolls back to the local
// plan atomically (no moves, no partial application) and the next
// invocation is counted as its retry.
func TestLeaseRollbackAndRetry(t *testing.T) {
	loads := []NodeLoad{
		{Alive: true, Tasks: 6, Capacity: 1, TicksPerTask: 2},
		{Alive: true, Tasks: 0, Capacity: 5, TicksPerTask: 2},
		{Alive: true, Tasks: 0, Capacity: 5, TicksPerTask: 2},
	}
	l := &Lease{Inner: Distributed{}}
	rng := rand.New(rand.NewSource(1))

	p := l.Plan(&Scratch{}, loads, 100, 1, rng) // BalanceAbort: interruption forced to 1
	if !p.RolledBack || len(p.Moves) != 0 {
		t.Fatalf("aborted round: %+v, want rolled-back plan with no moves", p)
	}
	if p.Exec[0] != 1 || p.Leftover[0] != 5 {
		t.Fatalf("rolled-back plan executes %d / strands %d at node 0, want 1 / 5", p.Exec[0], p.Leftover[0])
	}
	if l.Retries != 0 {
		t.Fatalf("Retries = %d before the retry round, want 0", l.Retries)
	}

	p = l.Plan(&Scratch{}, loads, 100, 0, rng) // the automatic retry
	if p.RolledBack || len(p.Moves) == 0 {
		t.Fatalf("retry round: %+v, want committed moves", p)
	}
	if l.Retries != 1 {
		t.Fatalf("Retries = %d after the retry round, want 1", l.Retries)
	}
	if l.Name() != "lease+neofog-distributed" {
		t.Fatalf("Name = %q", l.Name())
	}
}

// Partial interruptions keep per-region atomicity and are now visible on
// the plan.
func TestPlanCountsInterruptions(t *testing.T) {
	loads := []NodeLoad{
		{Alive: true, Tasks: 6, Capacity: 1, TicksPerTask: 2},
		{Alive: true, Tasks: 6, Capacity: 1, TicksPerTask: 2},
		{Alive: true, Tasks: 0, Capacity: 20, TicksPerTask: 2},
	}
	for _, bal := range []Balancer{Distributed{}, BaselineTree{}} {
		rng := rand.New(rand.NewSource(5))
		p := bal.Plan(&Scratch{}, loads, 100, 0.99, rng)
		if p.Interrupted == 0 {
			t.Fatalf("%s: near-certain interruption left Interrupted = 0 (%d runs)", bal.Name(), p.BalanceRuns)
		}
		if p.Interrupted > p.BalanceRuns {
			t.Fatalf("%s: Interrupted %d exceeds BalanceRuns %d", bal.Name(), p.Interrupted, p.BalanceRuns)
		}
	}
}
