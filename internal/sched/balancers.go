// Package sched implements the load-balancing layer of NEOFog (§3.2): the
// paper's Algorithm 1 — a distributed dynamic-programming assignment of a
// node's surplus tasks to its best left/right chain neighbours — plus the
// baseline up-down tree balancer it is compared against and a no-balancing
// control.
package sched

import (
	"math/rand"
)

// NodeLoad is the per-node state a balancing round works over. The fields
// mirror what a node shares with its neighbours in the proposed scheme
// (§3.2): whether it woke this period, how many tasks it holds, how many it
// can execute (its available energy and Spendthrift operating point folded
// into a task capacity), and its per-task execution time.
type NodeLoad struct {
	// Alive reports whether the node woke with enough energy to
	// participate this period.
	Alive bool
	// Tasks is the number of fog tasks the node holds (its own sample plus
	// anything already delegated to it).
	Tasks int
	// Capacity is how many tasks the node can execute this period.
	Capacity int
	// TicksPerTask is the node's execution time per task in scheduler
	// ticks, reflecting its Spendthrift frequency level: energy-rich nodes
	// run faster.
	TicksPerTask int
}

// Move records a task delegation for transmission-cost accounting.
type Move struct {
	From, To int
	Count    int
}

// Plan is the outcome of one balancing round.
type Plan struct {
	// Exec[i] is how many tasks node i executes locally this period.
	Exec []int
	// Leftover[i] is how many tasks node i still holds but cannot execute
	// (they are either transmitted raw to the cloud or dropped by the
	// caller's policy).
	Leftover []int
	// Moves lists the delegations performed, nearest-neighbour hops.
	Moves []Move
	// BalanceRuns counts how many local balancing invocations ran.
	BalanceRuns int
	// Interrupted counts the invocations cut short by a power failure: each
	// leaves its own region unbalanced ("no load balance will take place at
	// that region", §3.2) without corrupting the others.
	Interrupted int
	// RolledBack marks a round whose lease never committed (see Lease): the
	// plan is the uninterrupted local-only baseline and the round will be
	// retried at the next invocation.
	RolledBack bool
}

// TotalMoved reports the number of tasks delegated across all moves in the
// plan — the balancer's per-round work volume.
func (p Plan) TotalMoved() int {
	n := 0
	for _, m := range p.Moves {
		n += m.Count
	}
	return n
}

// Balancer plans one period of task placement over a chain.
type Balancer interface {
	Name() string
	// Plan must not mutate nodes. s holds the round's working buffers,
	// and the returned Plan's slices are among them, so the plan is valid
	// until the next Plan call on s (see Scratch). interruption is
	// the probability that any given local balancing invocation is cut
	// short by a power failure ("if load balance algorithm is interrupted,
	// no load balance will take place at that region", §3.2).
	Plan(s *Scratch, nodes []NodeLoad, maxTime int, interruption float64, rng *rand.Rand) Plan
}

// basePlan is the local-only plan every balancer starts from: an alive
// node executes what fits its capacity and holds the rest, a dead node
// holds everything. Its slices are the scratch's (see Scratch).
func basePlan(s *Scratch, nodes []NodeLoad) Plan {
	s.exec = growInts(s.exec, len(nodes))
	s.leftover = growInts(s.leftover, len(nodes))
	p := Plan{Exec: s.exec, Leftover: s.leftover, Moves: s.moves[:0]}
	for i, n := range nodes {
		ex := 0
		if n.Alive {
			ex = min(n.Tasks, n.Capacity)
		}
		p.Exec[i] = ex
		p.Leftover[i] = n.Tasks - ex
	}
	return p
}

// NoBalance executes whatever fits locally and strands the rest.
type NoBalance struct{}

// Name implements Balancer.
func (NoBalance) Name() string { return "none" }

// Plan implements Balancer. NoBalance needs only the plan's own buffers.
func (NoBalance) Plan(s *Scratch, nodes []NodeLoad, _ int, _ float64, _ *rand.Rand) Plan {
	return basePlan(s, nodes)
}

// Distributed is the paper's proposed bottom-up balancer: each overloaded
// node inspects its nearest alive neighbours' shared state and calls
// Algorithm 1 to split its surplus between the best left and right
// candidates; over-assigned neighbours trigger a second round that pushes
// tasks further outward (the node-8-to-node-10 case of Fig. 6d), for at
// most distributedRounds rounds.
type Distributed struct{}

// distributedRounds bounds the outward push; the paper notes several
// rounds may be needed and optimality is not guaranteed.
const distributedRounds = 3

// Name implements Balancer.
func (Distributed) Name() string { return "neofog-distributed" }

// Plan implements Balancer, with the spare-capacity working array drawn
// from the scratch.
func (d Distributed) Plan(s *Scratch, nodes []NodeLoad, maxTime int, interruption float64, rng *rand.Rand) Plan {
	p := basePlan(s, nodes)
	n := len(nodes)

	s.spare = growInts(s.spare, n)
	spare := s.spare
	for i, nd := range nodes {
		spare[i] = 0
		if nd.Alive {
			spare[i] = nd.Capacity - nd.Tasks
		}
	}

	for round := 0; round < distributedRounds; round++ {
		moved := false
		for i := 0; i < n; i++ {
			if !nodes[i].Alive || p.Leftover[i] == 0 {
				continue
			}
			// The balancing program on node i can itself be interrupted by
			// a power failure: no balancing happens in that region.
			p.BalanceRuns++
			if interruption > 0 && rng.Float64() < interruption {
				p.Interrupted++
				continue
			}
			left := nearestWithSpare(nodes, spare, i, -1)
			right := nearestWithSpare(nodes, spare, i, +1)
			if left == -1 && right == -1 {
				continue
			}
			m := p.Leftover[i]
			var wantLeft int
			switch {
			case maxTime <= 0:
				continue // no interval to split: Algorithm 1 rejects it
			case left == -1: // one side may be absent: all go to the other
				wantLeft = 0
			case right == -1:
				wantLeft = m
			default:
				// A node's per-task time is floored at one tick.
				a := max(1, nodes[left].TicksPerTask)
				b := max(1, nodes[right].TicksPerTask)
				wantLeft = splitUniform(a, b, m, maxTime)
			}
			moved = d.give(&p, spare, i, left, wantLeft) || moved
			moved = d.give(&p, spare, i, right, m-wantLeft) || moved
		}
		if !moved {
			break
		}
	}
	s.moves = p.Moves // keep any growth for the next round
	return p
}

// balanceTicks bounds the interval budget Algorithm 1 splits: the
// assignment only depends on time ratios, and the interval needs no better
// than ~1/256 resolution.
const balanceTicks = 256

// splitUniform is Algorithm 1 for the balancer's m identical tasks, each a
// ticks on the left candidate and b on the right, within a maxTime > 0
// interval. It returns how many tasks go left. Times are quantised first:
// a maxTime over balanceTicks is divided by scale = ⌈maxTime/balanceTicks⌉
// and each task floored at one tick.
//
// With identical tasks Equation 3 collapses to OPT(i,m) = b·max(0, m−⌊i/a⌋),
// so the DP's first minimal budget is q*·a, where q* is the smallest
// q ≤ ⌊min(m·a, maxTime)/a⌋ minimising max(q·a, b·(m−q)), and its backtrack
// sends exactly q* tasks left. The right side dominates up to the crossing
// q = b·m/(a+b) and the left after it, so q* is its floor or the next
// integer, clamped to the budget. TestSplitUniformMatchesAssign checks this
// against Assign exhaustively.
func splitUniform(a, b, m, maxTime int) int {
	if maxTime > balanceTicks {
		scale := (maxTime + balanceTicks - 1) / balanceTicks
		a, b, maxTime = max(1, a/scale), max(1, b/scale), maxTime/scale
	}
	hi := min(m, maxTime/a)
	q := b * m / (a + b)
	if q >= hi {
		return hi
	}
	if (q+1)*a < b*(m-q) {
		q++
	}
	return q
}

// give moves up to `count` of i's leftover tasks to neighbour j (bounded by
// j's spare capacity).
func (d Distributed) give(p *Plan, spare []int, i, j, count int) bool {
	if j < 0 || count <= 0 {
		return false
	}
	if count > p.Leftover[i] {
		count = p.Leftover[i]
	}
	if count > spare[j] {
		count = spare[j]
	}
	if count <= 0 {
		return false
	}
	p.Leftover[i] -= count
	p.Exec[j] += count
	spare[j] -= count
	p.Moves = append(p.Moves, Move{From: i, To: j, Count: count})
	return true
}

// nearestWithSpare scans outward in direction dir for the first alive node
// with spare capacity, since the paper's scheme shares state with nearby
// nodes first ("node 4 can know states of its left node 3 before touching
// another energy hungry node 2").
func nearestWithSpare(nodes []NodeLoad, spare []int, i, dir int) int {
	for j := i + dir; j >= 0 && j < len(nodes); j += dir {
		if nodes[j].Alive && spare[j] > 0 {
			return j
		}
	}
	return -1
}

// BaselineTree is the traditional up-down multi-level (binary tree)
// balancer of Fig. 6(c): a coordinator node aggregates its segment's load
// and pushes tasks down proportionally to capacity. When a coordinator
// lacks energy, its whole segment goes unbalanced — the failure mode the
// proposed scheme avoids.
type BaselineTree struct{}

// Name implements Balancer.
func (BaselineTree) Name() string { return "baseline-tree" }

// Plan implements Balancer, with the task, visibility and share arrays
// drawn from the scratch. shares[i] is node i's levelled task count, or -1
// when i is not visible to the current coordinator.
func (BaselineTree) Plan(s *Scratch, nodes []NodeLoad, _ int, interruption float64, rng *rand.Rand) Plan {
	p := basePlan(s, nodes)
	n := len(nodes)
	s.tasks = growInts(s.tasks, n)
	s.up = growBools(s.up, n)
	s.shares = growInts(s.shares, n)
	tasks, up, shares := s.tasks, s.up, s.shares
	for i, nd := range nodes {
		tasks[i] = nd.Tasks
		up[i] = nd.Alive
	}

	// collectVisible appends the nodes of [lo,hi) whose aggregation path
	// of coordinators is intact to s.vis, in ascending order: a dead
	// mid-level coordinator cuts its whole subtree out of the up-phase, so
	// upper levels cannot see (or balance) that region — the Fig. 6(c)
	// failure.
	var collectVisible func(lo, hi int)
	collectVisible = func(lo, hi int) {
		if hi-lo <= 0 {
			return
		}
		if hi-lo == 1 {
			if up[lo] {
				s.vis = append(s.vis, lo)
			}
			return
		}
		mid := (lo + hi) / 2
		if !up[mid] {
			return
		}
		collectVisible(lo, mid)
		collectVisible(mid, hi)
	}

	var balance func(lo, hi int)
	balance = func(lo, hi int) {
		if hi-lo <= 1 {
			return
		}
		mid := (lo + hi) / 2
		p.BalanceRuns++
		coordinatorUp := up[mid]
		if coordinatorUp && interruption > 0 && rng.Float64() < interruption {
			coordinatorUp = false
			p.Interrupted++
		}
		if !coordinatorUp {
			up[mid] = false
			// The halves can still balance internally, but nothing
			// crosses the dead coordinator.
			balance(lo, mid)
			balance(mid, hi)
			return
		}
		// Move only the visible surplus (tasks beyond local capacity)
		// into the visible spare capacity; work that fits where it was
		// sampled stays put, and cut-off subtrees are untouched.
		// A balance call either recurses or levels its span, never both,
		// so one shared visibility buffer per scratch suffices.
		s.vis = s.vis[:0]
		collectVisible(lo, hi)
		vis := s.vis
		for i := lo; i < hi; i++ {
			shares[i] = -1
		}
		surplus := 0
		for _, i := range vis {
			keep := tasks[i]
			if keep > nodes[i].Capacity {
				keep = nodes[i].Capacity
			}
			shares[i] = keep
			surplus += tasks[i] - keep
		}
		for _, i := range vis {
			if surplus == 0 {
				break
			}
			room := nodes[i].Capacity - shares[i]
			if room <= 0 {
				continue
			}
			take := room
			if take > surplus {
				take = surplus
			}
			shares[i] += take
			surplus -= take
		}
		// Unplaceable surplus stays with its holders.
		for _, i := range vis {
			if surplus == 0 {
				break
			}
			if extra := tasks[i] - shares[i]; extra > 0 {
				take := extra
				if take > surplus {
					take = surplus
				}
				shares[i] += take
				surplus -= take
			}
		}
		pairMoves(s, &p, tasks, shares, lo, hi)
	}
	balance(0, n)

	// Re-derive exec/leftover from the levelled task placement.
	for i, nd := range nodes {
		if !nd.Alive {
			p.Exec[i], p.Leftover[i] = 0, tasks[i]
			continue
		}
		ex := tasks[i]
		if ex > nd.Capacity {
			ex = nd.Capacity
		}
		p.Exec[i] = ex
		p.Leftover[i] = tasks[i] - ex
	}
	s.moves = p.Moves // keep any growth for the next round
	return p
}

type flow struct{ idx, amt int }

// pairMoves turns the tree's levelling decision into concrete pairwise
// transfers (donor → receiver) so the caller can charge the radio costs,
// then applies the new task placement. Donors and receivers pair in node
// order; the queues are drawn from the scratch.
func pairMoves(s *Scratch, p *Plan, tasks, shares []int, lo, hi int) {
	s.donors, s.receivers = s.donors[:0], s.receivers[:0]
	for i := lo; i < hi; i++ {
		share := shares[i]
		if share < 0 {
			continue
		}
		switch d := tasks[i] - share; {
		case d > 0:
			s.donors = append(s.donors, flow{i, d})
		case d < 0:
			s.receivers = append(s.receivers, flow{i, -d})
		}
		tasks[i] = share
	}
	donors, receivers := s.donors, s.receivers
	di, ri := 0, 0
	for di < len(donors) && ri < len(receivers) {
		n := donors[di].amt
		if receivers[ri].amt < n {
			n = receivers[ri].amt
		}
		p.Moves = append(p.Moves, Move{From: donors[di].idx, To: receivers[ri].idx, Count: n})
		donors[di].amt -= n
		receivers[ri].amt -= n
		if donors[di].amt == 0 {
			di++
		}
		if receivers[ri].amt == 0 {
			ri++
		}
	}
}
