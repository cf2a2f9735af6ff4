package sched

import (
	"errors"
	"fmt"
	"math/rand"
)

// The reference balancers: the allocating, table-driven implementations
// the production planners must match exactly (TestPlanScratchMatchesPlan).
// refDistributed runs the general Algorithm 1 DP (Assign) on quantised
// per-task vectors where production uses splitUniform; refTree keeps its
// visibility as a map where production uses a sentinel slice.

// refBasePlan is basePlan on freshly allocated Exec and Leftover slices,
// with no scratch to reuse.
func refBasePlan(nodes []NodeLoad) Plan {
	p := Plan{Exec: make([]int, len(nodes)), Leftover: make([]int, len(nodes))}
	for i, n := range nodes {
		if !n.Alive {
			p.Leftover[i] = n.Tasks
			continue
		}
		ex := n.Tasks
		if ex > n.Capacity {
			ex = n.Capacity
		}
		p.Exec[i] = ex
		p.Leftover[i] = n.Tasks - ex
	}
	return p
}

type refDistributed struct{}

func (d refDistributed) Plan(nodes []NodeLoad, maxTime int, interruption float64, rng *rand.Rand) Plan {
	p := refBasePlan(nodes)
	n := len(nodes)

	spare := make([]int, n)
	speed := make([]int, n)
	for i, nd := range nodes {
		if nd.Alive {
			spare[i] = nd.Capacity - nd.Tasks
		}
		speed[i] = nd.TicksPerTask
		if speed[i] <= 0 {
			speed[i] = 1
		}
	}

	for round := 0; round < distributedRounds; round++ {
		moved := false
		for i := 0; i < n; i++ {
			if !nodes[i].Alive || p.Leftover[i] == 0 {
				continue
			}
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
			a := make([]int, m)
			b := make([]int, m)
			for k := 0; k < m; k++ {
				a[k] = sideTicks(speed, left)
				b[k] = sideTicks(speed, right)
			}
			quantA, quantB, quantMax := quantise(a, b, maxTime, 256)
			sides, _, err := Assign(quantA, quantB, quantMax)
			if err != nil {
				continue
			}
			wantLeft, wantRight := countSides(sides)
			if left == -1 {
				wantRight, wantLeft = wantLeft+wantRight, 0
			}
			if right == -1 {
				wantLeft, wantRight = wantLeft+wantRight, 0
			}
			moved = Distributed{}.give(&p, spare, i, left, wantLeft) || moved
			moved = Distributed{}.give(&p, spare, i, right, wantRight) || moved
		}
		if !moved {
			break
		}
	}
	return p
}

func countSides(sides []Side) (left, right int) {
	for _, s := range sides {
		if s == Left {
			left++
		} else {
			right++
		}
	}
	return left, right
}

// quantise rescales task times and the interval budget so that maxTime is
// at most `limit` ticks, flooring each task at one tick.
func quantise(a, b []int, maxTime, limit int) ([]int, []int, int) {
	if maxTime <= limit {
		return a, b, maxTime
	}
	scale := (maxTime + limit - 1) / limit
	qa := make([]int, len(a))
	qb := make([]int, len(b))
	for k := range a {
		qa[k] = max(1, a[k]/scale)
		qb[k] = max(1, b[k]/scale)
	}
	return qa, qb, maxTime / scale
}

// absentSide is the per-task time the reference gives an absent neighbour:
// maximally unattractive rather than illegal, so that Assign still produces
// a total assignment (the caller then redirects).
const absentSide = 1 << 20

func sideTicks(speed []int, idx int) int {
	if idx < 0 {
		return absentSide
	}
	return speed[idx]
}

type refTree struct{}

func (refTree) Plan(nodes []NodeLoad, _ int, interruption float64, rng *rand.Rand) Plan {
	p := refBasePlan(nodes)
	tasks := make([]int, len(nodes))
	up := make([]bool, len(nodes))
	for i, nd := range nodes {
		tasks[i] = nd.Tasks
		up[i] = nd.Alive
	}

	var visible func(lo, hi int) []int
	visible = func(lo, hi int) []int {
		if hi-lo <= 0 {
			return nil
		}
		if hi-lo == 1 {
			if up[lo] {
				return []int{lo}
			}
			return nil
		}
		mid := (lo + hi) / 2
		if !up[mid] {
			return nil
		}
		return append(visible(lo, mid), visible(mid, hi)...)
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
			balance(lo, mid)
			balance(mid, hi)
			return
		}
		vis := visible(lo, hi)
		shares := map[int]int{}
		surplus := 0
		for _, i := range vis {
			keep := min(tasks[i], nodes[i].Capacity)
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
			take := min(room, surplus)
			shares[i] += take
			surplus -= take
		}
		for _, i := range vis {
			if surplus == 0 {
				break
			}
			if extra := tasks[i] - shares[i]; extra > 0 {
				take := min(extra, surplus)
				shares[i] += take
				surplus -= take
			}
		}
		refPairMoves(&p, tasks, shares, lo, hi)
	}
	balance(0, len(nodes))

	for i, nd := range nodes {
		if !nd.Alive {
			p.Exec[i], p.Leftover[i] = 0, tasks[i]
			continue
		}
		ex := min(tasks[i], nd.Capacity)
		p.Exec[i] = ex
		p.Leftover[i] = tasks[i] - ex
	}
	return p
}

func refPairMoves(p *Plan, tasks []int, shares map[int]int, lo, hi int) {
	var donors, receivers []flow
	for i := lo; i < hi; i++ {
		share, ok := shares[i]
		if !ok {
			continue
		}
		switch d := tasks[i] - share; {
		case d > 0:
			donors = append(donors, flow{i, d})
		case d < 0:
			receivers = append(receivers, flow{i, -d})
		}
		tasks[i] = share
	}
	di, ri := 0, 0
	for di < len(donors) && ri < len(receivers) {
		n := min(donors[di].amt, receivers[ri].amt)
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

type refPlanner interface {
	Plan(nodes []NodeLoad, maxTime int, interruption float64, rng *rand.Rand) Plan
}

// refNone is NoBalance, which has no working state to reuse.
type refNone struct{}

func (refNone) Plan(nodes []NodeLoad, _ int, _ float64, _ *rand.Rand) Plan { return refBasePlan(nodes) }

// refLease is Lease's protocol over a reference inner balancer.
type refLease struct {
	inner   refPlanner
	retries int
	pending bool
}

func (l *refLease) Plan(nodes []NodeLoad, maxTime int, interruption float64, rng *rand.Rand) Plan {
	if l.pending {
		l.retries++
		l.pending = false
	}
	if interruption >= 1 {
		p := refBasePlan(nodes)
		p.RolledBack = true
		l.pending = true
		return p
	}
	return l.inner.Plan(nodes, maxTime, interruption, rng)
}

// Side says which neighbour a task is assigned to.
type Side int

// Assignment sides.
const (
	Left Side = iota
	Right
)

func (s Side) String() string {
	if s == Left {
		return "left"
	}
	return "right"
}

// Assign solves Algorithm 1. a[k] is the time to run task k on the most
// efficient node on the left, b[k] on the right (arbitrary integer ticks;
// the caller picks the quantum). maxTime is the load-balance call interval
// in the same ticks, bounding the left node's schedule length (the DP table
// height, giving the paper's O(n·MAXTIME) complexity). It returns the
// per-task sides and the resulting makespan max(left, right).
//
// The recurrence is the paper's Equation 3:
//
//	OPT(i,k) = min(OPT(i-a[k], k-1), OPT(i, k-1) + b[k])
//
// where OPT(i,k) is the least right-side time to finish the first k tasks
// with at most i ticks of left-side time.
//
// Assign is the general algorithm, for tasks whose times differ. The
// Distributed balancer's tasks are identical, so it runs the closed form
// of this recurrence instead (see splitUniform).
func Assign(a, b []int, maxTime int) ([]Side, int, error) {
	n := len(a)
	if len(b) != n {
		return nil, 0, fmt.Errorf("sched: mismatched task arrays (%d vs %d)", n, len(b))
	}
	if n == 0 {
		return nil, 0, nil
	}
	for k := 0; k < n; k++ {
		if a[k] <= 0 || b[k] <= 0 {
			return nil, 0, fmt.Errorf("sched: non-positive task time at %d", k)
		}
	}
	if maxTime <= 0 {
		return nil, 0, errors.New("sched: non-positive maxTime")
	}

	// Table height: the left side never needs more than Σa or maxTime.
	sa := 0
	for _, v := range a {
		sa += v
	}
	if sa > maxTime {
		sa = maxTime
	}

	const inf = int(^uint(0) >> 2)
	// p[i][k] = least right time for tasks 1..k with left budget i.
	// Column 0 is the empty prefix: zero right time for any budget.
	p := make([][]int, sa+1)
	for i := range p {
		p[i] = make([]int, n+1)
	}
	for i := 0; i <= sa; i++ {
		for k := 1; k <= n; k++ {
			best := p[i][k-1] + b[k-1] // task k on the right
			if i >= a[k-1] {           // or on the left
				if alt := p[i-a[k-1]][k-1]; alt < best {
					best = alt
				}
			}
			p[i][k] = best
			_ = inf
		}
	}

	// Find the budget minimising the makespan max(i, p[i][n]).
	minTime, bestI := inf, 0
	for i := 0; i <= sa; i++ {
		temp := p[i][n]
		if i > temp {
			temp = i
		}
		if temp < minTime {
			minTime, bestI = temp, i
		}
	}

	// Generate the assignment by walking the table back.
	out := make([]Side, n)
	i := bestI
	for k := n; k >= 1; k-- {
		if i >= a[k-1] && p[i-a[k-1]][k-1] <= p[i][k-1]+b[k-1] {
			out[k-1] = Left
			i -= a[k-1]
		} else {
			out[k-1] = Right
		}
	}
	return out, minTime, nil
}

// Makespan evaluates an assignment: the max of total left and right time.
func Makespan(a, b []int, sides []Side) int {
	var l, r int
	for k, s := range sides {
		if s == Left {
			l += a[k]
		} else {
			r += b[k]
		}
	}
	if l > r {
		return l
	}
	return r
}
