// Package sched implements the load-balancing layer of NEOFog (§3.2): the
// paper's Algorithm 1 — a distributed dynamic-programming assignment of a
// node's surplus tasks to its best left/right chain neighbours — plus the
// baseline up-down tree balancer it is compared against and a no-balancing
// control.
package sched

import (
	"errors"
	"fmt"
)

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
