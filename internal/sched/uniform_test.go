package sched

import "testing"

// refUniformLeft is what the reference balancer takes from Algorithm 1 for
// m identical tasks: the Left count of Assign over the quantised task
// vectors, or ok=false when Assign rejects the interval.
func refUniformLeft(a, b, m, maxTime int) (left int, ok bool) {
	av, bv := make([]int, m), make([]int, m)
	for k := range av {
		av[k], bv[k] = a, b
	}
	qa, qb, qMax := quantise(av, bv, maxTime, balanceTicks)
	sides, _, err := Assign(qa, qb, qMax)
	if err != nil {
		return 0, false
	}
	left, _ = countSides(sides)
	return left, true
}

// TestSplitUniformMatchesAssign proves the closed form over a grid: task
// times from the one-tick floor through the quantisation boundary (255,
// 256, 257) to the 1<<20 absent-side cost, every backlog up to 40 tasks,
// and intervals that are rejected (≤ 0), unquantised (≤ 256) and quantised
// (> 256) up to the simulator's 12 000-tick slot. 263 and 5029 are
// intervals where a quantised budget one tick too large changes the split.
func TestSplitUniformMatchesAssign(t *testing.T) {
	costs := []int{1, 2, 3, 5, 13, 64, 255, 256, 257, 1000, absentSide}
	maxTimes := []int{-3, 0, 1, 7, 64, 255, 256, 257, 263, 513, 1000, 4097, 5029, 12000}
	checked := 0
	for _, maxTime := range maxTimes {
		for _, a := range costs {
			for _, b := range costs {
				for m := 1; m <= 40; m++ {
					want, ok := refUniformLeft(a, b, m, maxTime)
					if ok != (maxTime > 0) {
						t.Fatalf("Assign accepted=%v for maxTime %d", ok, maxTime)
					}
					if !ok {
						continue
					}
					if got := splitUniform(a, b, m, maxTime); got != want {
						t.Fatalf("splitUniform(a=%d, b=%d, m=%d, maxTime=%d) = %d, Assign sends %d left",
							a, b, m, maxTime, got, want)
					}
					checked++
				}
			}
		}
	}
	t.Logf("%d instances agree", checked)
}

// FuzzUniformAssign checks the closed form against Assign beyond the grid:
// task times up to the absent-side cost, backlogs up to 200 and intervals
// up to 2^16. Inputs fold into those ranges, keeping in-range values as
// they are.
func FuzzUniformAssign(f *testing.F) {
	f.Add(3, 3, 4, 100)
	f.Add(2000, 9000, 37, 12000)
	f.Add(1, absentSide, 64, 12000)
	f.Add(257, 1, 200, 256)
	f.Add(7, 5, 1, 1)
	f.Fuzz(func(t *testing.T, a, b, m, maxTime int) {
		a = 1 + int(uint(a-1)%absentSide)
		b = 1 + int(uint(b-1)%absentSide)
		m = 1 + int(uint(m-1)%200)
		maxTime = 1 + int(uint(maxTime-1)%(1<<16))
		want, ok := refUniformLeft(a, b, m, maxTime)
		if !ok {
			t.Fatalf("Assign rejected a=%d b=%d m=%d maxTime=%d", a, b, m, maxTime)
		}
		if got := splitUniform(a, b, m, maxTime); got != want {
			t.Fatalf("splitUniform(a=%d, b=%d, m=%d, maxTime=%d) = %d, Assign sends %d left",
				a, b, m, maxTime, got, want)
		}
	})
}
