package sched

import (
	"math/rand"
	"testing"
)

// BenchmarkAssign* time the general Algorithm 1 DP (tasks whose times
// differ); the balancer itself runs the closed form for identical tasks.
func BenchmarkAssignSmall(b *testing.B)  { benchAssign(b, 8, 200) }
func BenchmarkAssignMedium(b *testing.B) { benchAssign(b, 32, 256) }
func BenchmarkAssignLarge(b *testing.B)  { benchAssign(b, 64, 256) }

// Ablation: the unquantised DP the balancer would otherwise run per
// invocation (12000-tick budget, the raw slot resolution).
func BenchmarkAssignUnquantised(b *testing.B) { benchAssign(b, 64, 12000) }

func benchAssign(b *testing.B, n, maxTime int) {
	rng := rand.New(rand.NewSource(1))
	a := make([]int, n)
	bb := make([]int, n)
	for i := range a {
		a[i] = rng.Intn(9) + 1
		bb[i] = rng.Intn(9) + 1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Assign(a, bb, maxTime); err != nil {
			b.Fatal(err)
		}
	}
}

// fig13Loads is a Fig. 13-shaped balancing view: a 50-slot chain (10
// nodes at 5× multiplexing) in very low income, where most alive nodes hold
// backlogs in the tens with little capacity and one in five has room.
func fig13Loads(rng *rand.Rand) []NodeLoad {
	nodes := make([]NodeLoad, 50)
	for i := range nodes {
		capacity := rng.Intn(3)
		if rng.Intn(5) == 0 {
			capacity = 20 + rng.Intn(40)
		}
		nodes[i] = NodeLoad{
			Alive:        rng.Float64() < 0.85,
			Tasks:        10 + rng.Intn(50),
			Capacity:     capacity,
			TicksPerTask: rng.Intn(9000) + 1000,
		}
	}
	return nodes
}

// benchPlan times the balancer's production path: Plan over a warm
// scratch, at the simulator's 12 000-tick slot.
func benchPlan(b *testing.B, bal Balancer) {
	rng := rand.New(rand.NewSource(1))
	nodes := fig13Loads(rng)
	var s Scratch
	bal.Plan(&s, nodes, 12000, 0.02, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bal.Plan(&s, nodes, 12000, 0.02, rng)
	}
}

func BenchmarkPlanNone(b *testing.B)        { benchPlan(b, NoBalance{}) }
func BenchmarkPlanTree(b *testing.B)        { benchPlan(b, BaselineTree{}) }
func BenchmarkPlanDistributed(b *testing.B) { benchPlan(b, Distributed{}) }

// BenchmarkPlanDistributedReference is the same round through the
// reference planner's per-invocation Algorithm 1 DP, for the closed form's
// ablation.
func BenchmarkPlanDistributedReference(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	nodes := fig13Loads(rng)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		refDistributed{}.Plan(nodes, 12000, 0.02, rng)
	}
}
