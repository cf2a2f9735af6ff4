package virt

import (
	"math/rand"
	"testing"
	"testing/quick"

	"neofog/internal/mesh"
)

func TestResponsibleRoundRobin(t *testing.T) {
	l := LogicalNode{ID: 0, Clones: []int{10, 20, 30}}
	want := []int{10, 20, 30, 10, 20, 30}
	for tick, w := range want {
		if got := l.Responsible(tick); got != w {
			t.Fatalf("tick %d: responsible = %d, want %d", tick, got, w)
		}
	}
	if l.Responsible(-1) != 30 {
		t.Fatal("negative tick should wrap")
	}
	if l.Multiplexing() != 3 {
		t.Fatal("multiplexing = 3")
	}
}

func TestPhaseOf(t *testing.T) {
	l := LogicalNode{Clones: []int{4, 7}}
	if l.PhaseOf(7) != 1 || l.PhaseOf(4) != 0 || l.PhaseOf(9) != -1 {
		t.Fatal("PhaseOf wrong")
	}
}

func TestBuildCloneSets(t *testing.T) {
	// Two anchors at x=0 and x=10; extras near each.
	pos := []mesh.Position{
		{X: 0}, {X: 10}, // anchors
		{X: 1}, {X: 9}, {X: 0.5}, // joiners
	}
	sets, err := BuildCloneSets(pos, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(sets) != 2 {
		t.Fatalf("sets = %d", len(sets))
	}
	if sets[0].Multiplexing() != 3 || sets[1].Multiplexing() != 2 {
		t.Fatalf("multiplexing = %d/%d, want 3/2", sets[0].Multiplexing(), sets[1].Multiplexing())
	}
	if sets[0].Clones[0] != 0 || sets[1].Clones[0] != 1 {
		t.Fatal("anchors must stay at phase 0")
	}
}

func TestBuildCloneSetsErrors(t *testing.T) {
	if _, err := BuildCloneSets([]mesh.Position{{}}, 0); err == nil {
		t.Fatal("zero anchors should error")
	}
	if _, err := BuildCloneSets([]mesh.Position{{}}, 2); err == nil {
		t.Fatal("anchors beyond positions should error")
	}
}

// Property: over any horizon, the slots owned by all phases partition the
// horizon exactly, and each phase owns ~1/m of it.
func TestSlotsOwnedPartitionProperty(t *testing.T) {
	f := func(mRaw, hRaw uint8) bool {
		m := int(mRaw%5) + 1
		horizon := int(hRaw) + 1
		total := 0
		for k := 0; k < m; k++ {
			owned := SlotsOwned(m, k, horizon)
			if owned < horizon/m || owned > horizon/m+1 {
				return false
			}
			total += owned
		}
		return total == horizon
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Responsible covers each clone equally over a full cycle, and
// matches SlotsOwned bookkeeping.
func TestResponsibleMatchesSlots(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		m := rng.Intn(5) + 1
		clones := make([]int, m)
		for i := range clones {
			clones[i] = 100 + i
		}
		l := LogicalNode{Clones: clones}
		horizon := rng.Intn(40) + 1
		counts := map[int]int{}
		for tick := 0; tick < horizon; tick++ {
			counts[l.Responsible(tick)]++
		}
		for k, phys := range clones {
			if counts[phys] != SlotsOwned(m, k, horizon) {
				t.Fatalf("m=%d k=%d horizon=%d: counts=%v", m, k, horizon, counts)
			}
		}
	}
}

// Fig. 8: rotated chains activate different clone phases at every slot, so
// m consecutive chains cover all m phases each round.
func TestRotateForChainStaggersPhases(t *testing.T) {
	base := LogicalNode{ID: 0, Clones: []int{0, 1, 2, 3, 4}}
	const chains = 5
	for slot := 0; slot < 20; slot++ {
		seen := map[int]bool{}
		for c := 0; c < chains; c++ {
			phys := base.RotateForChain(c).Responsible(slot)
			if seen[phys] {
				t.Fatalf("slot %d: chains collide on clone %d", slot, phys)
			}
			seen[phys] = true
		}
		if len(seen) != chains {
			t.Fatalf("slot %d: %d distinct clones, want %d", slot, len(seen), chains)
		}
	}
	// Rotation preserves membership and handles wrap/negative chains.
	r := base.RotateForChain(7)
	if r.Multiplexing() != 5 || r.PhaseOf(0) == -1 {
		t.Fatalf("rotation lost members: %+v", r)
	}
	if got := base.RotateForChain(-3).Multiplexing(); got != 5 {
		t.Fatalf("negative chain rotation broken: %d", got)
	}
}

// AppendWakeOrder starts at the slot owner and walks the phases in failover
// order, for any tick sign.
func TestWakeOrder(t *testing.T) {
	set := LogicalNode{ID: 0, Clones: []int{10, 20, 30}}
	for tick := -7; tick < 9; tick++ {
		order := set.AppendWakeOrder(nil, tick)
		if order[0] != set.Responsible(tick) {
			t.Fatalf("tick %d: order starts at %d, want slot owner %d", tick, order[0], set.Responsible(tick))
		}
		seen := map[int]bool{}
		for _, p := range order {
			if seen[p] {
				t.Fatalf("tick %d: clone %d appears twice in %v", tick, p, order)
			}
			seen[p] = true
		}
		if len(order) != 3 {
			t.Fatalf("tick %d: order %v misses clones", tick, order)
		}
	}
	// The failover successor is the next phase: if 20 owns the slot, 30
	// detects the missed beacon first.
	order := set.AppendWakeOrder(nil, 1)
	if order[0] != 20 || order[1] != 30 || order[2] != 10 {
		t.Fatalf("AppendWakeOrder(nil, 1) = %v, want [20 30 10]", order)
	}
}

// SlotsOwned reports how many of the next `horizon` ticks belong to phase
// k of an m-clone set — the per-physical-node duty factor 1/m.
func SlotsOwned(m, k, horizon int) int {
	if m <= 0 || k < 0 || k >= m {
		panic("virt: bad slot parameters")
	}
	full := horizon / m
	if horizon%m > k {
		full++
	}
	return full
}
