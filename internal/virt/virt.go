// Package virt implements NVD4Q (Algorithm 2): slotted time-division node
// virtualization for QoS. Extra physical nodes joining a deployment do not
// extend the network (which would inflate hop counts, Fig. 7); instead each
// new node clones the NVRF state of its closest existing node — adopting
// its network identity — and the clones of one logical node take turns
// waking in round-robin phase slots. Each physical node then accumulates
// energy for k RTC intervals instead of one, which is what rescues QoS in
// low-income conditions (Fig. 13).
package virt

import (
	"fmt"

	"neofog/internal/mesh"
)

// LogicalNode is one network identity implemented by one or more physical
// clones.
type LogicalNode struct {
	// ID is the logical (anchor) node index.
	ID int
	// Clones lists the physical node indices implementing this identity,
	// in phase order; Clones[0] is the original anchor.
	Clones []int
}

// Multiplexing reports the clone-set size.
func (l LogicalNode) Multiplexing() int { return len(l.Clones) }

// Responsible returns the physical node that owns the wake slot at the
// given RTC tick: clone k wakes when tick ≡ k (mod set size), Algorithm 2's
// "initial (phase) offset in ticks, unique among the clones" with a common
// inter-activation interval.
func (l LogicalNode) Responsible(tick int) int {
	if len(l.Clones) == 0 {
		panic("virt: empty clone set")
	}
	idx := tick % len(l.Clones)
	if idx < 0 {
		idx += len(l.Clones)
	}
	return l.Clones[idx]
}

// AppendWakeOrder appends the clone candidates for the given RTC tick to
// buf in failover order and returns the extended slice: the slot owner
// first, then the remaining clones by ascending phase distance. This is
// the NVD4Q clone-failover schedule of the recovery layer: because every
// clone shares the logical node's NVRF state, the clone whose own slot
// comes next detects the owner's missed beacon soonest and can absorb the
// orphaned phase offset — the logical node keeps its QoS at reduced
// multiplexing while a physical part is dead. Per-round loops reuse one
// buffer instead of allocating a fresh schedule every slot.
func (l LogicalNode) AppendWakeOrder(buf []int, tick int) []int {
	m := len(l.Clones)
	if m == 0 {
		panic("virt: empty clone set")
	}
	first := tick % m
	if first < 0 {
		first += m
	}
	for k := 0; k < m; k++ {
		buf = append(buf, l.Clones[(first+k)%m])
	}
	return buf
}

// PhaseOf reports the phase offset of physical node phys within the set,
// or -1 if it is not a member.
func (l LogicalNode) PhaseOf(phys int) int {
	for k, c := range l.Clones {
		if c == phys {
			return k
		}
	}
	return -1
}

// BuildCloneSets assigns physical nodes to logical identities by position:
// the first `anchors` positions are the original deployment (one logical
// node each); every further physical node joins the clone set of the
// closest anchor — Algorithm 2's "find the closest node through NVRF".
func BuildCloneSets(positions []mesh.Position, anchors int) ([]LogicalNode, error) {
	if anchors <= 0 || anchors > len(positions) {
		return nil, fmt.Errorf("virt: anchors %d out of range (have %d positions)", anchors, len(positions))
	}
	logical := make([]LogicalNode, anchors)
	for i := range logical {
		logical[i] = LogicalNode{ID: i, Clones: []int{i}}
	}
	for p := anchors; p < len(positions); p++ {
		best := mesh.ClosestNode(positions[p], positions[:anchors], nil)
		logical[best].Clones = append(logical[best].Clones, p)
	}
	return logical, nil
}

// RotateForChain rotates a clone set's phase assignment by the chain
// index, implementing the inter-chain wake pattern of Fig. 8: with m-way
// multiplexing, consecutive chains' active clones differ at every slot
// ("nodes in chain 1 to 5 wake up consecutively"), so one physical node
// per identity is awake at a time and adjacent chains never burn the same
// clone's energy in the same slot. The anchor set is unchanged; only the
// phase order rotates.
func (l LogicalNode) RotateForChain(chain int) LogicalNode {
	m := len(l.Clones)
	if m == 0 {
		panic("virt: empty clone set")
	}
	r := chain % m
	if r < 0 {
		r += m
	}
	out := LogicalNode{ID: l.ID, Clones: make([]int, m)}
	for k := 0; k < m; k++ {
		out.Clones[k] = l.Clones[(k+r)%m]
	}
	return out
}
