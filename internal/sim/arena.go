package sim

import (
	"neofog/internal/node"
	"neofog/internal/sched"
)

// runArena is the per-run scratch arena: every buffer whose size is
// invariant across rounds is allocated once per Run call and reused every
// slot, keeping the steady-state round loop allocation-free.
//
// Ownership rules (see DESIGN.md):
//   - The arena belongs to exactly one Run invocation; it is created inside
//     Run and never escapes, so fleet runs (one Run per chain, several
//     chains at once on the pool's workers) cannot share or race on it.
//   - awake must be nil-filled at the top of each round (a stale pointer
//     from the previous round would resurrect a dead node); awakeIdx and
//     loads are fully overwritten each round and need no reset.
//   - cand is a length-zero append target whose capacity persists; callers
//     must re-slice to [:0] before each use.
//   - sched is handed to the balancer's Plan. The returned Plan's slices
//     are scratch buffers, valid until the next Plan call, so Run reads
//     and edits each plan within its own round.
type runArena struct {
	awake    []*node.Node     // responsible node per logical slot, or nil
	awakeIdx []int            // physical index per logical slot
	loads    []sched.NodeLoad // balancing view, rebuilt every round
	cand     []int            // wake-order candidate buffer
	sched    sched.Scratch    // balancer working buffers
}

func newArena(logical int) *runArena {
	return &runArena{
		awake:    make([]*node.Node, logical),
		awakeIdx: make([]int, logical),
		loads:    make([]sched.NodeLoad, logical),
	}
}
