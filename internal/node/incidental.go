package node

import "neofog/internal/units"

// This file implements the incidental-computing extension the paper points
// to in §5.1 ("'Incidental Computing' techniques [47] have been proposed
// to mitigate this"): instead of discarding samples it cannot afford to
// process whole, an NV-mote makes partial forward progress on one buffered
// packet whenever scraps of energy are available, checkpointing the
// kernel's state in nonvolatile memory between power cycles. A volatile
// processor cannot do this — partial progress dies with the power.
//
// Enable it with Config.Resumable; the simulator then calls AdvanceFog for
// nodes whose slot plan contains no whole-packet work.

// AdvanceFog spends whatever the current slot affords on the in-flight
// packet (starting one from the buffer if necessary), at the most
// efficient Spendthrift level. It reports whether a packet was completed
// this call. VPs make no progress: their partial state is volatile.
func (n *Node) AdvanceFog(slot units.Duration) (completed bool) {
	if !n.Cfg.Resumable || n.Cfg.Kind == NOSVP || n.Spend == nil || slot <= 0 {
		return false
	}
	if n.fogRemaining == 0 {
		if n.Buffer.Len() < n.Cfg.PacketBytes {
			return false
		}
		n.fogRemaining = n.fogInsts()
	}

	// Most efficient operating point: the lowest level (the deadline
	// pressure that forces expensive levels does not apply to incidental
	// progress).
	lvl := n.Spend.Level(0)
	instTime, instEnergy := n.Spend.Exec(1, lvl)
	if instTime <= 0 || instEnergy <= 0 {
		return false
	}

	byTime := int64(slot / instTime)
	// Energy budget: stored (keep a wake-cost floor so incidental work
	// never costs the node its next slot) plus the direct channel.
	floor := n.WakeCost()
	budget := float64(n.Stored()) - float64(floor)
	budget += float64(n.directPower().Over(slot))
	byEnergy := int64(budget / float64(instEnergy))

	insts := n.fogRemaining
	if byTime < insts {
		insts = byTime
	}
	if byEnergy < insts {
		insts = byEnergy
	}
	if insts <= 0 {
		return false
	}

	t, e := n.Spend.Exec(insts, lvl)
	var ok bool
	if n.Cfg.Kind == FIOSNVMote {
		ok = n.spend(e, t)
	} else {
		ok = n.spendFromCap(e)
	}
	if !ok {
		return false
	}
	// Checkpoint the kernel state (one NV backup per slot boundary).
	n.spendFromCap(n.Proc.BackupEnergy)

	n.fogRemaining -= insts
	if n.fogRemaining > 0 {
		return false
	}
	n.Stats.FogProcessed++
	n.Buffer.Discard(n.Cfg.PacketBytes)
	return true
}
