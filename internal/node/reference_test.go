package node

import (
	"neofog/internal/rf"
	"neofog/internal/units"
)

// The reference cost model: the per-call formulas the fixed-cost table
// replaced, recomputed from the node's configuration on every call.
// TestFixedCostsMatchReference and FuzzFixedCosts hold the table-backed
// methods to them bit for bit.

func refWakeCost(n *Node) units.Energy {
	dev := n.Cfg.App.Device
	samples := units.Energy(0)
	perSample := dev.SampleEnergy
	count := n.Cfg.PacketBytes / dev.BytesPerSample
	samples = perSample * units.Energy(count)
	_, basicE := n.Cfg.Core.Exec(n.Cfg.App.NaiveInsts)
	wake := n.Proc.RestoreEnergy + dev.InitEnergy + samples + basicE
	if n.Cfg.Kind == NOSVP {
		_, rebootE := n.Cfg.Core.Exec(2000)
		wake += rebootE
	}
	return wake
}

func refWakeTime(n *Node) units.Duration {
	basicT, _ := n.Cfg.Core.Exec(n.Cfg.App.NaiveInsts)
	t := n.Proc.RestoreTime + basicT
	if n.Cfg.Kind == NOSVP {
		rebootT, _ := n.Cfg.Core.Exec(2000)
		t += rebootT
	}
	return t
}

func refFogPlan(n *Node, slot units.Duration, reserve units.Energy) (e units.Energy, t units.Duration, k int) {
	insts := n.fogInsts()
	capBudget := float64(n.Stored()) - float64(reserve)

	if n.Spend == nil {
		t, e = n.Cfg.Core.Exec(insts)
		if t > slot || e <= 0 {
			return e, t, 0
		}
		k = n.packetsWithin(slot, t, capBudget, e)
		return e, t, k
	}

	bestE, bestT, bestK := units.Energy(0), units.Duration(0), -1
	for i := 0; i < n.Spend.NumLevels(); i++ {
		lt, le := n.Spend.Exec(insts, n.Spend.Level(i))
		if lt > slot {
			continue
		}
		lk := n.packetsWithin(slot, lt, capBudget, le)
		if lk > bestK || (lk == bestK && le < bestE) {
			bestE, bestT, bestK = le, lt, lk
		}
	}
	if bestK < 0 {
		top := n.Spend.Level(n.Spend.NumLevels() - 1)
		t, e = n.Spend.Exec(insts, top)
		return e, t, 0
	}
	return bestE, bestT, bestK
}

func refFogFeasible(n *Node) bool {
	insts := n.fogInsts()
	if n.Spend == nil {
		t, _ := n.Cfg.Core.Exec(insts)
		return t <= n.Cfg.FogDeadline
	}
	t, _ := n.Spend.Exec(insts, n.Spend.Level(n.Spend.NumLevels()-1))
	return t <= n.Cfg.FogDeadline
}

func refFogCost(n *Node) (units.Energy, units.Duration) {
	e, t, _ := refFogPlan(n, n.Cfg.FogDeadline, refTxResultCost(n).Energy)
	return e, t
}

func refTxResultCost(n *Node) rf.Cost {
	bytes := int(float64(n.Cfg.PacketBytes) * n.Cfg.CompressedRatio)
	if bytes < 1 {
		bytes = 1
	}
	return refTxCost(n, bytes)
}

func refTxRawCost(n *Node) rf.Cost { return refTxCost(n, n.Cfg.PacketBytes) }

func refTxCost(n *Node, bytes int) rf.Cost {
	c := n.controller().TxCost(bytes)
	if n.Cfg.Kind == NOSVP {
		c = c.Add(n.SoftRF.InitCost())
	}
	return c
}
