// Package node assembles the component models (harvester, CPU, RF,
// sensors, NVBuffer) into the three node architectures the paper compares
// (Fig. 4):
//
//   - NOS-VP: volatile processor, software-controlled RF, single-channel
//     front end. It wakes cheaply but must re-initialise everything from
//     scratch, and a transmission it cannot finish wastes whatever energy
//     it had.
//   - NOS-NVP: nonvolatile processor and NVRF, still the wait-compute
//     charging discipline.
//   - FIOS NV-mote: NVP + NVRF + dual-channel front end; computation runs
//     off the direct harvest channel at 90% conversion, with the NVBuffer
//     decoupling sensing from processing.
//
// A node exposes per-round primitives (harvest, wake, sample, compute,
// transmit, receive) that the system simulator sequences; all energy flows
// through the node's supercapacitor bank so the Fig. 9 stored-energy traces
// fall out directly.
package node

import (
	"fmt"

	"neofog/internal/apps"
	"neofog/internal/cpu"
	"neofog/internal/harvester"
	"neofog/internal/nvm"
	"neofog/internal/rf"
	"neofog/internal/units"
)

// SystemKind selects the node architecture.
type SystemKind int

// The three systems of Figs. 9–13.
const (
	NOSVP SystemKind = iota
	NOSNVP
	FIOSNVMote
)

func (k SystemKind) String() string {
	switch k {
	case NOSVP:
		return "NOS-VP"
	case NOSNVP:
		return "NOS-NVP"
	case FIOSNVMote:
		return "FIOS-NEOFog"
	default:
		return fmt.Sprintf("SystemKind(%d)", int(k))
	}
}

// Config parameterises a node.
type Config struct {
	Kind SystemKind
	// App is the application workload (sensing payload and fog kernel
	// costs are derived from it).
	App apps.App
	// Core is the MCU cost model.
	Core cpu.Config
	// Radio is the RF power envelope.
	Radio rf.Radio
	// PacketBytes is the raw data unit a node produces per sampling round
	// (a block of buffered samples).
	PacketBytes int
	// FogInstsPerByte is the local-processing cost of fog offload work.
	FogInstsPerByte int64
	// FogDeadline is the time budget for one packet's fog pipeline (the
	// RTC slot, minus headroom): Spendthrift picks the cheapest frequency
	// level that meets it. Complex fog work only fits the slot at high,
	// less efficient clock multipliers — which is what keeps edge
	// processing energy-hungry despite the NVP's efficiency.
	FogDeadline units.Duration
	// CompressedRatio is the output fraction after local processing and
	// compression (what an NV-mote transmits instead of raw data).
	CompressedRatio float64
	// CapCapacity, CapLeak parameterise the main supercapacitor.
	CapCapacity units.Energy
	CapLeak     units.Power
	// SleepPower is the standby draw between activations (a VP's SRAM
	// retention and regulator overhead dwarf an NV-mote's).
	SleepPower units.Power
	// RTCCapCapacity and RTCDraw parameterise the clock-keeping cap.
	RTCCapCapacity units.Energy
	RTCDraw        units.Power
	// InitialCharge is the main cap's starting energy.
	InitialCharge units.Energy
	// Resumable enables the incidental-computing extension: partial fog
	// progress checkpointed across power cycles (see incidental.go).
	Resumable bool
	// WakeupRadio fits the nano-watt RF wake-up receiver extension (§2.3
	// mentions it as future work): desynchronised nodes rejoin the
	// network for microjoules instead of a costly blind listen window.
	WakeupRadio bool
}

// DefaultConfig is the calibrated baseline: 1 kB packets, a heavyweight
// fog pipeline (3000 insts/byte — the bridge structural-health kernels at
// the complexity Fig. 4 sketches, which only fit an RTC slot at elevated
// Spendthrift levels), the measured compression band, and a 250 mJ
// supercap.
func DefaultConfig(kind SystemKind, app apps.App) Config {
	return Config{
		Kind:            kind,
		App:             app,
		Core:            cpu.Default8051(),
		Radio:           rf.ML7266(),
		PacketBytes:     1024,
		FogInstsPerByte: 3000,
		FogDeadline:     10 * units.Second,
		CompressedRatio: 0.11,
		CapCapacity:     250 * units.Millijoule,
		CapLeak:         0.002, // 2 µW self-discharge
		SleepPower:      sleepDraw(kind),
		RTCCapCapacity:  2 * units.Millijoule,
		RTCDraw:         0.001, // 1 µW RTC
		InitialCharge:   30 * units.Millijoule,
	}
}

// sleepDraw is the standby power by architecture: the VP must keep SRAM
// and regulator alive; NV-motes retain state for free.
func sleepDraw(kind SystemKind) units.Power {
	if kind == NOSVP {
		return 0.02 // 20 µW
	}
	return 0.002 // 2 µW
}

// Node is one sensing node instance.
//
// Cfg, Proc, Spend and the radio controller are fixed at New, which
// prices every cost that depends only on them into the node's fixed-cost
// table (see fixedCosts). Nothing may change them afterwards: the table
// would go stale.
type Node struct {
	Cfg   Config
	Bank  *harvester.Bank
	Proc  *cpu.Processor
	Spend *cpu.Spendthrift
	// NVRF is non-nil for NVP-based nodes; VP nodes carry SoftRF.
	NVRF   *rf.NVRF
	SoftRF *rf.SoftwareRF
	Buffer *nvm.FIFO

	costs fixedCosts

	// income is the current per-round income power, set by Harvest or
	// BeginSlot and used by FIOS compute to feed the direct channel.
	income units.Power
	// usedDirect is how much of the current slot the direct channel has
	// already consumed; EndSlot banks income only for the remainder so the
	// same harvest is never counted twice.
	usedDirect units.Duration
	// fogRemaining is the incidental-computing checkpoint: instructions
	// still owed on a partially processed packet (held in NVM).
	fogRemaining int64
	// desynced marks a node whose RTC died: it no longer knows the
	// network's time slots (see rtc.go).
	desynced bool
	// rfFailed marks the radio as failed for the current slot (an injected
	// RF-init fault): transmits and receives fail without draining the cap.
	rfFailed bool

	Stats Stats
}

// Stats are the per-node counters the experiments aggregate.
type Stats struct {
	Wakeups       int
	WakeFailures  int // RTC slots missed for lack of energy
	Samples       int
	FogProcessed  int // packets processed locally (or on behalf of peers)
	CloudRaw      int // raw packets shipped for cloud processing
	Dropped       int // packets lost to energy shortage
	TxAttempts    int
	TxDied        int // transmissions that browned out mid-flight
	Relayed       int
	Resyncs       int // RTC resynchronisations after clock death (§2.3)
	DesyncedSlots int // slots missed while out of sync
	CrashedSlots  int // slots lost to an injected node crash
	StuckSamples  int // samples taken while a sensor stuck-at fault was active
	RFFailures    int // radio operations refused by an injected RF-init fault
	Retransmits   int // ARQ resends this node paid for (recovery layer)
	FailoverWakes int // slots this node absorbed for a dead clone (NVD4Q failover)
	EnergySpent   units.Energy
	// Overflow is the energy the main cap rejected while full — the waste
	// Fig. 9 shows for unbalanced systems. It is filled in when a
	// simulation finalises the node.
	Overflow units.Energy
}

// New builds a node.
func New(cfg Config) *Node {
	var front harvester.FrontEnd
	if cfg.Kind == FIOSNVMote {
		front = harvester.FIOSFrontEnd()
	} else {
		front = harvester.NOSFrontEnd()
	}
	main := harvester.NewSuperCap(cfg.CapCapacity, cfg.CapLeak, cfg.InitialCharge)
	rtc := harvester.NewSuperCap(cfg.RTCCapCapacity, 0, cfg.RTCCapCapacity)
	n := &Node{
		Cfg:    cfg,
		Bank:   harvester.NewBank(front, rtc, main, cfg.RTCDraw),
		Buffer: nvm.NewFIFO(apps.BufferSize),
	}
	if cfg.Kind == NOSVP {
		n.Proc = cpu.NewVP(cfg.Core)
		n.SoftRF = rf.NewSoftwareRF(cfg.Radio)
	} else {
		n.Proc = cpu.NewNVP(cfg.Core)
		n.Spend = cpu.DefaultSpendthrift(cfg.Core)
		n.NVRF = rf.NewNVRF(cfg.Radio)
	}
	n.costs = n.priceFixedCosts()
	return n
}

// fixedCosts is a node's price list: every cost that depends only on its
// configuration, worked out once by New instead of on every call. The
// per-round methods read it; only the packet count FogPlan derives from
// the levels changes with the node's stored energy and income.
type fixedCosts struct {
	// fog holds one packet's fog pipeline (time, energy) per Spendthrift
	// level in ascending frequency order; a VP has one entry, at the base
	// clock.
	fog      []fogPoint
	feasible bool // the fastest entry meets Cfg.FogDeadline
	wake     units.Energy
	wakeTime units.Duration
	txResult rf.Cost
	txRaw    rf.Cost
}

// fogPoint is one packet's fog pipeline at one operating point.
type fogPoint struct {
	t units.Duration
	e units.Energy
}

// priceFixedCosts builds the fixed-cost table. It is the one place each
// fixed cost is computed.
func (n *Node) priceFixedCosts() fixedCosts {
	var c fixedCosts
	insts := n.fogInsts()
	if n.Spend == nil {
		t, e := n.Cfg.Core.Exec(insts)
		c.fog = []fogPoint{{t, e}}
	} else {
		c.fog = make([]fogPoint, n.Spend.NumLevels())
		for i := range c.fog {
			c.fog[i].t, c.fog[i].e = n.Spend.Exec(insts, n.Spend.Level(i))
		}
	}
	c.feasible = c.fog[len(c.fog)-1].t <= n.Cfg.FogDeadline

	dev := n.Cfg.App.Device
	samples := dev.SampleEnergy * units.Energy(n.Cfg.PacketBytes/dev.BytesPerSample)
	basicT, basicE := n.Cfg.Core.Exec(n.Cfg.App.NaiveInsts)
	c.wake = n.Proc.RestoreEnergy + dev.InitEnergy + samples + basicE
	c.wakeTime = n.Proc.RestoreTime + basicT
	if n.Cfg.Kind == NOSVP {
		// A VP must also re-initialise its sensor registers and RF stack
		// state in software before anything else works; the RF module
		// init itself is charged at transmission time.
		rebootT, rebootE := n.Cfg.Core.Exec(2000)
		c.wake += rebootE
		c.wakeTime += rebootT
	}

	// A NOS-VP re-initialises the RF stack in software every round; an
	// NVRF restores in microseconds (its one-time 28 ms configuration is
	// paid at deployment).
	resultBytes := int(float64(n.Cfg.PacketBytes) * n.Cfg.CompressedRatio)
	if resultBytes < 1 {
		resultBytes = 1
	}
	c.txResult = n.controller().TxCost(resultBytes)
	c.txRaw = n.controller().TxCost(n.Cfg.PacketBytes)
	if n.Cfg.Kind == NOSVP {
		c.txResult = c.txResult.Add(n.SoftRF.InitCost())
		c.txRaw = c.txRaw.Add(n.SoftRF.InitCost())
	}
	return c
}

// BeginSlot records the slot's income level without banking anything yet.
func (n *Node) BeginSlot(income units.Power) {
	n.income = income
	n.usedDirect = 0
}

// EndSlot banks the slot's income through the regulated path for whatever
// portion of the slot the direct channel did not consume, then charges the
// slot's standby draw.
func (n *Node) EndSlot(slot units.Duration) {
	remaining := slot - n.usedDirect
	if remaining < 0 {
		remaining = 0
	}
	n.Bank.Step(n.income, remaining)
	n.usedDirect = 0
	if n.Cfg.SleepPower > 0 {
		drained := n.Bank.Main.Drain(n.Cfg.SleepPower.Over(slot))
		n.Stats.EnergySpent += drained
	}
}

// Stored reports the main cap's energy.
func (n *Node) Stored() units.Energy { return n.Bank.Main.Stored() }

// spend draws energy for a load of `need` over dt, via the direct channel
// when present. It reports success; on failure the cap is drained (the
// work died mid-flight). Direct-channel time is recorded so EndSlot does
// not bank the same income again.
func (n *Node) spend(need units.Energy, dt units.Duration) bool {
	got, ok := n.Bank.FrontEnd().PowerLoad(n.Bank.Main, n.income, dt, need)
	n.Stats.EnergySpent += got
	if n.Bank.FrontEnd().HasDirectChannel() && n.income > 0 {
		n.usedDirect += dt
	}
	return ok
}

// spendFromCap draws strictly from the cap (radio work cannot ride the
// direct channel: its current spikes need the regulated rail).
func (n *Node) spendFromCap(need units.Energy) bool {
	if n.Bank.Main.Draw(need) {
		n.Stats.EnergySpent += need
		return true
	}
	return false
}

// WakeCost is the energy to come alive at an RTC slot: processor
// restore/restart plus sensor sampling of one packet's worth of data plus
// the basic control computation of Table 2.
func (n *Node) WakeCost() units.Energy { return n.costs.wake }

// WakeTime is the wall-clock counterpart of WakeCost: processor restore
// plus the basic control computation (plus the VP's software reboot). It
// is what the telemetry layer uses to place the wake span inside the RTC
// slot; like WakeCost it is a pure function of the configuration.
func (n *Node) WakeTime() units.Duration { return n.costs.wakeTime }

// TryWake attempts to come alive at an RTC slot. On success the node has
// sampled one packet into its NVBuffer (or RAM for a VP).
func (n *Node) TryWake() bool {
	cost := n.WakeCost()
	if n.Stored() < cost {
		n.Stats.WakeFailures++
		return false
	}
	if !n.spendFromCap(cost) {
		n.Stats.WakeFailures++
		return false
	}
	n.Stats.Wakeups++
	n.Stats.Samples++
	if n.Cfg.Kind != NOSVP {
		// The simulator models payload sizes, not payload contents: the
		// sampled record is a blank block, pushed without materialising a
		// per-wake byte slice.
		n.Buffer.PushBlank(n.Cfg.PacketBytes)
	}
	return true
}

// fogInsts is the instruction count of one packet's fog pipeline.
func (n *Node) fogInsts() int64 {
	return n.Cfg.FogInstsPerByte * int64(n.Cfg.PacketBytes)
}

// directPower is the power the direct source-to-load channel delivers
// while computing (zero for NOS nodes).
func (n *Node) directPower() units.Power {
	if n.Cfg.Kind != FIOSNVMote {
		return 0
	}
	return units.Power(float64(n.income) * 0.9)
}

// FogPlan is the Spendthrift decision for one slot: pick the operating
// point maximising the number of packets processed within `slot` given the
// energy budget (ties broken toward the cheaper level). It reports the
// per-packet energy and time at that point and the packet count k. A VP
// has no frequency scaling: it runs at the base clock or not at all.
func (n *Node) FogPlan(slot units.Duration, reserve units.Energy) (e units.Energy, t units.Duration, k int) {
	capBudget := float64(n.Stored()) - float64(reserve)
	levels := n.costs.fog
	if n.Spend == nil {
		p := levels[0]
		if p.t > slot || p.e <= 0 {
			return p.e, p.t, 0
		}
		return p.e, p.t, n.packetsWithin(slot, p.t, capBudget, p.e)
	}

	var best fogPoint
	bestK := -1
	for _, p := range levels {
		if p.t > slot {
			continue
		}
		lk := n.packetsWithin(slot, p.t, capBudget, p.e)
		if lk > bestK || (lk == bestK && p.e < best.e) {
			best, bestK = p, lk
		}
	}
	if bestK < 0 {
		// No level fits the slot at all: report the fastest level with
		// zero capacity so callers can still price the work.
		top := levels[len(levels)-1]
		return top.e, top.t, 0
	}
	return best.e, best.t, bestK
}

// packetsWithin bounds the per-slot packet count by time and by energy:
// each packet draws from the cap only what the direct channel cannot
// deliver during its execution window.
func (n *Node) packetsWithin(slot, t units.Duration, capBudget float64, e units.Energy) int {
	byTime := int(slot / t)
	capDraw := float64(e) - float64(n.directPower().Over(t))
	if capDraw <= 0 {
		return byTime
	}
	if capBudget <= 0 {
		return 0
	}
	byEnergy := int(capBudget / capDraw)
	if byTime < byEnergy {
		return byTime
	}
	return byEnergy
}

// FogFeasible reports whether any operating point finishes one packet's
// fog pipeline within the node's deadline — a VP facing a heavyweight
// kernel simply cannot do edge processing and must ship raw data.
func (n *Node) FogFeasible() bool { return n.costs.feasible }

// FogCost reports the per-packet energy and time at the operating point
// FogPlan would choose for the node's configured deadline.
func (n *Node) FogCost() (units.Energy, units.Duration) {
	e, t, _ := n.FogPlan(n.Cfg.FogDeadline, n.costs.txResult.Energy)
	return e, t
}

// ProcessFog runs one packet's fog pipeline. For a FIOS mote the energy
// rides the direct channel (topped up from the cap); NOS nodes — VP
// included, when the kernel is light enough to be time-feasible — draw
// stored energy. It reports success.
func (n *Node) ProcessFog() bool {
	if !n.FogFeasible() {
		return false
	}
	e, t := n.FogCost()
	// A node schedules fog work knowing its energy state: if the slot's
	// budget cannot cover the packet it does not start (starting and
	// browning out would waste the whole cap).
	if float64(n.Stored())+float64(n.directPower().Over(t)) < float64(e) {
		return false
	}
	var ok bool
	if n.Cfg.Kind == FIOSNVMote {
		ok = n.spend(e, t)
	} else {
		ok = n.spendFromCap(e)
	}
	if ok {
		n.Stats.FogProcessed++
		n.Buffer.Discard(n.Cfg.PacketBytes)
	} else {
		n.Stats.Dropped++
	}
	return ok
}

// TxResultCost is the radio cost of transmitting one fog-processed
// (compressed) packet.
func (n *Node) TxResultCost() rf.Cost { return n.costs.txResult }

// TxRawCost is the radio cost of shipping one raw packet to the cloud.
func (n *Node) TxRawCost() rf.Cost { return n.costs.txRaw }

func (n *Node) controller() rf.Controller {
	if n.NVRF != nil {
		return n.NVRF
	}
	return n.SoftRF
}

// ARQAckBytes is the size of the link-layer acknowledgement frame the
// recovery layer's per-hop ARQ listens for after each transmission.
const ARQAckBytes = 8

// RetryCost prices one ARQ retransmission: the resend itself (tx, the cost
// the caller already knows for the packet kind), the acknowledgement
// listen, and the exponential-backoff wait at the radio's idle power. The
// recovery layer charges this through the same rf timing/energy model as
// every first transmission, so retries are never free.
func (n *Node) RetryCost(tx rf.Cost, backoff units.Duration) rf.Cost {
	c := tx.Add(n.controller().RxCost(ARQAckBytes))
	c.Time += backoff
	c.Energy += n.Cfg.Radio.IdlePower.Over(backoff)
	return c
}

// SetRFFailed injects (or clears) a per-slot RF-init failure: a radio that
// never comes up cannot transmit or receive, but the attempt does not brown
// the node out — the init sequence aborts before the power amplifier draws.
func (n *Node) SetRFFailed(failed bool) { n.rfFailed = failed }

// RFFailed reports whether the radio is failed this slot.
func (n *Node) RFFailed() bool { return n.rfFailed }

// Transmit pays for a radio operation from the cap. A node that cannot
// afford it browns out mid-transmission: the stored energy is lost — the
// NOS failure mode that dominates the VP's Fig. 10 numbers.
func (n *Node) Transmit(c rf.Cost) bool {
	if n.rfFailed {
		n.Stats.RFFailures++
		return false
	}
	n.Stats.TxAttempts++
	if n.spendFromCap(c.Energy) {
		return true
	}
	// Died mid-flight: everything stored is wasted.
	wasted := n.Bank.Main.Drain(n.Bank.Main.Stored())
	n.Stats.EnergySpent += wasted
	n.Stats.TxDied++
	return false
}

// Receive pays for receiving `bytes` from a chain neighbour.
func (n *Node) Receive(bytes int) bool {
	if n.rfFailed {
		n.Stats.RFFailures++
		return false
	}
	c := n.controller().RxCost(bytes)
	ok := n.spendFromCap(c.Energy)
	if ok {
		n.Stats.Relayed++
	}
	return ok
}

// ConfigureNVRF performs the one-time NVRF configuration at deployment.
func (n *Node) ConfigureNVRF(cfg []byte) {
	if n.NVRF == nil {
		return
	}
	c := n.NVRF.Configure(cfg)
	n.Bank.Main.Draw(c.Energy)
}

// FogCapacity estimates how many packets the node could fog-process this
// round with its stored energy plus this round's expected direct-channel
// income over `slot`, after reserving `reserve` for its own transmission.
// This is the "available energy" a node shares with neighbours (§3.2).
func (n *Node) FogCapacity(slot units.Duration, reserve units.Energy) int {
	_, _, k := n.FogPlan(slot, reserve)
	return k
}
