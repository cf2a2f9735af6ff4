package sim

import (
	"errors"
	"math/rand"
	"testing"

	"neofog/internal/apps"
	"neofog/internal/energytrace"
	"neofog/internal/mesh"
	"neofog/internal/node"
	"neofog/internal/sched"
	"neofog/internal/units"
	"neofog/internal/virt"
)

// slot12 integrates income over the paper's 12 s RTC slot, the slot
// run simulates.
var slot12 = energytrace.IncomeOpts{Slot: 12 * units.Second}

func forestIncome(t *testing.T, nodes int, peak float64, seed int64) []energytrace.Income {
	t.Helper()
	cfg := energytrace.SunnyDay()
	cfg.Peak = units.Power(peak)
	return energytrace.IndependentIncome(cfg, nodes, 5*units.Minute, slot12, rand.New(rand.NewSource(seed)))
}

// incomeOf integrates per-sample traces one slot at a time, over the
// whole slots each covers: the income of a hand-built trace.
func incomeOf(slot units.Duration, traces ...*energytrace.Sampled) []energytrace.Income {
	out := make([]energytrace.Income, len(traces))
	for i, tr := range traces {
		e := make([]units.Energy, int(tr.Duration()/slot))
		for k := range e {
			from := slot * units.Duration(k)
			e[k] = energytrace.Integrate(tr, from, from+slot)
		}
		out[i] = energytrace.Income{Slot: slot, Energy: e}
	}
	return out
}

func run(t *testing.T, kind node.SystemKind, bal sched.Balancer, income []energytrace.Income, mut func(*Config)) Result {
	t.Helper()
	cfg := Config{
		Node:     node.DefaultConfig(kind, apps.BridgeHealth()),
		Income:   income,
		Slot:     slot12.Slot,
		Balancer: bal,
		Seed:     7,
	}
	if mut != nil {
		mut(&cfg)
	}
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRunErrors(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Fatal("no income should error")
	}
	short := incomeOf(units.Minute, energytrace.NewSampled(units.Second, 5))
	if _, err := Run(Config{Income: short}); err == nil {
		t.Fatal("zero slot should error")
	}
	if _, err := Run(Config{Income: short, Slot: units.Minute}); err == nil {
		t.Fatal("trace shorter than slot should error")
	}
	day := forestIncome(t, 2, 0.8, 1)
	if _, err := Run(Config{Income: day, Slot: 6 * units.Second}); err == nil {
		t.Fatal("income integrated over another slot should error")
	}
	day[1].Slot = 6 * units.Second
	if _, err := Run(Config{Income: day, Slot: 12 * units.Second}); err == nil {
		t.Fatal("a node's income integrated over another slot should error")
	}
}

func TestRunDeterminism(t *testing.T) {
	income := forestIncome(t, 5, 0.8, 3)
	a := run(t, node.FIOSNVMote, sched.Distributed{}, income, nil)
	b := run(t, node.FIOSNVMote, sched.Distributed{}, income, nil)
	if a.TotalProcessed() != b.TotalProcessed() || a.Wakeups != b.Wakeups || a.Moves != b.Moves {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
}

// The Fig. 10 ordering: NEOFog > baseline NVP > VP in total packets; VP
// does zero fog processing; NV systems are fog-dominated.
func TestSystemOrdering(t *testing.T) {
	income := forestIncome(t, 10, 0.6, 42)
	vp := run(t, node.NOSVP, sched.NoBalance{}, income, nil)
	nvp := run(t, node.NOSNVP, sched.BaselineTree{}, income, nil)
	neo := run(t, node.FIOSNVMote, sched.Distributed{}, income, nil)

	if vp.FogProcessed != 0 {
		t.Fatalf("VP fog = %d, want 0 (heavyweight kernel is infeasible)", vp.FogProcessed)
	}
	if !(neo.TotalProcessed() > nvp.TotalProcessed() && nvp.TotalProcessed() > vp.TotalProcessed()) {
		t.Fatalf("ordering violated: neo=%d nvp=%d vp=%d",
			neo.TotalProcessed(), nvp.TotalProcessed(), vp.TotalProcessed())
	}
	for _, r := range []struct {
		name string
		r    Result
	}{{"nvp", nvp}, {"neo", neo}} {
		fogShare := float64(r.r.FogProcessed) / float64(r.r.TotalProcessed())
		if fogShare < 0.9 {
			t.Fatalf("%s: fog share %.2f, want ≥0.9", r.name, fogShare)
		}
	}
	// NEOFog's gain over the baseline NVP lands in the paper's band
	// (1.65–2.05× across Figs. 10–11); allow margin.
	gain := float64(neo.TotalProcessed()) / float64(nvp.TotalProcessed())
	if gain < 1.3 || gain > 2.6 {
		t.Fatalf("NEO/NVP gain = %.2f, want ≈1.65–2.05", gain)
	}
	t.Logf("totals: vp=%d nvp=%d neo=%d (ideal %d); NEO/NVP=%.2f NEO/VP=%.2f",
		vp.TotalProcessed(), nvp.TotalProcessed(), neo.TotalProcessed(), neo.IdealPackets, gain,
		float64(neo.TotalProcessed())/float64(vp.TotalProcessed()))
}

// More income means more packets, for every system.
func TestMonotoneInIncome(t *testing.T) {
	lo := forestIncome(t, 8, 0.5, 9)
	hi := forestIncome(t, 8, 1.5, 9)
	for _, kind := range []node.SystemKind{node.NOSVP, node.NOSNVP, node.FIOSNVMote} {
		rl := run(t, kind, sched.Distributed{}, lo, nil)
		rh := run(t, kind, sched.Distributed{}, hi, nil)
		if rh.TotalProcessed() <= rl.TotalProcessed() {
			t.Errorf("%v: more income should process more (%d vs %d)",
				kind, rh.TotalProcessed(), rl.TotalProcessed())
		}
	}
}

// Packet conservation: everything sampled is processed, queued, lost in
// flight as a result/raw packet, or dropped.
func TestPacketAccounting(t *testing.T) {
	income := forestIncome(t, 10, 0.7, 11)
	r := run(t, node.FIOSNVMote, sched.Distributed{}, income, nil)
	var samples int
	for _, s := range r.PerNode {
		samples += s.Samples
	}
	accounted := r.TotalProcessed() + r.Dropped
	// Result/raw packets lost in flight were still processed; the backlog
	// still queued at the end is bounded by nodes × the NVBuffer depth
	// (64 packets at the default packet size).
	slack := r.Nodes * 64
	if accounted > samples || accounted < samples-slack-r.LostInFlight {
		t.Fatalf("accounting: samples=%d processed+dropped=%d lost=%d slack=%d",
			samples, accounted, r.LostInFlight, slack)
	}
}

func TestEnergySeriesRecorded(t *testing.T) {
	income := forestIncome(t, 4, 0.8, 13)
	r := run(t, node.NOSNVP, sched.BaselineTree{}, income, func(c *Config) {
		c.RecordEnergy = []int{0, 2}
	})
	if len(r.EnergySeries) != 2 {
		t.Fatalf("series = %d, want 2", len(r.EnergySeries))
	}
	for idx, series := range r.EnergySeries {
		if len(series) != r.Rounds {
			t.Fatalf("node %d: %d samples, want %d", idx, len(series), r.Rounds)
		}
		for i, e := range series {
			if e < 0 {
				t.Fatalf("node %d: negative stored energy at round %d", idx, i)
			}
		}
	}
}

// NVD4Q: under low income, multiplexed clones lift packets per logical
// node; the network sees the same number of logical identities.
func TestVirtualizationLifsLowIncomeQoS(t *testing.T) {
	const anchors = 10
	cfg := energytrace.RainyDay()
	rng := rand.New(rand.NewSource(21))

	// Baseline: 10 physical = 10 logical nodes.
	base := energytrace.DependentIncome(cfg, anchors, 0.3, slot12, rng)
	r1 := run(t, node.FIOSNVMote, sched.Distributed{}, base, func(c *Config) {
		c.Node.FogInstsPerByte = 500 // the lighter mountain-monitoring kernel
	})

	// 3× multiplexing: 30 physical nodes, 10 logical.
	tri := energytrace.DependentIncome(cfg, anchors*3, 0.3, slot12, rng)
	positions := mesh.LineDeployment(anchors, 90)
	for i := 0; i < anchors*2; i++ {
		positions = append(positions, mesh.Position{X: float64(i%anchors) * 10, Y: 1})
	}
	sets, err := virt.BuildCloneSets(positions, anchors)
	if err != nil {
		t.Fatal(err)
	}
	r3 := run(t, node.FIOSNVMote, sched.Distributed{}, tri, func(c *Config) {
		c.Node.FogInstsPerByte = 500
		c.CloneSets = sets
	})

	if r3.IdealPackets != r1.IdealPackets {
		t.Fatalf("logical capacity changed: %d vs %d", r3.IdealPackets, r1.IdealPackets)
	}
	if r3.TotalProcessed() <= r1.TotalProcessed() {
		t.Fatalf("3× multiplexing should lift low-income QoS: %d vs %d",
			r3.TotalProcessed(), r1.TotalProcessed())
	}
	t.Logf("rainy-day QoS: 1×=%d, 3×=%d of %d ideal", r1.TotalProcessed(), r3.TotalProcessed(), r1.IdealPackets)
}

// The VP can fog-process when the kernel is light enough (the Fig. 12/13
// mountain scenario) — but far less than an NV-mote.
func TestVPFogOnLightKernel(t *testing.T) {
	income := forestIncome(t, 10, 0.5, 17)
	light := func(c *Config) { c.Node.FogInstsPerByte = 500 }
	vp := run(t, node.NOSVP, sched.NoBalance{}, income, light)
	neo := run(t, node.FIOSNVMote, sched.Distributed{}, income, light)
	if vp.FogProcessed == 0 {
		t.Fatal("VP should fog-process the light kernel")
	}
	ratio := float64(neo.FogProcessed) / float64(vp.FogProcessed)
	if ratio < 1.5 {
		t.Fatalf("NEOFog should far outprocess the VP: ratio %.2f", ratio)
	}
	t.Logf("light kernel in-fog: vp=%d neo=%d (%.1f×)", vp.FogProcessed, neo.FogProcessed, ratio)
}

// Rejoins happen when relays die and recover.
func TestRejoinsUnderScarcity(t *testing.T) {
	income := forestIncome(t, 10, 0.35, 23)
	r := run(t, node.NOSNVP, sched.BaselineTree{}, income, nil)
	if r.Rejoins == 0 {
		t.Fatal("scarce income should produce orphan-scan rejoins")
	}
}

// The incidental-computing extension: under starvation income, resumable
// fog tasks convert otherwise-discarded samples into completed work.
func TestResumableLiftsStarvedFog(t *testing.T) {
	cfg := energytrace.RainyDay()
	cfg.Peak = 0.35
	income := energytrace.DependentIncome(cfg, 10, 0.3, slot12, rand.New(rand.NewSource(5)))

	plain := run(t, node.NOSNVP, sched.BaselineTree{}, income, nil)
	resumable := run(t, node.NOSNVP, sched.BaselineTree{}, income, func(c *Config) {
		c.Node.Resumable = true
	})
	if resumable.FogProcessed <= plain.FogProcessed {
		t.Fatalf("resumable fog (%d) should beat plain (%d) under starvation",
			resumable.FogProcessed, plain.FogProcessed)
	}
	t.Logf("starved fog: plain=%d resumable=%d (%.2fx)",
		plain.FogProcessed, resumable.FogProcessed,
		float64(resumable.FogProcessed)/float64(plain.FogProcessed))
}

// recordRounds makes cfg's round observer append every round's stats to
// the returned slice.
func recordRounds(cfg *Config) *[]RoundStats {
	var rounds []RoundStats
	cfg.OnRound = func(r RoundStats) error {
		rounds = append(rounds, r)
		return nil
	}
	return &rounds
}

func TestJournal(t *testing.T) {
	income := forestIncome(t, 4, 0.8, 31)
	var rounds *[]RoundStats
	r := run(t, node.FIOSNVMote, sched.Distributed{}, income, func(c *Config) {
		c.Rounds = 20
		rounds = recordRounds(c)
	})
	if len(*rounds) != r.Rounds {
		t.Fatalf("observed rounds = %d, want %d", len(*rounds), r.Rounds)
	}
	// Each round carries plausible stats, and the per-round fog deltas sum
	// to the result total.
	var fogSum int
	for i, e := range *rounds {
		if e.Round != i || e.Awake < 0 || e.Awake > 4 || e.MeanStoredMJ < 0 {
			t.Fatalf("round %d implausible: %+v", i, e)
		}
		fogSum += e.Fog
	}
	if fogSum != r.FogProcessed {
		t.Fatalf("observed fog sum %d != result %d", fogSum, r.FogProcessed)
	}
}

// TestOnRoundErrorEndsRun checks that an observer's error ends the run
// with that error.
func TestOnRoundErrorEndsRun(t *testing.T) {
	income := forestIncome(t, 4, 0.8, 31)
	stop := errors.New("stop")
	cfg := Config{
		Node:   node.DefaultConfig(node.FIOSNVMote, apps.BridgeHealth()),
		Income: income,
		Slot:   income[0].Slot,
		Rounds: 20,
		Seed:   1,
		OnRound: func(r RoundStats) error {
			if r.Round == 3 {
				return stop
			}
			return nil
		},
	}
	if _, err := Run(cfg); !errors.Is(err, stop) {
		t.Fatalf("Run = %v, want the observer's error", err)
	}
}

// A blackout long enough to kill the RTC cap desynchronises nodes; they
// miss slots until they can afford the rejoin listen window. The
// wake-up-radio extension makes recovery far cheaper.
func TestBlackoutDesyncAndRecovery(t *testing.T) {
	mk := func(wakeup bool) Result {
		// 1 h of decent income, 1 h of blackout, 3 h of recovery.
		tr := energytrace.NewSampled(units.Minute, 300)
		for i := range tr.Samples {
			switch {
			case i < 60:
				tr.Samples[i] = 0.6
			case i < 120:
				tr.Samples[i] = 0
			default:
				tr.Samples[i] = 0.6
			}
		}
		income := incomeOf(slot12.Slot, tr, tr, tr, tr, tr, tr)
		return run(t, node.NOSNVP, sched.BaselineTree{}, income, func(c *Config) {
			c.Node.RTCCapCapacity = 2000 // 2 µJ: dies within the blackout hour
			c.Node.RTCDraw = 0.001
			c.Node.WakeupRadio = wakeup
		})
	}
	plain := mk(false)
	fitted := mk(true)

	var plainResyncs, plainMissed, fittedMissed int
	for i := range plain.PerNode {
		plainResyncs += plain.PerNode[i].Resyncs
		plainMissed += plain.PerNode[i].DesyncedSlots
		fittedMissed += fitted.PerNode[i].DesyncedSlots
	}
	if plainResyncs == 0 {
		t.Fatal("the blackout should force resynchronisations")
	}
	if plainMissed == 0 {
		t.Fatal("desynchronised nodes should miss slots")
	}
	if fitted.TotalProcessed() < plain.TotalProcessed() {
		t.Fatalf("wake-up radio should not hurt: %d vs %d",
			fitted.TotalProcessed(), plain.TotalProcessed())
	}
	t.Logf("blackout: resyncs=%d missed=%d (plain) vs missed=%d (wake-up radio); totals %d vs %d",
		plainResyncs, plainMissed, fittedMissed, plain.TotalProcessed(), fitted.TotalProcessed())
}

// The cross-round queue is capped at one NVBuffer of packets per node:
// a starved NVP deployment ends with every buffer full and drops the
// rest.
func TestMaxBacklogKnob(t *testing.T) {
	income := forestIncome(t, 8, 0.35, 43)
	r := run(t, node.NOSNVP, sched.BaselineTree{}, income, nil)
	perNode := apps.BufferSize / node.DefaultConfig(node.NOSNVP, apps.BridgeHealth()).PacketBytes
	if r.QueuedEnd != 8*perNode {
		t.Fatalf("queued at the end = %d, want 8 full NVBuffers of %d packets", r.QueuedEnd, perNode)
	}
	if r.Dropped == 0 {
		t.Fatal("a starved run past the NVBuffer cap should drop packets")
	}
	if !r.Conserved() {
		t.Fatalf("conservation broken: %+v", r)
	}
	t.Logf("queued %d, dropped %d", r.QueuedEnd, r.Dropped)
}

// Clone sets over dead-quiet physical nodes: a logical node whose
// responsible clone is starved simply misses its slot; others are
// unaffected.
func TestCloneSetStarvedPhase(t *testing.T) {
	income := forestIncome(t, 4, 0.8, 47)
	// Physical node 2 (the second clone of logical 0) gets no income.
	income[2].Energy = make([]units.Energy, len(income[2].Energy))
	sets := []virt.LogicalNode{
		{ID: 0, Clones: []int{0, 2}},
		{ID: 1, Clones: []int{1, 3}},
	}
	r := run(t, node.FIOSNVMote, sched.Distributed{}, income, func(c *Config) {
		c.CloneSets = sets
		c.Rounds = 200
	})
	if r.IdealPackets != 400 {
		t.Fatalf("ideal = %d, want 2 logical × 200", r.IdealPackets)
	}
	// The dead clone rides its initial charge briefly, then contributes
	// nothing; its partner still covers its own phase slots.
	if r.PerNode[2].Wakeups*2 >= r.PerNode[0].Wakeups {
		t.Fatalf("dead clone woke %d times vs partner %d", r.PerNode[2].Wakeups, r.PerNode[0].Wakeups)
	}
	if r.PerNode[2].Wakeups+r.PerNode[2].WakeFailures == 0 {
		t.Fatal("dead clone should at least have missed its slots")
	}
	if r.PerNode[0].Wakeups == 0 || r.PerNode[1].Wakeups == 0 {
		t.Fatal("live clones should wake")
	}
}

// Rain degrades the link exactly when it matters: runs with a rain window
// lose more packets in flight than clear-weather runs.
func TestWeatherLinkLoss(t *testing.T) {
	income := forestIncome(t, 8, 0.9, 51)
	clear := run(t, node.FIOSNVMote, sched.Distributed{}, income, nil)
	rainy := run(t, node.FIOSNVMote, sched.Distributed{}, income, func(c *Config) {
		c.Faults.Link = func(round int) (mesh.LinkModel, bool) {
			return mesh.LinkModel{SuccessRate: 0.80}, round >= 300 && round < 900
		}
	})
	if rainy.LostInFlight <= clear.LostInFlight {
		t.Fatalf("rain should lose more packets: %d vs %d",
			rainy.LostInFlight, clear.LostInFlight)
	}
}

// OrphanLost is the subset of LostRaw abandoned at a dead span: a relay
// that keeps crashing strands raw packets mid-route, and every such loss
// must show up in both counters without breaking conservation.
func TestOrphanLostFeedsLostRaw(t *testing.T) {
	income := forestIncome(t, 8, 0.9, 53)
	r := run(t, node.FIOSNVMote, sched.Distributed{}, income, func(c *Config) {
		c.Faults.NodeDown = func(phys, round int) bool {
			return (phys == 3 || phys == 4) && round%2 == 0
		}
	})
	if r.OrphanLost == 0 {
		t.Fatal("a flapping relay span should orphan some raw packets")
	}
	if r.OrphanLost > r.LostRaw {
		t.Fatalf("OrphanLost %d must be a subset of LostRaw %d", r.OrphanLost, r.LostRaw)
	}
	if !r.Conserved() {
		t.Fatalf("conservation broken: %+v", r)
	}
}

// With the recovery layer off, every recovery counter stays zero — the
// self-healing path must be completely inert by default.
func TestRecoveryCountersZeroWhenDisabled(t *testing.T) {
	income := forestIncome(t, 8, 0.8, 57)
	r := run(t, node.FIOSNVMote, sched.Distributed{}, income, func(c *Config) {
		c.Faults.NodeDown = func(phys, round int) bool { return phys == 3 && round%3 == 0 }
		c.Faults.AbortBalance = func(round int) bool { return round%5 == 0 }
	})
	if r.Retransmits != 0 || r.FailoverSlots != 0 || r.BalanceRetries != 0 {
		t.Fatalf("recovery counters must be zero when disabled: %+v", r)
	}
}

// ARQ on a lossy link: retries recover in-flight losses into deliveries,
// paid for through the rf model, without breaking conservation. A NOS-NVP
// chain sends enough raw packets (real-time requests and task transfers)
// at the production request rate for the recovered deliveries to show.
func TestRecoveryARQOnLossyLink(t *testing.T) {
	income := forestIncome(t, 8, 0.9, 59)
	mut := func(on bool) func(*Config) {
		return func(c *Config) {
			c.Faults.Link = func(int) (mesh.LinkModel, bool) { return mesh.LinkModel{SuccessRate: 0.7}, true }
			c.Recovery = on
		}
	}
	off := run(t, node.NOSNVP, sched.Distributed{}, income, mut(false))
	on := run(t, node.NOSNVP, sched.Distributed{}, income, mut(true))
	if on.Retransmits == 0 {
		t.Fatal("a 30%-loss link should trigger retransmissions")
	}
	if on.CloudProcessed <= off.CloudProcessed {
		t.Fatalf("ARQ should deliver more raw packets to the cloud: %d vs %d", on.CloudProcessed, off.CloudProcessed)
	}
	lossOff := float64(off.LostInFlight) / float64(off.Samples)
	lossOn := float64(on.LostInFlight) / float64(on.Samples)
	if lossOn >= lossOff {
		t.Fatalf("ARQ should cut the in-flight loss rate: %.3f vs %.3f", lossOn, lossOff)
	}
	if !off.Conserved() || !on.Conserved() {
		t.Fatalf("conservation broken: off=%+v on=%+v", off, on)
	}
	t.Logf("loss rate %.3f -> %.3f and cloud deliveries %d -> %d with %d retransmits",
		lossOff, lossOn, off.CloudProcessed, on.CloudProcessed, on.Retransmits)
}

// NVD4Q clone failover: when a crash fault keeps killing a slot owner,
// the surviving clone absorbs the dead phase offsets and the logical node
// keeps sampling.
func TestRecoveryCloneFailover(t *testing.T) {
	income := forestIncome(t, 4, 0.9, 61)
	sets := []virt.LogicalNode{
		{ID: 0, Clones: []int{0, 2}},
		{ID: 1, Clones: []int{1, 3}},
	}
	down := func(phys, round int) bool { return phys == 2 }
	mut := func(on bool) func(*Config) {
		return func(c *Config) {
			c.CloneSets = sets
			c.Rounds = 200
			c.Faults.NodeDown = down
			c.Recovery = on
		}
	}
	off := run(t, node.FIOSNVMote, sched.Distributed{}, income, mut(false))
	on := run(t, node.FIOSNVMote, sched.Distributed{}, income, mut(true))
	if on.FailoverSlots == 0 {
		t.Fatal("the surviving clone should absorb the dead owner's slots")
	}
	if on.Samples <= off.Samples {
		t.Fatalf("failover should recover samples: %d vs %d", on.Samples, off.Samples)
	}
	if on.PerNode[0].FailoverWakes == 0 {
		t.Fatal("the anchor clone should log its failover wakes")
	}
	if !on.Conserved() {
		t.Fatalf("conservation broken: %+v", on)
	}
}

// Abort-safe balancing: under injected balancing aborts the lease rolls
// the round back to the local-only plan and retries next round, without
// breaking conservation.
func TestRecoveryBalanceRetry(t *testing.T) {
	income := forestIncome(t, 8, 0.6, 63)
	mut := func(on bool) func(*Config) {
		return func(c *Config) {
			c.Faults.AbortBalance = func(round int) bool { return true }
			c.Recovery = on
		}
	}
	off := run(t, node.FIOSNVMote, sched.NoBalance{}, income, mut(false))
	on := run(t, node.FIOSNVMote, sched.NoBalance{}, income, mut(true))
	if on.BalanceRetries == 0 {
		t.Fatal("aborted rounds should schedule balance retries")
	}
	if !off.Conserved() || !on.Conserved() {
		t.Fatalf("conservation broken: off=%+v on=%+v", off, on)
	}
	t.Logf("retries=%d dropped %d -> %d, queued %d -> %d",
		on.BalanceRetries, off.Dropped, on.Dropped, off.QueuedEnd, on.QueuedEnd)
}
