package sim

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"neofog/internal/apps"
	"neofog/internal/energytrace"
	"neofog/internal/mesh"
	"neofog/internal/node"
	"neofog/internal/sched"
	"neofog/internal/units"
	"neofog/internal/virt"
)

// randomConfig derives an arbitrary-but-valid simulation setup from one
// seed: node count, run length, system stack, balancer, income level, and
// a random set of fault windows covering every hook. Everything downstream
// of the seed is deterministic, so a failing seed reproduces exactly.
func randomConfig(seed int64) Config {
	rng := rand.New(rand.NewSource(seed))
	nodes := 2 + rng.Intn(5)     // 2–6
	rounds := 50 + rng.Intn(101) // 50–150

	kinds := []node.SystemKind{node.NOSVP, node.NOSNVP, node.FIOSNVMote}
	balancers := []sched.Balancer{sched.NoBalance{}, sched.BaselineTree{}, sched.Distributed{}}

	tc := energytrace.SunnyDay()
	tc.Peak = units.Power(0.3 + rng.Float64()*1.2)
	slot := energytrace.IncomeOpts{Slot: 12 * units.Second}
	income := energytrace.IndependentIncome(tc, nodes, 5*units.Minute, slot, rng)

	cfg := Config{
		Node:     node.DefaultConfig(kinds[rng.Intn(len(kinds))], apps.BridgeHealth()),
		Income:   income,
		Slot:     slot.Slot,
		Rounds:   rounds,
		Balancer: balancers[rng.Intn(len(balancers))],
		Seed:     rng.Int63(),
	}
	if rng.Intn(2) == 0 {
		cfg.Node.FogInstsPerByte = 500
	}
	cfg.Faults = randomHooks(rng, nodes, rounds)
	if cfg.Faults.Link == nil {
		// No degradation window: the whole run gets a lossier link.
		lossy := mesh.LinkModel{SuccessRate: 0.85 + rng.Float64()*0.15}
		cfg.Faults.Link = func(int) (mesh.LinkModel, bool) { return lossy, true }
	}
	// Half the runs exercise the self-healing layer; a third of those also
	// run NVD4Q partner-clone pairs so clone failover has survivors to
	// promote.
	if rng.Intn(2) == 0 {
		cfg.Recovery = true
		if rng.Intn(3) == 0 {
			cfg.Income = energytrace.IndependentIncome(tc, 2*nodes, 5*units.Minute, slot, rng)
			sets := make([]virt.LogicalNode, nodes)
			for i := range sets {
				sets[i] = virt.LogicalNode{ID: i, Clones: []int{i, nodes + i}}
			}
			cfg.CloneSets = sets
		}
	}
	return cfg
}

// window is one randomized fault interval against one node (or all, for
// the global kinds).
type window struct {
	node       int // -1 = any node
	start, end int
}

func (w window) hits(phys, round int) bool {
	return (w.node == -1 || w.node == phys) && round >= w.start && round < w.end
}

func randomWindows(rng *rand.Rand, nodes, rounds, count int, global bool) []window {
	ws := make([]window, count)
	for i := range ws {
		n := rng.Intn(nodes)
		if global {
			n = -1
		}
		start := rng.Intn(rounds)
		ws[i] = window{node: n, start: start, end: start + 1 + rng.Intn(rounds/4+1)}
	}
	return ws
}

// randomHooks builds FaultHooks straight from randomized event windows —
// the same shape internal/faults compiles, but constructed here because
// faults imports sim. Each hook kind is present with probability ½.
func randomHooks(rng *rand.Rand, nodes, rounds int) FaultHooks {
	var h FaultHooks
	nodeHook := func(ws []window) func(int, int) bool {
		return func(phys, round int) bool {
			for _, w := range ws {
				if w.hits(phys, round) {
					return true
				}
			}
			return false
		}
	}
	if rng.Intn(2) == 0 {
		h.NodeDown = nodeHook(randomWindows(rng, nodes, rounds, 1+rng.Intn(3), false))
	}
	if rng.Intn(2) == 0 {
		h.Blackout = nodeHook(randomWindows(rng, nodes, rounds, 1+rng.Intn(2), rng.Intn(2) == 0))
	}
	if rng.Intn(2) == 0 {
		h.RFFailed = nodeHook(randomWindows(rng, nodes, rounds, 1+rng.Intn(3), false))
	}
	if rng.Intn(2) == 0 {
		h.SensorStuck = nodeHook(randomWindows(rng, nodes, rounds, 1+rng.Intn(3), false))
	}
	if rng.Intn(2) == 0 {
		ws := randomWindows(rng, nodes, rounds, 1, true)
		degraded := mesh.LinkModel{SuccessRate: 0.5 + rng.Float64()*0.4}
		h.Link = func(round int) (mesh.LinkModel, bool) {
			if ws[0].hits(0, round) {
				return degraded, true
			}
			return mesh.LinkModel{}, false
		}
	}
	if rng.Intn(2) == 0 {
		ws := randomWindows(rng, nodes, rounds, 1, true)
		h.AbortBalance = func(round int) bool { return ws[0].hits(0, round) }
	}
	return h
}

// Property: the packet-accounting identity holds exactly for every
// configuration and fault plan — Samples = Fog + Cloud + Dropped +
// LostRaw + Unexecuted + QueuedEnd. No fault combination may leak or
// conjure packets.
func TestConservationProperty(t *testing.T) {
	prop := func(seed int64) bool {
		cfg := randomConfig(seed)
		r, err := Run(cfg)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if !r.Conserved() {
			t.Logf("seed %d: samples=%d fog=%d cloud=%d dropped=%d lostRaw=%d unexec=%d queued=%d",
				seed, r.Samples, r.FogProcessed, r.CloudProcessed, r.Dropped,
				r.LostRaw, r.Unexecuted, r.QueuedEnd)
			return false
		}
		// Sanity: the counters are internally coherent too.
		if r.LostInFlight != r.LostRaw+r.LostResults {
			t.Logf("seed %d: lostInFlight=%d != raw %d + results %d",
				seed, r.LostInFlight, r.LostRaw, r.LostResults)
			return false
		}
		if r.OrphanLost < 0 || r.OrphanLost > r.LostRaw {
			t.Logf("seed %d: orphanLost=%d outside [0, lostRaw=%d]", seed, r.OrphanLost, r.LostRaw)
			return false
		}
		// Recovery counters exist only when the layer is armed.
		if !cfg.Recovery && (r.Retransmits != 0 || r.FailoverSlots != 0 || r.BalanceRetries != 0) {
			t.Logf("seed %d: recovery disabled but rtx=%d failover=%d balRetries=%d",
				seed, r.Retransmits, r.FailoverSlots, r.BalanceRetries)
			return false
		}
		if r.Retransmits < 0 || r.FailoverSlots < 0 || r.BalanceRetries < 0 {
			t.Logf("seed %d: negative recovery counter", seed)
			return false
		}
		return r.Samples <= r.Wakeups && r.TotalProcessed() <= r.Samples
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: the run is a pure function of its configuration — the same
// seed (including the same fault plan) reproduces the full Result
// bit-for-bit, faults and all.
func TestDeterminismProperty(t *testing.T) {
	prop := func(seed int64) bool {
		a, errA := Run(randomConfig(seed))
		b, errB := Run(randomConfig(seed))
		if errA != nil || errB != nil {
			t.Logf("seed %d: %v / %v", seed, errA, errB)
			return false
		}
		if !reflect.DeepEqual(a, b) {
			t.Logf("seed %d diverged:\n%+v\n%+v", seed, a, b)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// Property: determinism extends to the journal stream with the recovery
// layer armed — retries, failovers, and lease rollbacks must not introduce
// any nondeterministic ordering into the per-round observability record.
func TestJournalDeterminismWithRecovery(t *testing.T) {
	prop := func(seed int64) bool {
		run := func() ([]RoundStats, Result, error) {
			cfg := randomConfig(seed)
			cfg.Recovery = true
			rounds := recordRounds(&cfg)
			r, err := Run(cfg)
			return *rounds, r, err
		}
		ja, a, errA := run()
		jb, b, errB := run()
		if errA != nil || errB != nil {
			t.Logf("seed %d: %v / %v", seed, errA, errB)
			return false
		}
		if !reflect.DeepEqual(ja, jb) {
			t.Logf("seed %d: round stats diverged (%d vs %d rounds)", seed, len(ja), len(jb))
			return false
		}
		if !reflect.DeepEqual(a, b) {
			t.Logf("seed %d: results diverged:\n%+v\n%+v", seed, a, b)
			return false
		}
		return a.Conserved()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}
