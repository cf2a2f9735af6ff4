package faults

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"neofog/internal/apps"
	"neofog/internal/energytrace"
	"neofog/internal/node"
	"neofog/internal/sched"
	"neofog/internal/sim"
	"neofog/internal/units"
)

func baseConfig(t *testing.T, rounds int, seed int64) sim.Config {
	t.Helper()
	cfg := energytrace.SunnyDay()
	cfg.Peak = units.Power(0.7)
	traces := energytrace.IndependentSet(cfg, 10, 5*units.Minute, cfg.DayLength(), rand.New(rand.NewSource(seed)))
	return sim.Config{
		Node:     node.DefaultConfig(node.FIOSNVMote, apps.BridgeHealth()),
		Traces:   traces,
		Slot:     12 * units.Second,
		Rounds:   rounds,
		Balancer: sched.Distributed{},
		Seed:     7,
	}
}

func mustRun(t *testing.T, cfg sim.Config) sim.Result {
	t.Helper()
	r, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		Crash: "crash", Blackout: "blackout", RFInitFail: "rf-init-fail",
		SensorStuck: "sensor-stuck", LinkDegrade: "link-degrade", BalanceAbort: "balance-abort",
		Kind(99): "Kind(99)",
	} {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
}

func TestPlanValidate(t *testing.T) {
	bad := []Plan{
		{Events: []Event{{Kind: Kind(42), Node: 0, Start: 0, End: 1}}},
		{Events: []Event{{Kind: Crash, Node: 0, Start: 5, End: 3}}},
		{Events: []Event{{Kind: Crash, Node: 0, Start: -1, End: 3}}},
		{Events: []Event{{Kind: Crash, Node: -1, Start: 0, End: 1}}},
		{Events: []Event{{Kind: LinkDegrade, Node: 2, Start: 0, End: 1, SuccessRate: 0.5}}},
		{Events: []Event{{Kind: BalanceAbort, Node: 0, Start: 0, End: 1}}},
		{Events: []Event{{Kind: LinkDegrade, Node: -1, Start: 0, End: 1, SuccessRate: 1.5}}},
	}
	for i := range bad {
		if err := bad[i].Validate(); err == nil {
			t.Errorf("plan %d should fail validation", i)
		}
	}
	good := Plan{Events: []Event{
		{Kind: Crash, Node: 3, Start: 10, End: 20},
		{Kind: LinkDegrade, Node: -1, Start: 5, End: 9, SuccessRate: 0.4},
		{Kind: BalanceAbort, Node: -1, Start: 0, End: 100},
	}}
	if err := good.Validate(); err != nil {
		t.Errorf("good plan rejected: %v", err)
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := Generate(1, 0.5, 0, 0); err == nil {
		t.Error("missing run shape should error")
	}
	if _, err := Generate(1, -0.1, 10, 100); err == nil {
		t.Error("negative intensity should error")
	}
	if _, err := Generate(1, 1.1, 10, 100); err == nil {
		t.Error("intensity > 1 should error")
	}
}

func TestGenerateDeterministicAndNested(t *testing.T) {
	full, err := Generate(42, 1, 10, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Events) != 20 {
		t.Fatalf("full plan has %d events, want 2×nodes = 20", len(full.Events))
	}
	again, err := Generate(42, 1, 10, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(full, again) {
		t.Fatal("same seed produced different plans")
	}
	other, err := Generate(43, 1, 10, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(full, other) {
		t.Fatal("different seeds produced identical plans")
	}

	// Nesting: a lower-intensity plan is a prefix of the full plan.
	for _, intensity := range []float64{0, 0.1, 0.25, 0.5, 0.75} {
		p, err := Generate(42, intensity, 10, 1000)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(p.Events, full.Events[:len(p.Events)]) {
			t.Fatalf("intensity %v plan is not a prefix of the full plan", intensity)
		}
	}

	// Generated events stay inside the fault window.
	lo, hi := int(0.25*1000), int(0.60*1000)
	for i, e := range full.Events {
		if e.Start < lo || e.End > hi {
			t.Errorf("event %d window [%d,%d) escapes the fault window [%d,%d)", i, e.Start, e.End, lo, hi)
		}
	}
	if full.LastEnd() > hi {
		t.Fatalf("LastEnd %d past window end %d", full.LastEnd(), hi)
	}
}

func TestEmptyPlanCompilesToZeroHooks(t *testing.T) {
	var p Plan
	h := p.Hooks()
	if h.NodeDown != nil || h.Blackout != nil || h.RFFailed != nil ||
		h.SensorStuck != nil || h.Link != nil || h.AbortBalance != nil {
		t.Fatal("empty plan must compile to all-nil hooks")
	}
}

// The guarantee everything else rests on: installing a zero-event plan
// leaves a run bit-identical to one with no fault hooks at all.
func TestZeroPlanBitIdentical(t *testing.T) {
	cfg := baseConfig(t, 300, 1)
	var plainJ, faultJ bytes.Buffer
	plain := cfg
	plain.Journal = &plainJ
	withPlan := cfg
	withPlan.Journal = &faultJ
	(&Plan{}).Apply(&withPlan)

	a := mustRun(t, plain)
	b := mustRun(t, withPlan)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("zero-event plan perturbed the run:\n%+v\nvs\n%+v", a, b)
	}
	if !bytes.Equal(plainJ.Bytes(), faultJ.Bytes()) {
		t.Fatal("zero-event plan perturbed the journal")
	}
}

func TestCrashFault(t *testing.T) {
	cfg := baseConfig(t, 300, 2)
	clean := mustRun(t, cfg)

	faulted := cfg
	plan := &Plan{Events: []Event{
		{Kind: Crash, Node: 2, Start: 100, End: 140},
		{Kind: Crash, Node: 5, Start: 120, End: 150},
	}}
	plan.Apply(&faulted)
	r := mustRun(t, faulted)

	if r.CrashedSlots != 40+30 {
		t.Fatalf("CrashedSlots = %d, want 70 (every covered slot of a single-clone node)", r.CrashedSlots)
	}
	if r.PerNode[2].CrashedSlots != 40 || r.PerNode[5].CrashedSlots != 30 {
		t.Fatalf("per-node crashes = %d/%d, want 40/30",
			r.PerNode[2].CrashedSlots, r.PerNode[5].CrashedSlots)
	}
	if r.TotalProcessed() >= clean.TotalProcessed() {
		t.Fatalf("crashes should cost packets: %d vs clean %d",
			r.TotalProcessed(), clean.TotalProcessed())
	}
	if !r.Conserved() {
		t.Fatal("crash run breaks packet conservation")
	}
}

func TestRFInitFailFault(t *testing.T) {
	cfg := baseConfig(t, 300, 3)
	faulted := cfg
	plan := &Plan{Events: []Event{{Kind: RFInitFail, Node: 4, Start: 80, End: 160}}}
	plan.Apply(&faulted)
	r := mustRun(t, faulted)
	if r.PerNode[4].RFFailures == 0 {
		t.Fatal("an RF-failed node should record failed radio operations")
	}
	for i, s := range r.PerNode {
		if i != 4 && s.RFFailures != 0 {
			t.Fatalf("node %d records RF failures without a fault", i)
		}
	}
	if !r.Conserved() {
		t.Fatal("RF-failure run breaks packet conservation")
	}
}

func TestSensorStuckFault(t *testing.T) {
	cfg := baseConfig(t, 300, 4)
	faulted := cfg
	plan := &Plan{Events: []Event{{Kind: SensorStuck, Node: 1, Start: 50, End: 120}}}
	plan.Apply(&faulted)
	clean := mustRun(t, cfg)
	r := mustRun(t, faulted)
	if r.StuckSamples == 0 || r.StuckSamples > 70 {
		t.Fatalf("StuckSamples = %d, want in (0, 70]", r.StuckSamples)
	}
	// The node cannot tell its sensor is stuck: the packets still flow.
	if r.TotalProcessed() != clean.TotalProcessed() {
		t.Fatalf("a stuck sensor must not change packet flow: %d vs %d",
			r.TotalProcessed(), clean.TotalProcessed())
	}
}

func TestLinkDegradeFault(t *testing.T) {
	cfg := baseConfig(t, 300, 5)
	clean := mustRun(t, cfg)
	faulted := cfg
	plan := &Plan{Events: []Event{{Kind: LinkDegrade, Node: -1, Start: 60, End: 200, SuccessRate: 0.5}}}
	plan.Apply(&faulted)
	r := mustRun(t, faulted)
	if r.LostInFlight <= clean.LostInFlight {
		t.Fatalf("a degraded link should lose more packets: %d vs clean %d",
			r.LostInFlight, clean.LostInFlight)
	}
	if !r.Conserved() {
		t.Fatal("link-degrade run breaks packet conservation")
	}
}

func TestLinkDegradeWorstOverlapWins(t *testing.T) {
	p := &Plan{Events: []Event{
		{Kind: LinkDegrade, Node: -1, Start: 10, End: 30, SuccessRate: 0.8},
		{Kind: LinkDegrade, Node: -1, Start: 20, End: 40, SuccessRate: 0.4},
	}}
	h := p.Hooks()
	for _, tc := range []struct {
		round int
		rate  float64
		ok    bool
	}{{5, 0, false}, {15, 0.8, true}, {25, 0.4, true}, {35, 0.4, true}, {45, 0, false}} {
		lm, ok := h.Link(tc.round)
		if ok != tc.ok || (ok && lm.SuccessRate != tc.rate) {
			t.Errorf("round %d: got (%v, %v), want (%v, %v)", tc.round, lm.SuccessRate, ok, tc.rate, tc.ok)
		}
	}
}

func TestBlackoutFault(t *testing.T) {
	cfg := baseConfig(t, 400, 6)
	clean := mustRun(t, cfg)
	faulted := cfg
	var events []Event
	for n := 0; n < 10; n++ {
		events = append(events, Event{Kind: Blackout, Node: n, Start: 100, End: 250})
	}
	plan := &Plan{Events: events}
	plan.Apply(&faulted)
	r := mustRun(t, faulted)
	if r.TotalProcessed() >= clean.TotalProcessed() {
		t.Fatalf("a fleet-wide 30-minute blackout should cost packets: %d vs clean %d",
			r.TotalProcessed(), clean.TotalProcessed())
	}
	if !r.Conserved() {
		t.Fatal("blackout run breaks packet conservation")
	}
}

// movesSpy wraps a balancer and counts the task delegations it plans —
// the observable that an injected mid-balancing abort must zero out.
type movesSpy struct {
	inner   sched.Balancer
	planned int
}

func (s *movesSpy) Name() string { return s.inner.Name() }
func (s *movesSpy) Plan(sc *sched.Scratch, nodes []sched.NodeLoad, maxTime int, intr float64, rng *rand.Rand) sched.Plan {
	p := s.inner.Plan(sc, nodes, maxTime, intr, rng)
	for _, m := range p.Moves {
		s.planned += m.Count
	}
	return p
}

func TestBalanceAbortFault(t *testing.T) {
	// Scarce, heterogeneous income with a light kernel: some nodes hold
	// backlog while others have spare capacity, so balancing has work.
	mk := func() sim.Config {
		cfg := baseConfig(t, 0, 7)
		cfg.Node.FogInstsPerByte = 500
		sc := energytrace.RainyDay()
		sc.Peak = 0.3 * units.Milliwatt
		cfg.Traces = energytrace.DependentSet(sc, 10, 0.5, rand.New(rand.NewSource(5)))
		return cfg
	}
	clean := mk()
	cleanSpy := &movesSpy{inner: sched.Distributed{}}
	clean.Balancer = cleanSpy
	mustRun(t, clean)
	if cleanSpy.planned == 0 {
		t.Fatal("test needs a baseline whose balancer plans moves")
	}

	faulted := mk()
	faultSpy := &movesSpy{inner: sched.Distributed{}}
	faulted.Balancer = faultSpy
	plan := &Plan{Events: []Event{{Kind: BalanceAbort, Node: -1, Start: 0, End: 1 << 30}}}
	plan.Apply(&faulted)
	r := mustRun(t, faulted)
	// "If load balance algorithm is interrupted, no load balance will take
	// place at that region" — aborting every invocation means no planned
	// delegations at all, and the abort must never corrupt the task
	// assignment (validatePlan inside sim.Run would have errored the run).
	if faultSpy.planned != 0 {
		t.Fatalf("aborted balancing still planned %d delegations", faultSpy.planned)
	}
	if r.Moves != 0 {
		t.Fatalf("aborted balancing still moved %d tasks", r.Moves)
	}
	if !r.Conserved() {
		t.Fatal("balance-abort run breaks packet conservation")
	}
}

// A full-intensity generated plan — every fault kind at once — must still
// conserve packets exactly and keep the run deterministic.
func TestGeneratedPlanConservesAndDeterministic(t *testing.T) {
	cfg := baseConfig(t, 400, 8)
	plan, err := Generate(99, 1, 10, 400)
	if err != nil {
		t.Fatal(err)
	}
	faulted := cfg
	plan.Apply(&faulted)
	a := mustRun(t, faulted)
	b := mustRun(t, faulted)
	if !a.Conserved() {
		t.Fatalf("full-intensity plan breaks conservation: %+v", a)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("faulted run is nondeterministic")
	}
}
