package faults

import (
	"math/rand"
	"strings"
	"testing"

	"neofog/internal/energytrace"
	"neofog/internal/sim"
	"neofog/internal/units"
	"neofog/internal/virt"
)

// cloneBaseConfig pairs every logical node of baseConfig with an NVD4Q
// clone: the deployment where the recovery layer has a real lever (a
// crashed slot owner's phase can be absorbed by its partner).
func cloneBaseConfig(t *testing.T, rounds int, seed int64) sim.Config {
	t.Helper()
	cfg := baseConfig(t, rounds, seed)
	n := len(cfg.Traces)
	tc := energytrace.SunnyDay()
	tc.Peak = units.Power(0.7)
	cfg.Traces = energytrace.IndependentSet(tc, 2*n, 5*units.Minute, tc.DayLength(), rand.New(rand.NewSource(seed)))
	sets := make([]virt.LogicalNode, n)
	for i := range sets {
		sets[i] = virt.LogicalNode{ID: i, Clones: []int{i, n + i}}
	}
	cfg.CloneSets = sets
	return cfg
}

func TestResilienceCampaignRun(t *testing.T) {
	c := ResilienceCampaign{Base: cloneBaseConfig(t, 400, 10), Seed: 5}
	rep, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Points) != 5 {
		t.Fatalf("points = %d, want the default 5 intensities", len(rep.Points))
	}
	if len(rep.Table.Rows) != 5 {
		t.Fatalf("table rows = %d, want 5", len(rep.Table.Rows))
	}
	// The invariants (zero-intensity bit-identity, conservation, weak
	// dominance, strict improvement somewhere) are asserted inside Run;
	// here we spot-check the visible shape of the outcome.
	if rep.Points[0].Events != 0 {
		t.Fatalf("anchor injected %d events", rep.Points[0].Events)
	}
	if rep.Points[0].On.Retransmits != 0 {
		t.Fatal("the zero-intensity on arm must not arm recovery")
	}
	var recoveryUsed bool
	for _, pt := range rep.Points[1:] {
		if pt.On.Retransmits+pt.On.FailoverSlots+pt.On.BalanceRetries > 0 {
			recoveryUsed = true
		}
	}
	if !recoveryUsed {
		t.Fatal("no faulted point ever exercised the recovery layer")
	}
}

func TestResilienceCampaignDeterminism(t *testing.T) {
	mk := func() string {
		rep, err := ResilienceCampaign{Base: cloneBaseConfig(t, 400, 11), Seed: 6}.Run()
		if err != nil {
			t.Fatal(err)
		}
		return rep.Table.Format()
	}
	a, b := mk(), mk()
	if a != b {
		t.Fatalf("resilience report nondeterministic:\n%s\nvs\n%s", a, b)
	}
	if !strings.Contains(a, "Resilience A/B") {
		t.Fatalf("report missing title:\n%s", a)
	}
}

func TestResilienceCampaignRejectsBadSetups(t *testing.T) {
	base := cloneBaseConfig(t, 200, 12)

	c := ResilienceCampaign{Base: base, Intensities: []float64{0.5, 1}}
	if _, err := c.Run(); err == nil {
		t.Error("missing zero anchor should error")
	}
	c = ResilienceCampaign{Base: base, Intensities: []float64{0, 1, 0.5}}
	if _, err := c.Run(); err == nil {
		t.Error("decreasing intensities should error")
	}

	withRecovery := base
	withRecovery.Recovery = true
	if _, err := (ResilienceCampaign{Base: withRecovery}).Run(); err == nil {
		t.Error("a pre-armed recovery config should be rejected")
	}

	withJournal := base
	withJournal.Journal = &strings.Builder{}
	if _, err := (ResilienceCampaign{Base: withJournal}).Run(); err == nil {
		t.Error("a pre-set journal should be rejected")
	}

	withHooks := base
	withHooks.Faults.NodeDown = func(int, int) bool { return false }
	if _, err := (ResilienceCampaign{Base: withHooks}).Run(); err == nil {
		t.Error("pre-set fault hooks should be rejected")
	}

	if _, err := (ResilienceCampaign{}).Run(); err == nil {
		t.Error("an empty base config should be rejected")
	}
}

// The off arm of every point must be bit-identical to the matching point
// of the plain chaos campaign: the A/B changes nothing about how faults
// are generated or applied.
func TestResilienceOffArmMatchesChaos(t *testing.T) {
	base := cloneBaseConfig(t, 400, 13)
	chaos, err := Campaign{Base: base, Seed: 9}.Run()
	if err != nil {
		t.Fatal(err)
	}
	ab, err := ResilienceCampaign{Base: base, Seed: 9}.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i, pt := range ab.Points {
		cp := chaos.Points[i].Result
		// The chaos campaign journals its runs and the A/B does not, so
		// compare the packet ledger rather than reflect.DeepEqual.
		if pt.Off.Samples != cp.Samples || pt.Off.FogProcessed != cp.FogProcessed ||
			pt.Off.CloudProcessed != cp.CloudProcessed || pt.Off.Dropped != cp.Dropped ||
			pt.Off.LostRaw != cp.LostRaw || pt.Off.QueuedEnd != cp.QueuedEnd {
			t.Fatalf("intensity %v: off arm diverged from chaos point:\noff:   %+v\nchaos: %+v",
				pt.Intensity, pt.Off, cp)
		}
	}
}
