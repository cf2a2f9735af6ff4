package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"neofog/internal/apps"
	"neofog/internal/energytrace"
	"neofog/internal/mesh"
	"neofog/internal/node"
	"neofog/internal/sched"
	"neofog/internal/units"
	"neofog/internal/virt"
)

// TestRunReadsOnlyItsWindow pins the property the facade relies on when
// it synthesises only the income a run reads: a run of R rounds at slot S
// reads no slot past the R-th, so income synthesised over a span of R·S
// (R slots, from the first ⌈R·S/Step⌉ samples of each node's day) gives
// a DeepEqual Result and the same journal bytes as the whole day's.
// Slots cover whole, fractional and sub-step lengths, and runs go with
// and without clone sets and recovery.
func TestRunReadsOnlyItsWindow(t *testing.T) {
	const anchors = 4
	tc := energytrace.SunnyDay()
	tc.Peak = 0.7
	synth := func(slot, span units.Duration) []energytrace.Income {
		opts := energytrace.IncomeOpts{Slot: slot, Span: span}
		return energytrace.IndependentIncome(tc, 2*anchors, 5*units.Minute, opts, rand.New(rand.NewSource(9)))
	}
	positions := mesh.LineDeployment(anchors, 90)
	for i := 0; i < anchors; i++ {
		positions = append(positions, mesh.Position{X: 15 + 20*float64(i), Y: 2})
	}
	sets, err := virt.BuildCloneSets(positions, anchors)
	if err != nil {
		t.Fatal(err)
	}

	run := func(income []energytrace.Income, slot units.Duration, rounds int, multiplexed bool) (Result, []RoundStats) {
		t.Helper()
		cfg := Config{
			Node:         node.DefaultConfig(node.FIOSNVMote, apps.BridgeHealth()),
			Income:       income[:anchors],
			Slot:         slot,
			Rounds:       rounds,
			Balancer:     sched.Distributed{},
			RecordEnergy: []int{0, anchors - 1},
			Seed:         5,
		}
		if multiplexed {
			cfg.Income, cfg.CloneSets = income, sets
			cfg.Recovery = true
		}
		journal := recordRounds(&cfg)
		r, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r, *journal
	}

	for _, slot := range []units.Duration{12 * units.Second, 7500 * units.Millisecond, 400 * units.Millisecond, 61 * units.Second} {
		perDay := int(tc.DayLength() / slot)
		day := synth(slot, 0)
		for _, rounds := range []int{1, 30, perDay - 1, perDay} {
			cut := synth(slot, units.Duration(rounds)*slot)
			if len(cut[0].Energy) != rounds {
				t.Fatalf("slot %v rounds %d: income over the span holds %d slots", slot, rounds, len(cut[0].Energy))
			}
			for _, multiplexed := range []bool{false, true} {
				name := fmt.Sprintf("slot %v rounds %d clones and recovery %v", slot, rounds, multiplexed)
				want, wantJournal := run(day, slot, rounds, multiplexed)
				got, gotJournal := run(cut, slot, rounds, multiplexed)
				if want.Rounds != rounds {
					t.Fatalf("%s: whole-day run made %d rounds", name, want.Rounds)
				}
				if !reflect.DeepEqual(want, got) {
					t.Errorf("%s: result over %d slots differs from the whole day:\n got %+v\nwant %+v", name, rounds, got, want)
				}
				if !reflect.DeepEqual(wantJournal, gotJournal) {
					t.Errorf("%s: journal over %d slots differs from the whole day", name, rounds)
				}
			}
		}
	}
}
