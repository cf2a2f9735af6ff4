package sim

import (
	"bytes"
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
// reads no sample past the first ⌈R·S/Step⌉, so traces cut there give a
// DeepEqual Result and the same journal bytes as the whole day. Slots
// cover whole, fractional and sub-step lengths, and runs go with and
// without clone sets and recovery.
func TestRunReadsOnlyItsWindow(t *testing.T) {
	const anchors = 4
	tc := energytrace.SunnyDay()
	tc.Peak = 0.7
	day := energytrace.IndependentSet(tc, 2*anchors, 5*units.Minute, tc.DayLength(), rand.New(rand.NewSource(9)))
	positions := mesh.LineDeployment(anchors, 90)
	for i := 0; i < anchors; i++ {
		positions = append(positions, mesh.Position{X: 15 + 20*float64(i), Y: 2})
	}
	sets, err := virt.BuildCloneSets(positions, anchors)
	if err != nil {
		t.Fatal(err)
	}

	run := func(traces []*energytrace.Sampled, slot units.Duration, rounds int, multiplexed bool) (Result, []byte) {
		t.Helper()
		var journal bytes.Buffer
		cfg := Config{
			Node:         node.DefaultConfig(node.FIOSNVMote, apps.BridgeHealth()),
			Traces:       traces[:anchors],
			Slot:         slot,
			Rounds:       rounds,
			Balancer:     sched.Distributed{},
			Journal:      &journal,
			RecordEnergy: []int{0, anchors - 1},
			Seed:         5,
		}
		if multiplexed {
			cfg.Traces, cfg.CloneSets = traces, sets
			cfg.Recovery = true
		}
		r, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r, journal.Bytes()
	}

	for _, slot := range []units.Duration{12 * units.Second, 7500 * units.Millisecond, 400 * units.Millisecond, 61 * units.Second} {
		perDay := int(tc.DayLength() / slot)
		for _, rounds := range []int{1, 30, perDay - 1, perDay} {
			keep := int((units.Duration(rounds)*slot + tc.Step - 1) / tc.Step)
			cut := make([]*energytrace.Sampled, len(day))
			for i, tr := range day {
				cut[i] = &energytrace.Sampled{Step: tr.Step, Samples: tr.Samples[:keep]}
			}
			for _, multiplexed := range []bool{false, true} {
				name := fmt.Sprintf("slot %v rounds %d clones and recovery %v", slot, rounds, multiplexed)
				want, wantJournal := run(day, slot, rounds, multiplexed)
				got, gotJournal := run(cut, slot, rounds, multiplexed)
				if want.Rounds != rounds {
					t.Fatalf("%s: whole-day run made %d rounds", name, want.Rounds)
				}
				if !reflect.DeepEqual(want, got) {
					t.Errorf("%s: result over %d samples differs from the whole day:\n got %+v\nwant %+v", name, keep, got, want)
				}
				if !bytes.Equal(wantJournal, gotJournal) {
					t.Errorf("%s: journal over %d samples differs from the whole day", name, keep)
				}
			}
		}
	}
}
