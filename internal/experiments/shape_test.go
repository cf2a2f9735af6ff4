package experiments

import (
	"sync"
	"testing"

	"neofog/internal/energytrace"
)

// TestShapesMatchRunners holds each exported Shape to what its runner
// builds at 6 nodes. The runners that take an income generator get one
// that tallies every set's size: the largest and the summed sizes, over
// Nodes, are the shape's Multiplexing and Income. The campaigns build
// one set for their whole deployment, so their runs' physical nodes are
// Multiplexing × Nodes and Income equals Multiplexing.
func TestShapesMatchRunners(t *testing.T) {
	opts := Options{Seed: 1, Nodes: 6, Rounds: 30, Parallel: 2}
	var (
		mu    sync.Mutex
		sizes []int
	)
	tally := func(nodes int) {
		mu.Lock()
		sizes = append(sizes, nodes)
		mu.Unlock()
	}
	check := func(name string, want Shape, run func() error) {
		t.Helper()
		sizes = nil
		if err := run(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var got Shape
		for _, n := range sizes {
			got.Multiplexing = max(got.Multiplexing, n/opts.Nodes)
			got.Income += n / opts.Nodes
		}
		if got != want {
			t.Errorf("%s builds sets of %v nodes: shape %+v, exported %+v", name, sizes, got, want)
		}
	}
	check("fig9", Fig9Shape, func() error {
		_, err := fig9(opts, func(nodes int, seed int64) []energytrace.Income {
			tally(nodes)
			return fig9Income(nodes, seed)
		})
		return err
	})
	check("fig10", PacketsShape, func() error {
		_, _, err := figPackets("fig10", func(profile, nodes int, seed int64) []energytrace.Income {
			tally(nodes)
			return forestProfile(profile, nodes, seed)
		}, opts)
		return err
	})
	multiplexed := func(nodes int, seed int64) []energytrace.Income {
		tally(nodes)
		return fig13Income(nodes, seed)
	}
	check("fig13", MultiplexShape, func() error {
		_, _, err := figMultiplex("fig13", multiplexed, opts)
		return err
	})
	check("headline", HeadlineShape, func() error {
		_, err := runMultiplex(multiplexed, opts, headlineFactors...)
		return err
	})

	chaos, err := Chaos(opts)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(chaos.Report.Points[0].Result.PerNode); n != ChaosShape.Multiplexing*opts.Nodes || ChaosShape.Income != ChaosShape.Multiplexing {
		t.Errorf("chaos deploys %d physical nodes: exported %+v", n, ChaosShape)
	}
	res, err := Resilience(opts)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(res.Report.Points[0].On.PerNode); n != ResilienceShape.Multiplexing*opts.Nodes || ResilienceShape.Income != ResilienceShape.Multiplexing {
		t.Errorf("resilience deploys %d physical nodes: exported %+v", n, ResilienceShape)
	}
}
