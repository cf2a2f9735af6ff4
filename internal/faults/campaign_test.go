package faults

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"neofog/internal/pool"
	"neofog/internal/sim"
)

func TestCampaignRun(t *testing.T) {
	c := Campaign{Base: baseConfig(t, 400, 10), Seed: 5}
	rep, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Points) != 5 {
		t.Fatalf("points = %d, want the default 5 intensities", len(rep.Points))
	}
	if len(rep.Table.Rows) != 5 {
		t.Fatalf("table rows = %d, want 5", len(rep.Table.Rows))
	}

	// The zero-intensity point is exactly the plain run of Base (plus the
	// campaign's journal, which must not perturb anything).
	plain, err := sim.Run(c.Base)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep.Points[0].Result, plain) {
		t.Fatal("campaign baseline diverged from a plain run of Base")
	}
	if rep.Points[0].Events != 0 {
		t.Fatalf("baseline injected %d events", rep.Points[0].Events)
	}

	// Intensity and event count rise along the sweep; the full-intensity
	// point carries visible damage.
	for i := 1; i < len(rep.Points); i++ {
		if rep.Points[i].Events < rep.Points[i-1].Events {
			t.Fatalf("event count fell along the sweep: %d after %d",
				rep.Points[i].Events, rep.Points[i-1].Events)
		}
	}
	last := rep.Points[len(rep.Points)-1].Result
	if last.CrashedSlots+last.StuckSamples+last.LostInFlight == 0 {
		t.Fatal("full intensity left no trace of injected faults")
	}
	if rep.TailStart >= c.Base.Rounds {
		t.Fatalf("recovery window [%d, %d) is empty", rep.TailStart, c.Base.Rounds)
	}
}

func TestCampaignDeterminism(t *testing.T) {
	mk := func() string {
		rep, err := Campaign{Base: baseConfig(t, 400, 11), Seed: 6}.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return rep.Table.Format()
	}
	a, b := mk(), mk()
	if a != b {
		t.Fatalf("campaign report nondeterministic:\n%s\nvs\n%s", a, b)
	}
	if !strings.Contains(a, "Chaos campaign") {
		t.Fatalf("report missing title:\n%s", a)
	}
}

func TestCampaignRejectsBadSetups(t *testing.T) {
	base := baseConfig(t, 200, 12)

	c := Campaign{Base: base, Intensities: []float64{0.5, 1}}
	if _, err := c.Run(context.Background()); err == nil {
		t.Error("missing zero baseline should error")
	}
	c = Campaign{Base: base, Intensities: []float64{0, 1, 0.5}}
	if _, err := c.Run(context.Background()); err == nil {
		t.Error("decreasing intensities should error")
	}
	c = Campaign{Base: base, Intensities: []float64{0, 2}}
	if _, err := c.Run(context.Background()); err == nil {
		t.Error("out-of-range intensity should error")
	}

	observed := base
	observed.OnRound = func(sim.RoundStats) error { return nil }
	if _, err := (Campaign{Base: observed}).Run(context.Background()); err == nil {
		t.Error("a pre-set round observer should be rejected")
	}

	withHooks := base
	withHooks.Faults.AbortBalance = func(int) bool { return false }
	if _, err := (Campaign{Base: withHooks}).Run(context.Background()); err == nil {
		t.Error("pre-set fault hooks should be rejected")
	}

	if _, err := (Campaign{}).Run(context.Background()); err == nil {
		t.Error("an empty base config should be rejected")
	}
}

// cancelAfter is a context whose Err reports context.Canceled from its
// (n+1)th call on, so a sweep that checks it before each point sees it
// cancelled once n points have started. It counts its calls.
type cancelAfter struct {
	context.Context
	n     int64
	calls atomic.Int64
}

func (c *cancelAfter) Err() error {
	if c.calls.Add(1) > c.n {
		return context.Canceled
	}
	return nil
}

// checkCancel runs a campaign at widths 1 and 2 under a context cancelled
// before the sweep and under one cancelled after two of its five points
// started. Both surface context.Canceled. A serial sweep stops at the
// cancelled point, so it checks the context three times; a parallel one
// (when GOMAXPROCS allows two workers) checks it once for every point.
func checkCancel(t *testing.T, run func(ctx context.Context, parallel int) error) {
	t.Helper()
	for _, w := range []int{1, 2} {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if err := run(ctx, w); !errors.Is(err, context.Canceled) {
			t.Errorf("width %d, cancelled before the sweep: want context.Canceled, got %v", w, err)
		}
		midway := &cancelAfter{Context: context.Background(), n: 2}
		if err := run(midway, w); !errors.Is(err, context.Canceled) {
			t.Errorf("width %d, cancelled after two points: want context.Canceled, got %v", w, err)
		}
		want := int64(3)
		if pool.Width(w) > 1 {
			want = 5
		}
		if got := midway.calls.Load(); got != want {
			t.Errorf("width %d: the context was checked %d times, want %d", w, got, want)
		}
	}
}

func TestCampaignCancel(t *testing.T) {
	base := baseConfig(t, 200, 10)
	checkCancel(t, func(ctx context.Context, parallel int) error {
		_, err := Campaign{Base: base, Seed: 5, Parallel: parallel}.Run(ctx)
		return err
	})
}
