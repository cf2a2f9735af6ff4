package experiments

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"neofog/internal/sim"
	"neofog/internal/telemetry"
	"neofog/internal/units"
)

// TestSweepCancellation checks the context plumbing at both pool widths:
// a pre-cancelled sweep runs no points and surfaces the context's error;
// an uncancelled context changes nothing.
func TestSweepCancellation(t *testing.T) {
	for _, par := range []int{1, 4} {
		var ran atomic.Int64
		points := make([]sweepPoint, 6)
		for i := range points {
			points[i].run = func() (sim.Result, *telemetry.Recorder, error) {
				ran.Add(1)
				return sim.Result{}, nil, nil
			}
		}

		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_, err := runSweep(Options{Ctx: ctx, Parallel: par}, points)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("parallel=%d: want context.Canceled, got %v", par, err)
		}
		if n := ran.Load(); n != 0 {
			t.Fatalf("parallel=%d: pre-cancelled sweep ran %d points", par, n)
		}

		if _, err := runSweep(Options{Ctx: context.Background(), Parallel: par}, points); err != nil {
			t.Fatalf("parallel=%d: live context errored: %v", par, err)
		}
		if n := ran.Load(); n != int64(len(points)) {
			t.Fatalf("parallel=%d: live sweep ran %d of %d points", par, n, len(points))
		}
	}
}

// TestSweepCancelMidway cancels after the third point at width 1 and
// checks the sweep stops early with the context error.
func TestSweepCancelMidway(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran atomic.Int64
	points := make([]sweepPoint, 6)
	for i := range points {
		i := i
		points[i].run = func() (sim.Result, *telemetry.Recorder, error) {
			ran.Add(1)
			if i == 2 {
				cancel()
			}
			return sim.Result{}, nil, nil
		}
	}
	_, err := runSweep(Options{Ctx: ctx, Parallel: 1}, points)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if n := ran.Load(); n != 3 {
		t.Fatalf("want exactly 3 points run before cancellation, got %d", n)
	}
}

// TestSweepDispatchOrder runs synthetic sweeps whose costs ascend, descend
// and tie, at widths 1, 2 and 4: the dispatch order changes with the costs
// and the width, and the results, the merged telemetry bytes and the
// surfaced error must not. Errors planted at two indices must surface as
// the lower one's.
func TestSweepDispatchOrder(t *testing.T) {
	const n = 9
	errLow, errHigh := errors.New("planted at 3"), errors.New("planted at 6")
	costs := map[string]func(i int) int{
		"ascending":  func(i int) int { return i },
		"descending": func(i int) int { return n - i },
		"all equal":  func(int) int { return 1 },
	}
	build := func(cost func(int) int, planted bool) []sweepPoint {
		points := make([]sweepPoint, n)
		for i := range points {
			points[i] = sweepPoint{cost: cost(i), run: func() (sim.Result, *telemetry.Recorder, error) {
				if planted && i == 3 {
					return sim.Result{}, nil, errLow
				}
				if planted && i == 6 {
					return sim.Result{}, nil, errHigh
				}
				child := telemetry.New()
				child.Span(i, telemetry.PhaseFog, units.Duration(i)*units.Second, units.Second, float64(i))
				child.Count("points", 1)
				return sim.Result{Wakeups: 10 * i, FogProcessed: i}, child, nil
			}}
		}
		return points
	}

	var wantResults []sim.Result
	var wantTel []byte
	for name, cost := range costs {
		for _, w := range []int{1, 2, 4} {
			rec := telemetry.New()
			results, err := runSweep(Options{Parallel: w, Telemetry: rec}, build(cost, false))
			if err != nil {
				t.Fatalf("%s, width %d: %v", name, w, err)
			}
			tel := telemetryBytes(t, rec)
			if wantResults == nil {
				wantResults, wantTel = results, tel
			}
			if !reflect.DeepEqual(results, wantResults) {
				t.Errorf("%s, width %d: results %v, want %v", name, w, results, wantResults)
			}
			if !bytes.Equal(tel, wantTel) {
				t.Errorf("%s, width %d: merged telemetry differs", name, w)
			}
			if got := rec.Counter("points"); got != n {
				t.Errorf("%s, width %d: merged %d children, want %d", name, w, got, n)
			}

			if _, err := runSweep(Options{Parallel: w, Telemetry: telemetry.New()}, build(cost, true)); err != errLow {
				t.Errorf("%s, width %d: error %v, want %v", name, w, err, errLow)
			}
		}
	}
}

// TestSweepCancelStopsCampaigns checks that the chaos and resilience
// experiments hand Options.Ctx to their campaigns: a cancelled context
// stops both at widths 1 and 2 with its error.
func TestSweepCancelStopsCampaigns(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, w := range []int{1, 2} {
		opts := Options{Ctx: ctx, Nodes: 4, Rounds: 150, Parallel: w}
		if _, err := Chaos(opts); !errors.Is(err, context.Canceled) {
			t.Errorf("chaos, width %d: want context.Canceled, got %v", w, err)
		}
		if _, err := Resilience(opts); !errors.Is(err, context.Canceled) {
			t.Errorf("resilience, width %d: want context.Canceled, got %v", w, err)
		}
	}
}
