package experiments

import (
	"runtime"
	"sync"

	"neofog/internal/sim"
	"neofog/internal/telemetry"
)

// This file is the deterministic parallel sweep engine. Every figure sweep
// in this package runs independent points — (system, power profile, seed)
// tuples that share only read-only inputs — so the points can fan out
// through a bounded worker pool and still produce byte-identical tables,
// CSVs, and goldens: results and telemetry children are merged in input
// order, and the first error is surfaced exactly where the serial loop
// would have stopped.

// sweepPoint is one independent simulation of a sweep: it must not touch
// state shared with other points except read-only inputs (traces, clone
// sets). The returned recorder is the point's private telemetry child (nil
// when telemetry is off).
type sweepPoint func() (sim.Result, *telemetry.Recorder, error)

// workers resolves the Options.Parallel knob to a pool width, bounded the
// same way neofog.SimulateFleet bounds its chain fan-out.
func (o Options) workers() int {
	w := o.Parallel
	if w < 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if max := runtime.GOMAXPROCS(0); w > max {
		w = max
	}
	if w < 1 {
		w = 1
	}
	return w
}

// runSweep executes the points and returns their results in input order.
//
// Determinism contract: the output of runSweep — results slice, telemetry
// merge order, and which error surfaces — is identical at every pool
// width. Serially, points run in order and stop at the first error (later
// points never execute). In parallel, every point runs, then the same
// in-order scan merges telemetry children and returns the first error, so
// the error and all observable state match the serial run; the extra
// results computed past an error are discarded with the sweep.
func runSweep(opts Options, points []sweepPoint) ([]sim.Result, error) {
	results := make([]sim.Result, len(points))
	children := make([]*telemetry.Recorder, len(points))
	errs := make([]error, len(points))

	// Cancellation is checked between points, never inside one: a point
	// that has started always completes, so a cancelled sweep leaves no
	// half-recorded telemetry, and the in-order error scan below surfaces
	// ctx.Err() at the first point the serial run would not have started.
	cancelled := func() error {
		if opts.Ctx == nil {
			return nil
		}
		return opts.Ctx.Err()
	}

	if w := opts.workers(); w <= 1 || len(points) <= 1 {
		for i, pt := range points {
			if errs[i] = cancelled(); errs[i] != nil {
				break
			}
			results[i], children[i], errs[i] = pt()
			if errs[i] != nil {
				break
			}
		}
	} else {
		sem := make(chan struct{}, w)
		var wg sync.WaitGroup
		for i, pt := range points {
			wg.Add(1)
			go func(i int, pt sweepPoint) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				if errs[i] = cancelled(); errs[i] != nil {
					return
				}
				results[i], children[i], errs[i] = pt()
			}(i, pt)
		}
		wg.Wait()
	}

	for i := range points {
		if errs[i] != nil {
			return nil, errs[i]
		}
		opts.Telemetry.MergeNext(children[i])
	}
	return results, nil
}
