package experiments

import (
	"neofog/internal/pool"
	"neofog/internal/sim"
	"neofog/internal/telemetry"
)

// This file is the deterministic parallel sweep engine. Every figure sweep
// in this package runs independent points — (system, power profile, seed)
// tuples that share only read-only inputs — so the points can fan out
// through the bounded worker pool and still produce byte-identical tables,
// CSVs, and goldens: results and telemetry children are merged in input
// order, and the first error is surfaced exactly where the serial loop
// would have stopped.

// sweepPoint is one independent simulation of a sweep. run must not touch
// state shared with other points except read-only inputs (income sets, clone
// sets), and it builds what it alone reads, such as its income, itself,
// so that work runs on the worker too. run's recorder is the point's
// private telemetry child (nil when telemetry is off).
type sweepPoint struct {
	// cost orders dispatch in a parallel sweep, largest first: the nodes
	// the point simulates plus the nodes whose income it may synthesise.
	// An income set shared by several points is charged to the first of
	// them, which is then dispatched before the others.
	cost int
	run  func() (sim.Result, *telemetry.Recorder, error)
}

// runSweep executes the points and returns their results in input order.
//
// Determinism contract: the output of runSweep — results slice, telemetry
// merge order, and which error surfaces — is identical at every pool
// width. Serially, points run in order and stop at the first error (later
// points never execute). In parallel, every point runs, in descending
// order of cost, then the same in-order scan merges telemetry children and
// returns the first error, so the error and all observable state match the
// serial run; the extra results computed past an error are discarded with
// the sweep.
func runSweep(opts Options, points []sweepPoint) ([]sim.Result, error) {
	results := make([]sim.Result, len(points))
	children := make([]*telemetry.Recorder, len(points))
	errs := make([]error, len(points))

	// Cancellation is checked between points, never inside one: a point
	// that has started always completes, so a cancelled sweep leaves no
	// half-recorded telemetry, and the in-order error scan below surfaces
	// ctx.Err() at the first point the serial run would not have started.
	pool.Run(len(points), pool.Width(opts.Parallel),
		func(i int) int { return points[i].cost },
		func(i int) bool {
			if opts.Ctx != nil {
				errs[i] = opts.Ctx.Err()
			}
			if errs[i] == nil {
				results[i], children[i], errs[i] = points[i].run()
			}
			return errs[i] == nil
		})

	for i := range points {
		if errs[i] != nil {
			return nil, errs[i]
		}
		opts.Telemetry.MergeNext(children[i])
	}
	return results, nil
}
