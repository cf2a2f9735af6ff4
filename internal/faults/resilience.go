package faults

import (
	"fmt"
	"reflect"
	"sync"

	"neofog/internal/metrics"
	"neofog/internal/pool"
	"neofog/internal/sim"
)

// ResilienceCampaign A/B-tests the self-healing protocol layer under the
// chaos sweep: every intensity runs twice from the same base configuration
// and fault plan — once with recovery disabled (the off arm) and once with
// it enabled (the on arm) — and the campaign asserts that recovery weakly
// dominates at every intensity and strictly improves somewhere. The on arm
// only switches recovery on when the generated plan actually injects
// events, so the zero-intensity anchor is the literal same run in both
// arms and must come out bit-identical.
type ResilienceCampaign struct {
	// Base is the shared configuration. The campaign owns its Faults,
	// Journal, and Recovery fields; all three must be zero. The on arm
	// switches Recovery on only when the plan is non-empty.
	Base sim.Config
	// Intensities are the sweep points, non-decreasing in [0, 1] and
	// starting at 0. Default {0, 0.25, 0.5, 0.75, 1}.
	Intensities []float64
	// Seed drives plan generation (independent of Base.Seed).
	Seed int64
	// Parallel is the worker-pool width for the intensity points, resolved
	// exactly like Campaign.Parallel. Each point still runs its two arms
	// concurrently, so up to 2×width simulations are in flight. Reports,
	// invariant verdicts, and surfaced errors are identical at any width.
	Parallel int
}

// ArmPoint is one intensity's paired outcome.
type ArmPoint struct {
	Intensity float64
	// Events is the number of fault events both arms faced.
	Events int
	// Off is the run with recovery disabled; On with it enabled.
	Off, On sim.Result
}

// ResilienceReport is a completed A/B campaign.
type ResilienceReport struct {
	Points []ArmPoint
	// Table is the per-intensity A/B report.
	Table *metrics.Table
}

// Run executes the paired sweep and checks the A/B invariants, returning
// an error naming the first violated one.
func (c ResilienceCampaign) Run() (*ResilienceReport, error) {
	sw, err := newSweep("resilience campaign", "anchor", c.Base, c.Intensities)
	if err != nil {
		return nil, err
	}
	if c.Base.Recovery {
		return nil, fmt.Errorf("faults: resilience campaign owns the recovery switch; Base.Recovery must be false")
	}

	// Run phase: the paired points fan out through the pool (each still
	// running its two arms concurrently); all per-point invariants live in
	// runArmPoint. The scan below is in input order, so the cross-point
	// strict-improvement verdict and which error surfaces match the serial
	// sweep exactly.
	pts := make([]ArmPoint, len(sw.intensities))
	errs := make([]error, len(sw.intensities))
	pool.Run(len(sw.intensities), pool.Width(c.Parallel), nil, func(i int) bool {
		pts[i], errs[i] = c.runArmPoint(sw, sw.intensities[i])
		return errs[i] == nil
	})

	rep := &ResilienceReport{}
	strict := false
	for i := range pts {
		if errs[i] != nil {
			return nil, errs[i]
		}
		pt := pts[i]
		if pt.Intensity > 0 && pt.On.TotalProcessed() > pt.Off.TotalProcessed() {
			strict = true
		}
		rep.Points = append(rep.Points, pt)
	}

	// Invariant: somewhere in the sweep recovery must actually help, or
	// the whole layer is dead weight. A sweep whose plans never injected
	// anything has no adversity to recover from, which is its own error.
	events := 0
	for _, pt := range rep.Points {
		events += pt.Events
	}
	if events == 0 {
		return nil, fmt.Errorf("faults: sweep injected no fault events; nothing for recovery to prove")
	}
	if !strict {
		return nil, fmt.Errorf("faults: recovery never strictly improved delivery at any nonzero intensity")
	}

	rep.Table = c.table(sw, rep)
	return rep, nil
}

// runArmPoint executes one intensity's A/B pair and its per-point
// invariants. It reads only the immutable campaign fields, so points can
// run concurrently.
func (c ResilienceCampaign) runArmPoint(sw sweep, intensity float64) (ArmPoint, error) {
	plan, err := Generate(c.Seed, intensity, sw.nodes, sw.rounds)
	if err != nil {
		return ArmPoint{}, err
	}

	offCfg, onCfg := c.Base, c.Base
	plan.Apply(&offCfg)
	plan.Apply(&onCfg)
	// Recovery only arms against actual adversity: with an empty plan
	// the on arm is the identical control run, which anchors the A/B.
	onCfg.Recovery = len(plan.Events) > 0

	// The two arms are independent simulations; running them
	// concurrently halves the sweep and puts the recovery path under
	// the race detector whenever the campaign runs with -race.
	var off, on sim.Result
	var offErr, onErr error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); off, offErr = sim.Run(offCfg) }()
	go func() { defer wg.Done(); on, onErr = sim.Run(onCfg) }()
	wg.Wait()
	if offErr != nil {
		return ArmPoint{}, fmt.Errorf("faults: intensity %v (recovery off): %w", intensity, offErr)
	}
	if onErr != nil {
		return ArmPoint{}, fmt.Errorf("faults: intensity %v (recovery on): %w", intensity, onErr)
	}

	// Invariant: conservation holds exactly in both arms.
	for _, arm := range []struct {
		name string
		r    sim.Result
	}{{"off", off}, {"on", on}} {
		if !arm.r.Conserved() {
			return ArmPoint{}, fmt.Errorf("faults: intensity %v (recovery %s) breaks conservation: %d samples vs %d fog + %d cloud + %d dropped + %d lost + %d unexecuted + %d queued",
				intensity, arm.name, arm.r.Samples, arm.r.FogProcessed, arm.r.CloudProcessed,
				arm.r.Dropped, arm.r.LostRaw, arm.r.Unexecuted, arm.r.QueuedEnd)
		}
	}
	// Invariant: the off arm must never exercise the recovery path.
	if off.Retransmits != 0 || off.FailoverSlots != 0 || off.BalanceRetries != 0 {
		return ArmPoint{}, fmt.Errorf("faults: intensity %v: recovery counters active in the off arm: %d retransmits, %d failovers, %d balance retries",
			intensity, off.Retransmits, off.FailoverSlots, off.BalanceRetries)
	}
	// Invariant: with no events the arms are the same run, bit for bit.
	if len(plan.Events) == 0 && !reflect.DeepEqual(off, on) {
		return ArmPoint{}, fmt.Errorf("faults: intensity %v: zero-event arms diverged:\noff: %+v\non:  %+v", intensity, off, on)
	}
	// Invariant: recovery weakly dominates on delivered packets and on
	// fog tasks at every intensity (modulo RNG-jitter slack).
	if float64(on.TotalProcessed()) < float64(off.TotalProcessed())-slack(off.TotalProcessed()) {
		return ArmPoint{}, fmt.Errorf("faults: intensity %v: recovery lost packets: %d on vs %d off",
			intensity, on.TotalProcessed(), off.TotalProcessed())
	}
	if float64(on.FogProcessed) < float64(off.FogProcessed)-slack(off.FogProcessed) {
		return ArmPoint{}, fmt.Errorf("faults: intensity %v: recovery lost fog tasks: %d on vs %d off",
			intensity, on.FogProcessed, off.FogProcessed)
	}
	return ArmPoint{Intensity: intensity, Events: len(plan.Events), Off: off, On: on}, nil
}

// table renders the paired sweep as the resilience A/B report.
func (c ResilienceCampaign) table(sw sweep, rep *ResilienceReport) *metrics.Table {
	t := metrics.NewTable(
		fmt.Sprintf("Resilience A/B: %d nodes, %d rounds, fault seed %d (off = no recovery, on = ARQ + failover + lease)",
			sw.nodes, sw.rounds, c.Seed),
		"Intensity", "Events", "OffFog", "OffCloud", "OffTotal", "OnFog", "OnCloud",
		"OnTotal", "DeltaTotal", "Retransmits", "Failovers", "BalRetries",
		"OffOrphans", "OnOrphans",
	)
	for _, pt := range rep.Points {
		t.AddRow(
			metrics.Ftoa(pt.Intensity, 2), metrics.Itoa(pt.Events),
			metrics.Itoa(pt.Off.FogProcessed), metrics.Itoa(pt.Off.CloudProcessed),
			metrics.Itoa(pt.Off.TotalProcessed()),
			metrics.Itoa(pt.On.FogProcessed), metrics.Itoa(pt.On.CloudProcessed),
			metrics.Itoa(pt.On.TotalProcessed()),
			metrics.Itoa(pt.On.TotalProcessed()-pt.Off.TotalProcessed()),
			metrics.Itoa(pt.On.Retransmits), metrics.Itoa(pt.On.FailoverSlots),
			metrics.Itoa(pt.On.BalanceRetries),
			metrics.Itoa(pt.Off.OrphanLost), metrics.Itoa(pt.On.OrphanLost),
		)
	}
	return t
}
