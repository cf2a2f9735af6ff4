package faults

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"

	"neofog/internal/metrics"
	"neofog/internal/pool"
	"neofog/internal/sim"
)

// Campaign sweeps fault intensity over one base configuration and asserts
// the graceful-degradation invariants on every run: exact packet
// conservation, monotone non-improvement as intensity rises, and recovery
// of the wake and processing rates once the fault window clears. Because
// generated plans are nested (see Generate), each step up in intensity
// faces a superset of the previous step's adversity.
type Campaign struct {
	// Base is the fault-free configuration every run shares. Its Journal
	// must be nil (the campaign installs its own to measure recovery) and
	// its Faults must be empty (the campaign owns the hooks).
	Base sim.Config
	// Intensities are the sweep points, non-decreasing in [0, 1] and
	// starting at 0 — the zero-fault run is the baseline all invariants
	// are judged against. Default {0, 0.25, 0.5, 0.75, 1}.
	Intensities []float64
	// Seed drives plan generation (independent of Base.Seed, which
	// drives the simulation itself).
	Seed int64
	// Parallel is the worker-pool width for the intensity points: 0 or 1
	// runs them serially (the default), N > 1 runs up to N concurrently,
	// and a negative value uses every available CPU (bounded by GOMAXPROCS
	// either way). Every point is an independent simulation, so the report,
	// the invariant verdicts, and which error surfaces are identical at any
	// width — the cross-point checks always scan the points in input order.
	Parallel int
}

// Point is one intensity's outcome.
type Point struct {
	Intensity float64
	// Events is the number of fault events injected; Plan the schedule.
	Events int
	Plan   *Plan
	Result sim.Result
	// TailWakeRate and TailProcRate are the per-round awake-node and
	// processed-packet (fog + cloud) rates over the tail window, after
	// every fault has cleared — the recovery signal.
	TailWakeRate, TailProcRate float64
}

// Report is a completed campaign.
type Report struct {
	Points []Point
	// TailStart is the first round of the recovery window the tail rates
	// are measured over.
	TailStart int
	// Table is the per-intensity degradation report.
	Table *metrics.Table
}

// The campaigns' verdicts share two settings.
const (
	// tolerance is the relative slack (at least 3 packets) the
	// monotonicity and weak-dominance checks allow: injected faults and
	// the recovery path perturb the run's RNG stream, so adjacent
	// intensities or a faulted A/B pair can jitter by a little even though
	// the trend must not improve and recovery systematically wins. The
	// resilience campaign's strict-improvement invariant and golden table
	// carry the positive claim with no slack at all.
	tolerance = 0.02
	// recoveryFloor is the fraction of the baseline tail-window rates a
	// faulted run must regain after its faults clear.
	recoveryFloor = 0.7
)

// slack is how far a count may fall short of (or rise above) a
// reference of n packets before a check calls it a real change.
func slack(n int) float64 { return max(tolerance*float64(n), 3) }

// sweep is what both campaigns resolve before running: the intensity
// points and the run shape the fault plans are generated for.
type sweep struct {
	intensities   []float64
	nodes, rounds int
}

// newSweep checks the settings both campaigns share — the intensity
// sweep (default {0, 0.25, 0.5, 0.75, 1}) and a base config whose journal
// and fault hooks the campaign owns — and sizes plan generation from the
// base. name and anchor word the errors ("campaign", "baseline").
func newSweep(name, anchor string, base sim.Config, intensities []float64) (sweep, error) {
	if len(intensities) == 0 {
		intensities = []float64{0, 0.25, 0.5, 0.75, 1}
	}
	if intensities[0] != 0 {
		return sweep{}, fmt.Errorf("faults: %s needs a zero-intensity %s first, got %v", name, anchor, intensities[0])
	}
	for i, x := range intensities {
		if x < 0 || x > 1 {
			return sweep{}, fmt.Errorf("faults: intensity %v outside [0, 1]", x)
		}
		if i > 0 && x < intensities[i-1] {
			return sweep{}, fmt.Errorf("faults: intensities must be non-decreasing, got %v after %v", x, intensities[i-1])
		}
	}
	if base.Journal != nil {
		return sweep{}, fmt.Errorf("faults: %s owns the journal; Base.Journal must be nil", name)
	}
	f := base.Faults
	if f.NodeDown != nil || f.Blackout != nil || f.RFFailed != nil ||
		f.SensorStuck != nil || f.Link != nil || f.AbortBalance != nil {
		return sweep{}, fmt.Errorf("faults: %s owns the fault hooks; Base.Faults must be empty", name)
	}
	if len(base.Traces) == 0 || base.Slot <= 0 {
		return sweep{}, fmt.Errorf("faults: %s base config needs traces and a slot", name)
	}
	rounds := base.Rounds
	if maxRounds := int(base.Traces[0].Duration() / base.Slot); rounds == 0 || rounds > maxRounds {
		rounds = maxRounds
	}
	return sweep{intensities: intensities, nodes: len(base.Traces), rounds: rounds}, nil
}

// Run executes the sweep and checks every invariant, returning an error
// naming the first violated one.
func (c Campaign) Run() (*Report, error) {
	sw, err := newSweep("campaign", "baseline", c.Base, c.Intensities)
	if err != nil {
		return nil, err
	}

	// The recovery window: after every generated fault has cleared, with
	// at least the last quarter of the run when the window allows it.
	rounds := sw.rounds
	tailStart := rounds - rounds/4
	if byWindow := int(math.Ceil(faultWindowEnd * float64(rounds))); tailStart < byWindow {
		tailStart = byWindow
	}
	if tailStart >= rounds {
		return nil, fmt.Errorf("faults: no recovery window left after round %d of %d", tailStart, rounds)
	}

	// Run phase: every intensity is an independent simulation against a
	// shared read-only base, so the points fan out through the pool. All
	// per-point work and per-point invariants live in runPoint; the
	// cross-point invariants below always scan in input order, so verdicts
	// and errors match the serial sweep exactly.
	pts := make([]Point, len(sw.intensities))
	errs := make([]error, len(sw.intensities))
	pool.Run(len(sw.intensities), pool.Width(c.Parallel), nil, func(i int) bool {
		pts[i], errs[i] = c.runPoint(sw, sw.intensities[i], tailStart)
		return errs[i] == nil
	})

	rep := &Report{TailStart: tailStart}
	for i := range pts {
		if errs[i] != nil {
			return nil, errs[i]
		}
		pt := pts[i]
		// Invariant: more faults never process more data. The slack covers
		// RNG-stream jitter, never a real improvement.
		if n := len(rep.Points); n > 0 {
			prev := rep.Points[n-1]
			if float64(pt.Result.TotalProcessed()) > float64(prev.Result.TotalProcessed())+slack(prev.Result.TotalProcessed()) {
				return nil, fmt.Errorf("faults: intensity %v processed %d packets, more than %d at intensity %v",
					pt.Intensity, pt.Result.TotalProcessed(), prev.Result.TotalProcessed(), prev.Intensity)
			}
		}
		rep.Points = append(rep.Points, pt)
	}

	// Invariant: once the faults clear, every run's tail rates recover to
	// within recoveryFloor of the zero-fault baseline.
	base := rep.Points[0]
	for _, pt := range rep.Points[1:] {
		if pt.TailWakeRate < recoveryFloor*base.TailWakeRate {
			return nil, fmt.Errorf("faults: intensity %v wake rate %.2f/round never recovered (baseline %.2f/round)",
				pt.Intensity, pt.TailWakeRate, base.TailWakeRate)
		}
		if pt.TailProcRate < recoveryFloor*base.TailProcRate {
			return nil, fmt.Errorf("faults: intensity %v processing rate %.2f/round never recovered (baseline %.2f/round)",
				pt.Intensity, pt.TailProcRate, base.TailProcRate)
		}
	}

	rep.Table = c.table(sw, rep)
	return rep, nil
}

// runPoint executes one intensity end to end: plan generation, the
// simulation with a private journal, the tail-rate measurement, and the
// per-point conservation invariant. It touches nothing shared beyond the
// read-only base configuration, so points can run concurrently.
func (c Campaign) runPoint(sw sweep, intensity float64, tailStart int) (Point, error) {
	plan, err := Generate(c.Seed, intensity, sw.nodes, sw.rounds)
	if err != nil {
		return Point{}, err
	}
	if last := plan.LastEnd(); last > tailStart {
		return Point{}, fmt.Errorf("faults: plan at intensity %v runs to round %d, past the recovery window at %d",
			intensity, last, tailStart)
	}

	cfg := c.Base
	plan.Apply(&cfg)
	journal := &bytes.Buffer{}
	cfg.Journal = journal
	res, err := sim.Run(cfg)
	if err != nil {
		return Point{}, fmt.Errorf("faults: intensity %v: %w", intensity, err)
	}

	pt := Point{Intensity: intensity, Events: len(plan.Events), Plan: plan, Result: res}
	pt.TailWakeRate, pt.TailProcRate, err = tailRates(journal.Bytes(), tailStart, sw.rounds)
	if err != nil {
		return Point{}, fmt.Errorf("faults: intensity %v: %w", intensity, err)
	}

	// Invariant: exact packet-accounting conservation, faults or not.
	if !res.Conserved() {
		return Point{}, fmt.Errorf("faults: intensity %v breaks conservation: %d samples vs %d fog + %d cloud + %d dropped + %d lost + %d unexecuted + %d queued",
			intensity, res.Samples, res.FogProcessed, res.CloudProcessed,
			res.Dropped, res.LostRaw, res.Unexecuted, res.QueuedEnd)
	}
	return pt, nil
}

// table renders the sweep as the chaos report.
func (c Campaign) table(sw sweep, rep *Report) *metrics.Table {
	t := metrics.NewTable(
		fmt.Sprintf("Chaos campaign: %d nodes, %d rounds, fault seed %d, recovery window from round %d",
			sw.nodes, sw.rounds, c.Seed, rep.TailStart),
		"Intensity", "Events", "Wakeups", "Samples", "Fog", "Cloud", "Dropped",
		"LostRaw", "LostResults", "Unexecuted", "Queued", "CrashedSlots",
		"StuckSamples", "TailWake/rnd", "TailProc/rnd",
	)
	for _, pt := range rep.Points {
		r := pt.Result
		t.AddRow(
			metrics.Ftoa(pt.Intensity, 2), metrics.Itoa(pt.Events),
			metrics.Itoa(r.Wakeups), metrics.Itoa(r.Samples),
			metrics.Itoa(r.FogProcessed), metrics.Itoa(r.CloudProcessed),
			metrics.Itoa(r.Dropped), metrics.Itoa(r.LostRaw),
			metrics.Itoa(r.LostResults), metrics.Itoa(r.Unexecuted),
			metrics.Itoa(r.QueuedEnd), metrics.Itoa(r.CrashedSlots),
			metrics.Itoa(r.StuckSamples),
			metrics.Ftoa(pt.TailWakeRate, 3), metrics.Ftoa(pt.TailProcRate, 3),
		)
	}
	return t
}

// tailRates parses the JSONL journal and averages the awake-node and
// processed-packet counts per round over [tailStart, rounds).
func tailRates(journal []byte, tailStart, rounds int) (wake, proc float64, err error) {
	dec := json.NewDecoder(bytes.NewReader(journal))
	n := 0
	for {
		var e struct {
			Round int `json:"round"`
			Awake int `json:"awake"`
			Fog   int `json:"fog"`
			Cloud int `json:"cloud"`
		}
		if err := dec.Decode(&e); err != nil {
			break
		}
		if e.Round < tailStart {
			continue
		}
		wake += float64(e.Awake)
		proc += float64(e.Fog + e.Cloud)
		n++
	}
	if n != rounds-tailStart {
		return 0, 0, fmt.Errorf("journal covered %d tail rounds, want %d", n, rounds-tailStart)
	}
	return wake / float64(n), proc / float64(n), nil
}
