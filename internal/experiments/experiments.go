// Package experiments contains one harness per table and figure of the
// paper's evaluation (§5), each regenerating the same rows or series the
// paper reports from this repository's models. EXPERIMENTS.md records the
// paper-vs-measured comparison for every harness here.
package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"neofog/internal/apps"
	"neofog/internal/cpu"
	"neofog/internal/energytrace"
	"neofog/internal/mesh"
	"neofog/internal/metrics"
	"neofog/internal/node"
	"neofog/internal/pool"
	"neofog/internal/rf"
	"neofog/internal/sched"
	"neofog/internal/sim"
	"neofog/internal/telemetry"
	"neofog/internal/units"
)

// Options tunes an experiment run.
type Options struct {
	// Ctx, when non-nil, cancels the experiment between sweep points: a
	// cancelled sweep stops launching new points and returns ctx.Err().
	// Points already running finish (a single simulation is at most a few
	// hundred milliseconds), so cancellation never tears state mid-run.
	// nil means "never cancelled".
	Ctx context.Context
	// Seed drives every random choice; equal seeds reproduce bit-for-bit.
	Seed int64
	// Nodes is the chain length (default 10, the paper's presented chain).
	Nodes int
	// Rounds is the number of RTC slots (default 1500 = 5 h at 12 s).
	Rounds int
	// FaultSeed drives fault-plan generation for the chaos and resilience
	// campaigns, independently of Seed so the same deployment can face
	// different adversity schedules (default: Seed).
	FaultSeed int64
	// FaultIntensities overrides the campaigns' intensity sweep (must be
	// non-decreasing in [0, 1] and start at 0; default {0, 0.25, 0.5,
	// 0.75, 1}).
	FaultIntensities []float64
	// Telemetry, when non-nil, collects every underlying simulation run's
	// telemetry: each run records into a private child recorder and the
	// children are merged into this one in run order, so a multi-system
	// experiment's trace reads as one chain per run. Results are
	// bit-identical with or without it.
	Telemetry *telemetry.Recorder
	// Parallel is the worker-pool width for independent sweep points
	// (systems × power profiles × fault intensities, and Table 2's
	// applications): 0 or 1 runs points serially (the default), N > 1 runs
	// up to N concurrently, and a negative value uses every available CPU.
	// The pool is bounded by GOMAXPROCS either way (pool.Width). Every
	// table, CSV, and golden is byte-identical at any width — results merge
	// in input order.
	Parallel int
}

func (o Options) withDefaults() Options {
	if o.Nodes == 0 {
		o.Nodes = 10
	}
	if o.Rounds == 0 {
		o.Rounds = 1500
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.FaultSeed == 0 {
		o.FaultSeed = o.Seed
	}
	return o
}

// Slot is the RTC wake interval: 10 nodes × 1500 slots = the paper's
// 15000-packet ideal over 5 hours.
const Slot = 12 * units.Second

// Table1 reproduces Table 1 verbatim: the deployed energy-harvesting WSN
// systems and their characteristics. (The measured applications of Table 2
// overlap but are not identical; their deployment metadata lives on
// apps.App.Table1.)
func Table1() *metrics.Table {
	t := metrics.NewTable("Table 1: deployed energy-harvesting WSN systems",
		"System", "Energy Source", "Sensors", "Network Topology", "Transmitted Data")
	rows := [][]string{
		{"Bridge Health Monitor", "Solar, Piezoelectric", "Accelerometers, piezo-sensors",
			"Zigbee Chain Mesh", "Raw sampled data"},
		{"Wearable UV Meter", "Solar", "UV sensor", "Star", "Raw data"},
		{"Joint-less Railway Temp. Monitor", "Solar", "Multiple temperature sensors",
			"Zigbee Chain Mesh, GPRS", "Raw uncompressed data"},
		{"Machine Health Monitor", "Piezoelectric, thermal, RF",
			"3-axis accelerometer, vibration sensors, temperature", "Star, bus or tree", "Raw data"},
		{"RF Powered Camera", "RF Source, WiFi", "Image sensor",
			"Point-to-point backscatter", "Raw image pixels"},
	}
	for _, r := range rows {
		t.AddRow(r...)
	}
	return t
}

// Table2 reproduces Table 2: per-application energy distribution under the
// naive and buffered strategies. The naive columns are exact; the buffered
// columns are measured by running the fog kernels and compressor. Only
// opts.Seed and opts.Parallel are read, and the seed is used as given.
// Each application draws its signal from its own rng seeded with it, so
// the applications fan out through the pool, the one with the most naive
// instructions (Pattern Matching, the slowest to evaluate) first, and the
// rows keep application order.
func Table2(opts Options) *metrics.Table {
	core := cpu.Default8051()
	radio := rf.ML7266()
	t := metrics.NewTable("Table 2: energy distribution, naive vs buffered strategy",
		"App", "Inst. NO.", "Compute nJ", "TX nJ", "Compute ratio",
		"Buf compute mJ", "Buf TX mJ", "Buf ratio", "Energy saved")
	all := apps.All()
	rows := make([][]string, len(all))
	pool.Run(len(all), pool.Width(opts.Parallel),
		func(i int) int { return int(all[i].NaiveInsts) },
		func(i int) bool {
			a := all[i]
			rng := rand.New(rand.NewSource(opts.Seed))
			saved, naive, buf := a.EnergySaved(core, radio, apps.BufferSize, rng)
			rows[i] = []string{
				a.Name,
				metrics.Itoa(int(a.NaiveInsts)),
				metrics.Ftoa(float64(naive.ComputeEnergy), 3),
				metrics.Ftoa(float64(naive.TxEnergy), 1),
				metrics.Percent(naive.ComputeRatio()),
				metrics.Ftoa(buf.ComputeEnergy.Millijoules(), 1),
				metrics.Ftoa(buf.TxEnergy.Millijoules(), 2),
				metrics.Percent(buf.ComputeRatio()),
				metrics.Percent(saved),
			}
			return true
		})
	for _, row := range rows {
		t.AddRow(row...)
	}
	return t
}

// Fig4Timing reproduces the node-level timing comparison of Figs. 1 and 4:
// the per-phase latencies of the three architectures.
func Fig4Timing() *metrics.Table {
	core := cpu.Default8051()
	radio := rf.ML7266()
	vp := cpu.NewVP(core)
	nvp := cpu.NewNVP(core)
	soft := rf.NewSoftwareRF(radio)
	nvrf := rf.NewNVRF(radio)
	nvrf.Configure(nil)

	t := metrics.NewTable("Fig. 4: node-level phase timing",
		"Phase", "NOS-VP", "NOS-NVP", "FIOS-NEOFog")
	row := func(phase string, a, b, c units.Duration) {
		t.AddRow(phase, a.String(), b.String(), c.String())
	}
	row("Processor start", vp.RestoreTime, nvp.RestoreTime, 7*units.Microsecond)
	row("RF initialisation", soft.InitCost().Time, nvrf.InitCost().Time, nvrf.InitCost().Time)
	row("TX 8-byte sample", soft.TxCost(8).Time, nvrf.TxCost(8).Time, nvrf.TxCost(8).Time)
	row("TX 113-byte result", soft.TxCost(113).Time, nvrf.TxCost(113).Time, nvrf.TxCost(113).Time)
	return t
}

// Fig6Scenario reproduces the Fig. 6 illustration: a 10-node chain with
// imbalanced load and energy, planned by the three balancers. The task
// vector mirrors the figure's "10/4/12/4 data" hot spots.
func Fig6Scenario(seed int64) *metrics.Table {
	loads := []sched.NodeLoad{
		{Alive: true, Tasks: 1, Capacity: 3, TicksPerTask: 2},  // 1
		{Alive: true, Tasks: 10, Capacity: 1, TicksPerTask: 3}, // 2: 10 data
		{Alive: true, Tasks: 1, Capacity: 4, TicksPerTask: 2},  // 3
		{Alive: false, Tasks: 4},                               // 4: the low-energy coordinator of Fig. 6(c)
		{Alive: true, Tasks: 1, Capacity: 3, TicksPerTask: 2},  // 5
		{Alive: true, Tasks: 1, Capacity: 2, TicksPerTask: 2},  // 6
		{Alive: false, Tasks: 0},                               // 7: dead
		{Alive: true, Tasks: 12, Capacity: 2, TicksPerTask: 2}, // 8: 12 data
		{Alive: true, Tasks: 1, Capacity: 2, TicksPerTask: 2},  // 9
		{Alive: true, Tasks: 1, Capacity: 9, TicksPerTask: 1},  // 10: energy rich
	}
	t := metrics.NewTable("Fig. 6: load-balancing illustration (10-node chain)",
		"Balancer", "Executed", "Stranded", "Moves")
	for _, bal := range []sched.Balancer{sched.NoBalance{}, sched.BaselineTree{}, sched.Distributed{}} {
		rng := rand.New(rand.NewSource(seed))
		p := bal.Plan(&sched.Scratch{}, loads, 1000, 0, rng)
		exec, left, moves := 0, 0, 0
		for i := range p.Exec {
			exec += p.Exec[i]
			left += p.Leftover[i]
		}
		for _, m := range p.Moves {
			moves += m.Count
		}
		t.AddRow(bal.Name(), metrics.Itoa(exec), metrics.Itoa(left), metrics.Itoa(moves))
	}
	return t
}

// Fig7Hops reproduces Fig. 7: naive densification inflates the hop count
// of the locality-preferring Zigbee routing (paper: 9 → 25 hops at 4×
// density).
func Fig7Hops(seed int64) (*metrics.Table, error) {
	const length, radioRange = 90.0, 25.0
	t := metrics.NewTable("Fig. 7: hop count vs node density",
		"Deployment", "Nodes", "Hops end-to-end")
	sparse := mesh.LineDeployment(10, length)
	path, err := mesh.GreedyPath(sparse, 0, 9, radioRange)
	if err != nil {
		return nil, err
	}
	t.AddRow("sparse chain", metrics.Itoa(10), metrics.Itoa(len(path)))

	rng := rand.New(rand.NewSource(seed))
	for _, factor := range []int{2, 4} {
		dense := mesh.DensifiedDeployment(10, length, factor, 4, rng)
		dpath, err := mesh.GreedyPath(dense, 0, 9, radioRange)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("naive %d× density", factor),
			metrics.Itoa(len(dense)), metrics.Itoa(len(dpath)))
	}
	return t, nil
}

// systemRow is one row of a figure that compares system stacks: its
// label, node stack and load balancer.
type systemRow struct {
	Name string
	Kind node.SystemKind
	Bal  sched.Balancer
}

// systems returns the three system stacks of Figs. 9–11 in presentation
// order.
func systems() []systemRow {
	return []systemRow{
		{"NOS-VP (no LB)", node.NOSVP, sched.NoBalance{}},
		{"NOS-NVP (baseline LB)", node.NOSNVP, sched.BaselineTree{}},
		{"FIOS-NEOFog (distributed LB)", node.FIOSNVMote, sched.Distributed{}},
	}
}

// systemConfig builds the simulator configuration every harness here runs
// a system stack under. Exposing the builder lets the chaos campaign run
// the exact Fig. 10 configuration through its own sweep, so its zero-fault
// row reproduces the figure's numbers.
func systemConfig(kind node.SystemKind, bal sched.Balancer, traces []*energytrace.Sampled,
	opts Options) sim.Config {
	return sim.Config{
		Node:     node.DefaultConfig(kind, apps.BridgeHealth()),
		Traces:   traces,
		Slot:     Slot,
		Rounds:   opts.Rounds,
		Balancer: bal,
		Seed:     opts.Seed,
	}
}

// systemPoint packages one system run over a shared trace set as an
// independent sweep point of the given cost. traces runs on the worker;
// sweeps sharing one set across concurrent points pass a sync.OnceValue
// and rely on sim.Run never mutating the set. The point only reads the set
// and any state the mut closure captures.
func systemPoint(kind node.SystemKind, bal sched.Balancer, cost int, traces func() []*energytrace.Sampled,
	opts Options, mut func(*sim.Config)) sweepPoint {
	return sweepPoint{cost: cost, run: func() (sim.Result, *telemetry.Recorder, error) {
		cfg := systemConfig(kind, bal, traces(), opts)
		if mut != nil {
			mut(&cfg)
		}
		return simulate(cfg, opts)
	}}
}

// simulate runs one sweep point's configuration. The run records into its
// own child recorder; runSweep merges the child into the experiment's
// recorder in input order, tagging the run as the next chain, so
// experiment telemetry is as deterministic as the experiment itself.
func simulate(cfg sim.Config, opts Options) (sim.Result, *telemetry.Recorder, error) {
	var child *telemetry.Recorder
	if opts.Telemetry.Enabled() {
		child = telemetry.New()
		cfg.Telemetry = child
	}
	res, err := sim.Run(cfg)
	return res, child, err
}
