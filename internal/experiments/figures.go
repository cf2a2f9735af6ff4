package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"neofog/internal/energytrace"
	"neofog/internal/mesh"
	"neofog/internal/metrics"
	"neofog/internal/node"
	"neofog/internal/sched"
	"neofog/internal/sim"
	"neofog/internal/telemetry"
	"neofog/internal/units"
	"neofog/internal/virt"
)

// SystemAverages summarises one system stack across power profiles.
type SystemAverages struct {
	Wakeups, Total, Fog, Cloud float64
}

// perSlot integrates a synthesised set over the harnesses' RTC slot.
var perSlot = energytrace.IncomeOpts{Slot: Slot}

// forestProfile synthesises the income of one of the five independent
// forest power profiles of §5.2.1: winds and leaf cover make neighbouring
// nodes' income effectively uncorrelated.
func forestProfile(profile int, nodes int, seed int64) []energytrace.Income {
	cfg := energytrace.SunnyDay()
	cfg.Peak = units.Power(0.52 + 0.04*float64(profile))
	cfg.CloudAttenuation = 0.55
	cfg.ShadeJitter = 0.25
	rng := rand.New(rand.NewSource(seed + int64(profile)*101))
	// Canopy density differs persistently between spots (lognormal,
	// ~0.6–1.7×), drawn per node after the set's own draws; stronger
	// bimodal shading regimes are explored by the Fig. 9 experiment,
	// where the balancers' stored-energy effect is isolated.
	opts := perSlot
	opts.Gain = func(int) float64 { return math.Exp(rng.NormFloat64() * 0.5) }
	return energytrace.IndependentIncome(cfg, nodes, 5*units.Minute, opts, rng)
}

// bridgeProfile synthesises the income of one of the five dependent
// bridge profiles of §5.2.2: one base day trace shared by all nodes with
// ~30% per-node variance.
func bridgeProfile(day int, nodes int, seed int64) []energytrace.Income {
	cfg := energytrace.SunnyDay()
	cfg.Peak = units.Power(0.50 + 0.05*float64(day))
	cfg.CloudAttenuation = 0.65
	rng := rand.New(rand.NewSource(seed + int64(day)*307))
	return energytrace.DependentIncome(cfg, nodes, 0.30, perSlot, rng)
}

// packetProfiles is how many power profiles Figs. 10 and 11 run.
const packetProfiles = 5

// figPackets runs the three systems over five power profiles and returns
// the Fig. 10/11-style table plus per-system averages.
func figPackets(title string, incomeGen func(profile, nodes int, seed int64) []energytrace.Income,
	opts Options) (*metrics.Table, map[string]SystemAverages, error) {
	opts = opts.withDefaults()
	t := metrics.NewTable(title,
		"Profile", "System", "Wakeups", "Total processed", "Fog processed", "Cloud processed")
	avgs := map[string]SystemAverages{}
	// The three systems of a profile share one read-only income set. Each
	// profile's set is built once, on the worker that runs whichever of its
	// points starts first. The profile's first point is charged the
	// synthesis, so in parallel all five builds start before any point
	// that only reads a set.
	var points []sweepPoint
	for p := 1; p <= packetProfiles; p++ {
		income := sync.OnceValue(func() []energytrace.Income { return incomeGen(p, opts.Nodes, opts.Seed) })
		for si, s := range systems() {
			cost := opts.Nodes
			if si == 0 {
				cost += opts.Nodes
			}
			points = append(points, systemPoint(s.Kind, s.Bal, cost, income, opts, nil))
		}
	}
	results, err := runSweep(opts, points)
	if err != nil {
		return nil, nil, err
	}
	for pi := 0; pi < packetProfiles; pi++ {
		for si, s := range systems() {
			r := results[pi*len(systems())+si]
			t.AddRow(metrics.Itoa(pi+1), s.Name, metrics.Itoa(r.Wakeups),
				metrics.Itoa(r.TotalProcessed()), metrics.Itoa(r.FogProcessed),
				metrics.Itoa(r.CloudProcessed))
			a := avgs[s.Name]
			a.Wakeups += float64(r.Wakeups) / packetProfiles
			a.Total += float64(r.TotalProcessed()) / packetProfiles
			a.Fog += float64(r.FogProcessed) / packetProfiles
			a.Cloud += float64(r.CloudProcessed) / packetProfiles
			avgs[s.Name] = a
		}
	}
	for _, s := range systems() {
		a := avgs[s.Name]
		t.AddRow("avg", s.Name, metrics.Ftoa(a.Wakeups, 0), metrics.Ftoa(a.Total, 0),
			metrics.Ftoa(a.Fog, 0), metrics.Ftoa(a.Cloud, 0))
	}
	return t, avgs, nil
}

// Fig10Independent reproduces Fig. 10: packets captured and fog-processed
// under five ample, independent power profiles.
func Fig10Independent(opts Options) (*metrics.Table, map[string]SystemAverages, error) {
	return figPackets("Fig. 10: independent power profiles (forest)", forestProfile, opts)
}

// Fig11Dependent reproduces Fig. 11: the bridge scenario's dependent
// power profiles.
func Fig11Dependent(opts Options) (*metrics.Table, map[string]SystemAverages, error) {
	return figPackets("Fig. 11: dependent power profiles (bridge)", bridgeProfile, opts)
}

// Fig9Result carries the stored-energy series of Fig. 9 alongside the
// summary table.
type Fig9Result struct {
	Table *metrics.Table
	// Series maps system name → node index → stored energy per round.
	Series map[string]map[int][]units.Energy
	// Overflow maps system name → total energy rejected with full caps.
	Overflow map[string]units.Energy
}

// Fig9StoredEnergy reproduces Fig. 9: the stored-energy traces of three
// consecutive mid-chain nodes under daytime solar with strong per-node
// variance. Without load balancing, energy-rich nodes run out of local
// work, their capacitors sit full and income is rejected; both balancers
// shed that energy into neighbours' stranded tasks, and the proposed
// distributed scheme sheds the most. (The paper's no-LB reference is a VP
// node; our VP's software-RF burn rate exceeds any harvest it can store,
// so the no-LB reference here is the same NVP stack without balancing —
// see EXPERIMENTS.md.)
func Fig9StoredEnergy(opts Options) (*Fig9Result, error) {
	return fig9(opts, fig9Income)
}

// fig9Income is the Fig. 9 income: daytime solar with dependent per-node
// variance, scaled by deck shadow along the bridge, which gives
// consecutive cable nodes very different exposure: one shaded, one
// half-lit, one in full sun. This is the stored-energy imbalance Fig. 9
// visualises.
func fig9Income(nodes int, seed int64) []energytrace.Income {
	cfg := energytrace.SunnyDay()
	cfg.Peak = 4.4
	cfg.CloudAttenuation = 0.45
	gains := []float64{0.35, 1.0, 1.8}
	opts := perSlot
	opts.Gain = func(n int) float64 { return gains[n%len(gains)] }
	return energytrace.DependentIncome(cfg, nodes, 0.15, opts, rand.New(rand.NewSource(seed)))
}

// fig9 runs Fig. 9 over the income incomeGen synthesises.
func fig9(opts Options, incomeGen func(nodes int, seed int64) []energytrace.Income) (*Fig9Result, error) {
	opts = opts.withDefaults()
	record := []int{3, 4, 5}
	if last := record[len(record)-1]; opts.Nodes <= last {
		return nil, fmt.Errorf("experiments: fig9 records nodes %d–%d, so it needs at least %d nodes, got %d",
			record[0], last, last+1, opts.Nodes)
	}

	out := &Fig9Result{
		Table:    metrics.NewTable("Fig. 9: stored energy of 3 consecutive nodes", "System", "Node", "Mean stored", "Max stored", "Overflowed"),
		Series:   map[string]map[int][]units.Energy{},
		Overflow: map[string]units.Energy{},
	}
	// The three variants share one read-only income set, built by
	// whichever point starts first, as in figPackets; the three runs fan
	// out and merge in variant order.
	income := sync.OnceValue(func() []energytrace.Income { return incomeGen(opts.Nodes, opts.Seed) })
	var points []sweepPoint
	for si, s := range lbVariants() {
		cost := opts.Nodes
		if si == 0 {
			cost += opts.Nodes
		}
		points = append(points, systemPoint(s.Kind, s.Bal, cost, income, opts, func(c *sim.Config) {
			c.RecordEnergy = record
		}))
	}
	results, err := runSweep(opts, points)
	if err != nil {
		return nil, err
	}
	for si, s := range lbVariants() {
		r := results[si]
		out.Series[s.Name] = r.EnergySeries
		var systemOverflow units.Energy
		for _, st := range r.PerNode {
			systemOverflow += st.Overflow
		}
		out.Overflow[s.Name] = systemOverflow
		for _, idx := range record {
			series := r.EnergySeries[idx]
			var sum, max units.Energy
			for _, e := range series {
				sum += e
				if e > max {
					max = e
				}
			}
			mean := units.Energy(0)
			if len(series) > 0 {
				mean = sum / units.Energy(len(series))
			}
			out.Table.AddRow(s.Name, metrics.Itoa(idx), mean.String(), max.String(),
				r.PerNode[idx].Overflow.String())
		}
	}
	return out, nil
}

// MultiplexPoint is one bar of Figs. 12–13.
type MultiplexPoint struct {
	Label        string
	Multiplexing int // 0 for the VP reference bar
	Fog          int
	Samples      int
}

// figMultiplex runs the NVD4Q multiplexing sweep: a VP reference system,
// then FIOS-NEOFog at 100%..500% clone multiplexing.
func figMultiplex(title string, income multiplexIncome, opts Options) (*metrics.Table, []MultiplexPoint, error) {
	opts = opts.withDefaults()
	t := metrics.NewTable(title, "System", "Physical nodes", "Fog processed", "Samples")
	points, err := runMultiplex(income, opts, multiplexFactors...)
	if err != nil {
		return nil, nil, err
	}
	for _, p := range points {
		t.AddRow(p.Label, metrics.Itoa(opts.Nodes*clonesPerNode(p.Multiplexing)), metrics.Itoa(p.Fog), metrics.Itoa(p.Samples))
	}
	return t, points, nil
}

// multiplexFactors are the Figs. 12–13 sweep: the VP reference, then
// 100%..500% multiplexing. headlineFactors are the three points of it
// the headline reads: the VP reference, 100% and 300%.
var (
	multiplexFactors = []int{0, 1, 2, 3, 4, 5}
	headlineFactors  = []int{0, 1, 3}
)

// clonesPerNode is how many physical nodes a multiplexing sweep point
// deploys per logical node: factor f ≥ 1 deploys f clones, and the VP
// reference (factor 0) one node.
func clonesPerNode(factor int) int { return max(factor, 1) }

// multiplexIncome synthesises the income of a multiplexing sweep point's
// physical nodes.
type multiplexIncome func(nodes int, seed int64) []energytrace.Income

// runMultiplex runs the given points of the multiplexing sweep and returns
// their bars in the order given. Factor 0 is the VP reference system;
// factor f ≥ 1 is FIOS-NEOFog at f×100% clone multiplexing. The kernel is
// the lighter mountain-monitoring pipeline (volumetric/slide detection),
// which even a VP can execute — the paper's Figs. 12–13 show VP in-fog
// counts. Every point draws its income and clone sets from its own
// seeds, so a point's bar does not depend on which other points run.
func runMultiplex(income multiplexIncome, opts Options, factors ...int) ([]MultiplexPoint, error) {
	const kernel = 800 // insts/byte: slide-detection pipeline fits a VP slot
	if opts.Nodes < 2 {
		return nil, fmt.Errorf("experiments: clone sets anchor on a line of at least 2 nodes, got %d", opts.Nodes)
	}

	// Each point synthesises its own income and clone sets on its worker,
	// so no point's income exists before that point starts. It simulates
	// and synthesises its physical nodes, so the largest factor is
	// dispatched first.
	sweepPts := make([]sweepPoint, len(factors))
	for i, factor := range factors {
		kind, bal := node.FIOSNVMote, sched.Balancer(sched.Distributed{})
		if factor == 0 {
			kind, bal = node.NOSVP, sched.NoBalance{}
		}
		physical := opts.Nodes * clonesPerNode(factor)
		seed := opts.Seed + int64(factor)
		sweepPts[i] = sweepPoint{cost: 2 * physical, run: func() (sim.Result, *telemetry.Recorder, error) {
			cfg := systemConfig(kind, bal, income(physical, seed), opts)
			cfg.Node.FogInstsPerByte = kernel
			if factor > 1 {
				sets, err := cloneSets(opts.Nodes, physical, seed)
				if err != nil {
					return sim.Result{}, nil, err
				}
				cfg.CloneSets = sets
			}
			return simulate(cfg, opts)
		}}
	}
	results, err := runSweep(opts, sweepPts)
	if err != nil {
		return nil, err
	}

	points := make([]MultiplexPoint, len(factors))
	for i, factor := range factors {
		r := results[i]
		label := "VP w/o LB"
		if factor > 0 {
			label = fmt.Sprintf("NEOFog %d00%%", factor)
		}
		points[i] = MultiplexPoint{Label: label, Multiplexing: factor, Fog: r.FogProcessed, Samples: samplesOf(r)}
	}
	return points, nil
}

// lbVariants are the Fig. 9 rows: the same NVP node stack under the three
// load-balancing policies.
func lbVariants() []systemRow {
	return []systemRow{
		{"NVP without LB", node.NOSNVP, sched.NoBalance{}},
		{"NVP baseline LB", node.NOSNVP, sched.BaselineTree{}},
		{"NVP proposed distributed LB", node.NOSNVP, sched.Distributed{}},
	}
}

func samplesOf(r sim.Result) int {
	total := 0
	for _, s := range r.PerNode {
		total += s.Samples
	}
	return total
}

// cloneSets builds NVD4Q clone sets: the first `anchors` physical nodes
// sit on the monitored line; the joiners land near random positions along
// it (aerial dispersion) and adopt the closest anchor's identity.
func cloneSets(anchors, physical int, seed int64) ([]virt.LogicalNode, error) {
	rng := rand.New(rand.NewSource(seed))
	positions := mesh.LineDeployment(anchors, 90)
	for i := anchors; i < physical; i++ {
		positions = append(positions, mesh.Position{X: rng.Float64() * 90, Y: (rng.Float64()*2 - 1) * 5})
	}
	return virt.BuildCloneSets(positions, anchors)
}

// Fig12MultiplexHigh reproduces Fig. 12: multiplexing under high income
// with large independent variance (sunny mountain day). In-fog processing
// is already high at 100%, so NVD4Q adds little.
func Fig12MultiplexHigh(opts Options) (*metrics.Table, []MultiplexPoint, error) {
	gen := func(nodes int, seed int64) []energytrace.Income {
		cfg := energytrace.SunnyDay()
		cfg.Peak = 2.0
		cfg.CloudAttenuation = 0.35
		cfg.ShadeJitter = 0.3
		return energytrace.IndependentIncome(cfg, nodes, 5*units.Minute, perSlot, rand.New(rand.NewSource(seed)))
	}
	return figMultiplex("Fig. 12: multiplexing, high power with large independent variance", gen, opts)
}

// Fig13MultiplexLow reproduces Fig. 13: multiplexing during inclement
// weather — the condition slides actually occur in. Gains grow up to ~3×
// multiplexing, then saturate against the reduced sampling ceiling.
func Fig13MultiplexLow(opts Options) (*metrics.Table, []MultiplexPoint, error) {
	return figMultiplex("Fig. 13: multiplexing, very low power with dependent variance", fig13Income, opts)
}

// fig13Income is the Fig. 13 income: a rainy day at very low power with
// dependent per-node variance.
func fig13Income(nodes int, seed int64) []energytrace.Income {
	cfg := energytrace.RainyDay()
	cfg.Peak = 0.5
	return energytrace.DependentIncome(cfg, nodes, 0.3, perSlot, rand.New(rand.NewSource(seed)))
}

// HeadlineResult carries the paper's §1/§7 headline ratios.
type HeadlineResult struct {
	Table *metrics.Table
	// FogGain1x is in-fog processing of NEOFog at baseline node count over
	// the VP baseline (paper: 4.2×); FogGain3x the same at 3× multiplexing
	// (paper: 8×).
	FogGain1x, FogGain3x float64
}

// Headline computes the combined headline of the paper from the Fig. 13
// regime: NV-aware optimizations increase in-fog processing ~4× at
// baseline node count and ~8× at 3× multiplexing. It runs only the three
// Fig. 13 points it reads: the VP reference, 100% and 300%.
func Headline(opts Options) (*HeadlineResult, error) {
	points, err := runMultiplex(fig13Income, opts.withDefaults(), headlineFactors...)
	if err != nil {
		return nil, err
	}
	vp, at1, at3 := points[0].Fog, points[1].Fog, points[2].Fog
	if vp == 0 {
		return nil, fmt.Errorf("experiments: VP processed nothing; headline undefined")
	}
	res := &HeadlineResult{
		Table:     metrics.NewTable("Headline: in-fog processing gains", "Configuration", "Fog processed", "Gain vs VP"),
		FogGain1x: float64(at1) / float64(vp),
		FogGain3x: float64(at3) / float64(vp),
	}
	res.Table.AddRow("VP w/o LB", metrics.Itoa(vp), "1.0×")
	res.Table.AddRow("NEOFog 100%", metrics.Itoa(at1), metrics.Ftoa(res.FogGain1x, 1)+"×")
	res.Table.AddRow("NEOFog 300%", metrics.Itoa(at3), metrics.Ftoa(res.FogGain3x, 1)+"×")
	return res, nil
}
