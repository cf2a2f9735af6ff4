// Package neofog is the public API of the NEOFog reproduction: a system
// architecture and simulation library for nonvolatility-exploiting
// energy-harvesting wireless sensor networks (Ma et al., ASPLOS 2018).
//
// The library models NV-motes — nodes built from a nonvolatile processor
// (NVP), a nonvolatile RF controller (NVRF) and nonvolatile sample buffers
// — and the three system-level optimizations the paper proposes:
//
//   - the frequently-intermittently-on (FIOS) operating discipline, which
//     computes directly off the harvest channel instead of waiting for a
//     capacitor to charge;
//   - a distributed dynamic-programming load balancer that assigns surplus
//     fog tasks to the most efficient chain neighbours (Algorithm 1); and
//   - NVD4Q slotted node virtualization, which multiplexes physical clones
//     behind one network identity to lift QoS under low income
//     (Algorithm 2).
//
// Simulate runs a full WSN deployment; RunExperiment regenerates any of
// the paper's tables and figures. The underlying component models
// (internal/...) are calibrated against the measurements published in the
// paper; see DESIGN.md and EXPERIMENTS.md.
package neofog

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"strings"

	"neofog/internal/apps"
	"neofog/internal/energytrace"
	"neofog/internal/experiments"
	"neofog/internal/mesh"
	"neofog/internal/metrics"
	"neofog/internal/node"
	"neofog/internal/pool"
	"neofog/internal/sched"
	"neofog/internal/sim"
	"neofog/internal/units"
	"neofog/internal/virt"
)

// System selects the node architecture of a simulated deployment.
type System string

// The three system stacks the paper evaluates.
const (
	// SystemVP is the traditional normally-off volatile-processor node
	// with software-controlled RF.
	SystemVP System = "nos-vp"
	// SystemNVP is a normally-off node with an NVP and NVRF.
	SystemNVP System = "nos-nvp"
	// SystemNEOFog is the full NV-mote: NVP + NVRF + dual-channel FIOS
	// front end.
	SystemNEOFog System = "neofog"
)

// Balancer selects the load-balancing policy.
type Balancer string

// The load-balancing policies of §3.2.
const (
	BalanceNone        Balancer = "none"
	BalanceTree        Balancer = "tree"
	BalanceDistributed Balancer = "distributed"
)

// Weather selects the income regime of the synthetic solar traces.
type Weather string

// Income regimes.
const (
	WeatherSunny    Weather = "sunny"
	WeatherOvercast Weather = "overcast"
	WeatherRainy    Weather = "rainy"
)

// Application selects the sensing workload.
type Application string

// The five measured applications of Tables 1–2.
const (
	AppBridgeHealth Application = "bridge"
	AppUVMeter      Application = "uv"
	AppTemperature  Application = "temp"
	AppAcceleration Application = "accel"
	AppHeartbeat    Application = "heartbeat"
)

// SimulationConfig describes one WSN deployment to simulate. Its JSON
// names are the wire schema of the simulation service and the canonical
// form its cache keys hash (see CanonicalConfig); the observers are not
// part of either.
type SimulationConfig struct {
	// System is the node architecture (default SystemNEOFog).
	System System `json:"system"`
	// Balancer is the load-balancing policy (default: distributed for
	// SystemNEOFog, tree for SystemNVP, none for SystemVP).
	Balancer Balancer `json:"balancer"`
	// Application is the workload (default AppBridgeHealth).
	Application Application `json:"application"`
	// Nodes is the number of logical chain nodes (default 10).
	Nodes int `json:"nodes"`
	// Rounds is the number of RTC slots to simulate (default: as many as
	// the generated traces cover — 1500 slots = 5 h). The income a run
	// reads, 8 B per physical node per slot, is capped at 64 MiB.
	Rounds int `json:"rounds"`
	// SlotSeconds is the RTC wake interval (default 12 s).
	SlotSeconds float64 `json:"slot_seconds"`
	// Weather picks the solar regime (default WeatherSunny).
	Weather Weather `json:"weather"`
	// SolarPeakMilliwatts overrides the regime's clear-sky panel peak
	// (0 keeps the regime default; negative and non-finite peaks are
	// refused).
	SolarPeakMilliwatts float64 `json:"solar_peak_mw"`
	// Correlated selects dependent per-node traces (the bridge recipe)
	// instead of independent ones (the forest recipe).
	Correlated bool `json:"correlated"`
	// Multiplexing is the NVD4Q clone count per logical node (default 1 =
	// no virtualization). Physical node count = Nodes × Multiplexing, at
	// most 8192.
	Multiplexing int `json:"multiplexing"`
	// FogInstsPerByte overrides the fog-kernel cost (0 keeps the
	// heavyweight bridge pipeline default).
	FogInstsPerByte int64 `json:"fog_insts_per_byte"`
	// Resumable enables the incidental-computing extension: NV nodes make
	// partial fog progress on scraps of energy, checkpointed across power
	// cycles, instead of discarding work they cannot afford whole.
	Resumable bool `json:"resumable"`
	// WakeupRadio fits the nano-watt RF wake-up receiver extension: nodes
	// whose clock died during a blackout rejoin for microjoules instead of
	// a costly blind listen (§2.3 future work).
	WakeupRadio bool `json:"wakeup_radio"`
	// Recovery enables the self-healing protocol layer: energy-aware
	// link-layer ARQ, persistent route repair, NVD4Q clone failover, and
	// abort-safe (lease/commit) load balancing. Off by default; every
	// recovery action is paid for through the node's rf model.
	Recovery bool `json:"recovery"`
	// Journal, when non-nil, receives one JSON line per simulated round
	// (round, awake count, fog/cloud/dropped deltas, LB moves, mean stored
	// energy) for plotting and debugging.
	Journal io.Writer `json:"-"`
	// Telemetry, when non-nil, records phase spans, counters and per-node
	// energy/backlog timelines during the run (see NewTelemetry). Purely
	// observational: results are bit-identical with or without it.
	Telemetry *Telemetry `json:"-"`
	// Seed makes the run reproducible (default 1).
	Seed int64 `json:"seed"`
}

// SimulationResult summarises a run.
type SimulationResult struct {
	// Nodes is the physical node count; IdealPackets the zero-loss packet
	// bound (logical nodes × rounds).
	Nodes, Rounds, IdealPackets int
	// Wakeups and WakeFailures count RTC-slot activations and misses.
	Wakeups, WakeFailures int
	// FogProcessed packets were handled at the edge; CloudProcessed were
	// shipped raw; Dropped were discarded for lack of energy.
	FogProcessed, CloudProcessed, Dropped int
	// Moves counts load-balance delegations; Rejoins orphan-scan events.
	Moves, Rejoins int
	// OrphanLost counts raw packets abandoned at a dead route span.
	OrphanLost int
	// Retransmits, FailoverSlots and BalanceRetries count the recovery
	// layer's ARQ retransmissions, NVD4Q clone-failover wakes, and
	// balancing rounds re-run after an abort rollback; all zero unless
	// Recovery was enabled.
	Retransmits, FailoverSlots, BalanceRetries int
}

// TotalProcessed is fog plus cloud packets.
func (r SimulationResult) TotalProcessed() int { return r.FogProcessed + r.CloudProcessed }

// Simulate runs one deployment.
func Simulate(cfg SimulationConfig) (SimulationResult, error) {
	d, err := resolve(cfg)
	if err != nil {
		return SimulationResult{}, err
	}
	cfg, slot := d.cfg, d.slot
	physical := cfg.Nodes * cfg.Multiplexing
	rng := rand.New(rand.NewSource(cfg.Seed))
	// Synthesise only the income the run reads: Rounds slots when they end
	// inside the day, the whole day otherwise.
	opts := energytrace.IncomeOpts{Slot: slot}
	if cfg.Rounds > 0 && int64(cfg.Rounds) == d.slots {
		opts.Span = units.Duration(d.slots) * slot
	}
	var income []energytrace.Income
	if cfg.Correlated {
		income = energytrace.DependentIncome(d.solar, physical, 0.3, opts, rng)
	} else {
		income = energytrace.IndependentIncome(d.solar, physical, 5*units.Minute, opts, rng)
	}

	simCfg := sim.Config{
		Node:      d.node,
		Income:    income,
		Slot:      slot,
		Rounds:    cfg.Rounds,
		Balancer:  d.bal,
		OnRound:   journal(cfg.Journal),
		Recovery:  cfg.Recovery,
		Telemetry: cfg.Telemetry.recorder(),
		Seed:      cfg.Seed,
	}
	if cfg.Multiplexing > 1 {
		positions := mesh.LineDeployment(cfg.Nodes, 90)
		for i := cfg.Nodes; i < physical; i++ {
			positions = append(positions, mesh.Position{X: rng.Float64() * 90, Y: (rng.Float64()*2 - 1) * 5})
		}
		sets, err := virt.BuildCloneSets(positions, cfg.Nodes)
		if err != nil {
			return SimulationResult{}, err
		}
		simCfg.CloneSets = sets
	}

	r, err := sim.Run(simCfg)
	if err != nil {
		return SimulationResult{}, err
	}
	return SimulationResult{
		Nodes:          r.Nodes,
		Rounds:         r.Rounds,
		IdealPackets:   r.IdealPackets,
		Wakeups:        r.Wakeups,
		WakeFailures:   r.WakeFailures,
		FogProcessed:   r.FogProcessed,
		CloudProcessed: r.CloudProcessed,
		Dropped:        r.Dropped,
		Moves:          r.Moves,
		Rejoins:        r.Rejoins,
		OrphanLost:     r.OrphanLost,
		Retransmits:    r.Retransmits,
		FailoverSlots:  r.FailoverSlots,
		BalanceRetries: r.BalanceRetries,
	}, nil
}

// journal returns the round observer that writes a run's journal to w,
// one JSON line per round, or nil when there is no journal to write.
func journal(w io.Writer) func(sim.RoundStats) error {
	if w == nil {
		return nil
	}
	enc := json.NewEncoder(w)
	return func(r sim.RoundStats) error {
		if err := enc.Encode(r); err != nil {
			return fmt.Errorf("neofog: writing journal: %w", err)
		}
		return nil
	}
}

// deployment is a normalized SimulationConfig together with the
// simulator parts it resolves to.
type deployment struct {
	cfg   SimulationConfig
	node  node.Config
	bal   sched.Balancer
	solar energytrace.SolarConfig
	slot  units.Duration
	// slots is how many slots the run reads: Rounds when they end inside
	// the day, the whole day's otherwise.
	slots int64
}

// resolve is the one place a SimulationConfig's defaults are filled and
// its values checked; NormalizeConfig returns its config and Simulate
// runs on its parts. The checks run in a fixed order (application,
// system, fog-kernel cost, balancer, weather and solar peak, slot, the
// deployment shape, then its size), so a config with several faults
// always reports the same one. A multiplexed deployment lays its anchors
// on a line to build clone sets, and a line needs two nodes.
func resolve(cfg SimulationConfig) (deployment, error) {
	d := deployment{cfg: cfg}
	c := &d.cfg
	if c.Application == "" {
		c.Application = AppBridgeHealth
	}
	app, err := application(c.Application)
	if err != nil {
		return deployment{}, err
	}
	if c.System == "" {
		c.System = SystemNEOFog
	}
	kind, defaultBalancer, err := systemKind(c.System)
	if err != nil {
		return deployment{}, err
	}
	if d.node, err = nodeConfig(kind, app, *c); err != nil {
		return deployment{}, err
	}
	if c.Balancer == "" {
		c.Balancer = defaultBalancer
	}
	if d.bal, err = balancer(c.Balancer); err != nil {
		return deployment{}, err
	}
	if c.Weather == "" {
		c.Weather = WeatherSunny
	}
	if d.solar, err = solarConfig(c.Weather, c.SolarPeakMilliwatts); err != nil {
		return deployment{}, err
	}
	// A zero peak means "the regime default"; pin the resolved value so
	// {sunny} and {sunny, peak: 0.7} share a cache entry. units.Power is
	// milliwatts, so the conversion is the identity.
	c.SolarPeakMilliwatts = float64(d.solar.Peak)
	if c.Nodes == 0 {
		c.Nodes = 10
	}
	if c.Multiplexing == 0 {
		c.Multiplexing = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.SlotSeconds == 0 {
		c.SlotSeconds = 12
	}
	// units.Seconds rounds to whole microseconds in an int64; refuse a
	// slot whose count has no int64 before converting it.
	if us := math.Round(c.SlotSeconds * float64(units.Second)); !(math.Abs(us) < 1<<63) {
		return deployment{}, fmt.Errorf("neofog: slot %v s is out of range (its microsecond count must be a finite int64)", c.SlotSeconds)
	}
	d.slot = units.Seconds(c.SlotSeconds)
	if c.Nodes < 1 || c.Multiplexing < 1 || d.slot <= 0 || c.Rounds < 0 {
		return deployment{}, fmt.Errorf("neofog: invalid deployment shape (nodes=%d, multiplexing=%d, slot=%v, rounds=%d)",
			c.Nodes, c.Multiplexing, d.slot, c.Rounds)
	}
	if c.Multiplexing > 1 && c.Nodes < 2 {
		return deployment{}, fmt.Errorf("neofog: multiplexing %d needs at least 2 nodes to build clone sets, got %d",
			c.Multiplexing, c.Nodes)
	}
	// A run allocates its per-node state and its income before its first
	// round, and a make past the machine's memory is a fatal error, not a
	// panic a caller can recover from. Both are capped here, before
	// anything is synthesised.
	if c.Nodes > maxPhysicalNodes/c.Multiplexing {
		return deployment{}, fmt.Errorf("neofog: nodes %d × multiplexing %d is over the %d physical-node cap",
			c.Nodes, c.Multiplexing, maxPhysicalNodes)
	}
	d.slots = int64(d.solar.DayLength() / d.slot)
	if c.Rounds > 0 && int64(c.Rounds) < d.slots {
		d.slots = int64(c.Rounds)
	}
	physical := int64(c.Nodes * c.Multiplexing)
	if size := physical * d.slots * 8; size > maxIncomeBytes {
		return deployment{}, fmt.Errorf("neofog: income of %d physical nodes over %d slots of %v is %d B, over the %d B cap (raise slot_seconds or lower rounds, nodes or multiplexing)",
			physical, d.slots, d.slot, size, maxIncomeBytes)
	}
	return d, nil
}

// The size caps resolve holds a deployment to. Every config the simulate
// goldens, the serve and router tests, the benchmarks and perfbench run
// stays far under both: the largest income among them is 240 000 B (100
// nodes over 300 slots, or 20 physical nodes over the whole day), and the
// most physical nodes 100.
const (
	// maxPhysicalNodes bounds Nodes × Multiplexing. Each physical node
	// costs about 4 KB of recipe and simulator state whatever its income
	// (Simulate over 1 000 nodes for one round allocates 4.0 MB), so the
	// cap holds that to about 32 MB; the paper's chains have 10 to 50.
	maxPhysicalNodes = 1 << 13
	// maxIncomeBytes bounds the income a run reads: 8 B per physical node
	// per slot. 64 MiB is 5 592 physical nodes over the whole 5-hour day
	// at the 12 s slot, or a 10-node chain over the whole day at slots
	// down to 22 ms.
	maxIncomeBytes = 64 << 20
)

// nodeConfig builds a deployment's per-node template. It holds the one
// check of the fog-kernel cost: zero means the application's default, a
// negative cost is refused, and so is one whose per-packet instruction
// count, FogInstsPerByte × PacketBytes, overflows int64, since a node
// prices one packet's fog pipeline when it is built.
func nodeConfig(kind node.SystemKind, app apps.App, cfg SimulationConfig) (node.Config, error) {
	nc := node.DefaultConfig(kind, app)
	if cfg.FogInstsPerByte < 0 {
		return node.Config{}, fmt.Errorf("neofog: fog kernel cost %d insts/byte is negative", cfg.FogInstsPerByte)
	}
	if cfg.FogInstsPerByte > 0 {
		if cfg.FogInstsPerByte > math.MaxInt64/int64(nc.PacketBytes) {
			return node.Config{}, fmt.Errorf("neofog: fog kernel cost %d insts/byte overflows the instruction count of a %d-byte packet",
				cfg.FogInstsPerByte, nc.PacketBytes)
		}
		nc.FogInstsPerByte = cfg.FogInstsPerByte
	}
	nc.Resumable = cfg.Resumable
	nc.WakeupRadio = cfg.WakeupRadio
	return nc, nil
}

// FleetResult aggregates a multi-chain deployment.
type FleetResult struct {
	// PerChain holds each chain's summary in order.
	PerChain []SimulationResult
	// Aggregate sums the chains.
	Aggregate SimulationResult
}

// NormalizeFleet is NormalizeConfig for a fleet of chains deployments of
// cfg. It also refuses fewer than one chain, and a fleet whose chains ×
// Nodes × Multiplexing is over the physical-node cap one deployment is
// held to: SimulateFleet allocates per-chain state for every chain
// before the first runs, so a fleet past the cap would fail as a fatal
// out-of-memory, which no caller can recover from.
func NormalizeFleet(cfg SimulationConfig, chains int) (SimulationConfig, error) {
	if chains < 1 {
		return SimulationConfig{}, fmt.Errorf("neofog: fleet needs ≥1 chain, got %d", chains)
	}
	d, err := resolve(cfg)
	if err != nil {
		// Every chain runs this config, so chain 0 is the first to fail.
		return SimulationConfig{}, fmt.Errorf("neofog: chain 0: %w", err)
	}
	// resolve holds one chain's physical nodes to the cap; dividing the
	// cap by them keeps chains × nodes from overflowing.
	if physical := d.cfg.Nodes * d.cfg.Multiplexing; chains > maxPhysicalNodes/physical {
		return SimulationConfig{}, fmt.Errorf("neofog: chains %d × %d physical nodes is over the %d physical-node cap",
			chains, physical, maxPhysicalNodes)
	}
	return d.cfg, nil
}

// SimulateFleet runs `chains` independent chain deployments of the given
// shape concurrently (the paper's simulator runs thousands of node models
// at a time, §4). Chain i uses seed cfg.Seed+i, so the fleet is
// reproducible and each chain sees distinct traces. A Journal is
// supported: each chain writes into a private buffer during the run and
// the buffers are flushed to the configured writer in chain order, so the
// journal reads exactly as if the chains had run serially. Telemetry is
// handled the same way: each chain records into a private child collector
// and the children are merged into cfg.Telemetry in chain order, so the
// fleet's trace tags chain i as trace process i.
func SimulateFleet(cfg SimulationConfig, chains int) (FleetResult, error) {
	cfg, err := NormalizeFleet(cfg, chains)
	if err != nil {
		return FleetResult{}, err
	}
	// Run Simulate per chain on one worker per CPU rather than duplicating
	// its assembly logic at the internal layer — each call is already
	// deterministic and independent, and the scan below reports the first
	// failed chain in chain order at any width.
	results := make([]SimulationResult, chains)
	errs := make([]error, chains)
	journals := make([]*bytes.Buffer, chains)
	recorders := make([]*Telemetry, chains)
	pool.Run(chains, pool.Width(-1), nil, func(i int) bool {
		c := cfg
		c.Seed = cfg.Seed + int64(i)
		if cfg.Journal != nil {
			journals[i] = &bytes.Buffer{}
			c.Journal = journals[i]
		}
		if cfg.Telemetry != nil {
			recorders[i] = NewTelemetry()
			c.Telemetry = recorders[i]
		}
		results[i], errs[i] = Simulate(c)
		return errs[i] == nil
	})
	for i, err := range errs {
		if err != nil {
			return FleetResult{}, fmt.Errorf("neofog: chain %d: %w", i, err)
		}
	}
	for i, buf := range journals {
		if buf == nil {
			continue
		}
		if _, err := cfg.Journal.Write(buf.Bytes()); err != nil {
			return FleetResult{}, fmt.Errorf("neofog: chain %d: flushing journal: %w", i, err)
		}
	}
	for _, child := range recorders {
		if child != nil {
			cfg.Telemetry.recorder().MergeNext(child.rec)
		}
	}
	out := FleetResult{PerChain: results}
	for i := range results {
		r := results[i]
		a := &out.Aggregate
		a.Nodes += r.Nodes
		a.IdealPackets += r.IdealPackets
		a.Wakeups += r.Wakeups
		a.WakeFailures += r.WakeFailures
		a.FogProcessed += r.FogProcessed
		a.CloudProcessed += r.CloudProcessed
		a.Dropped += r.Dropped
		a.Moves += r.Moves
		a.Rejoins += r.Rejoins
		a.OrphanLost += r.OrphanLost
		a.Retransmits += r.Retransmits
		a.FailoverSlots += r.FailoverSlots
		a.BalanceRetries += r.BalanceRetries
		if r.Rounds > a.Rounds {
			a.Rounds = r.Rounds
		}
	}
	return out, nil
}

func application(a Application) (apps.App, error) {
	switch a {
	case AppBridgeHealth:
		return apps.BridgeHealth(), nil
	case AppUVMeter:
		return apps.UVMeter(), nil
	case AppTemperature:
		return apps.WSNTemp(), nil
	case AppAcceleration:
		return apps.WSNAccel(), nil
	case AppHeartbeat:
		return apps.PatternMatching(), nil
	default:
		return apps.App{}, fmt.Errorf("neofog: unknown application %q", a)
	}
}

// systemKind resolves a system stack to its node kind and the balancer
// the paper pairs it with.
func systemKind(s System) (node.SystemKind, Balancer, error) {
	switch s {
	case SystemVP:
		return node.NOSVP, BalanceNone, nil
	case SystemNVP:
		return node.NOSNVP, BalanceTree, nil
	case SystemNEOFog:
		return node.FIOSNVMote, BalanceDistributed, nil
	default:
		return 0, "", fmt.Errorf("neofog: unknown system %q", s)
	}
}

func balancer(b Balancer) (sched.Balancer, error) {
	switch b {
	case BalanceNone:
		return sched.NoBalance{}, nil
	case BalanceTree:
		return sched.BaselineTree{}, nil
	case BalanceDistributed:
		return sched.Distributed{}, nil
	default:
		return nil, fmt.Errorf("neofog: unknown balancer %q", b)
	}
}

// solarConfig resolves a weather regime and a panel-peak override; a
// zero peak keeps the regime's calibrated peak.
func solarConfig(w Weather, peak float64) (energytrace.SolarConfig, error) {
	var cfg energytrace.SolarConfig
	switch w {
	case WeatherSunny:
		cfg = energytrace.SunnyDay()
		cfg.Peak = 0.7 // the calibrated Fig. 10 regime
	case WeatherOvercast:
		cfg = energytrace.OvercastDay()
	case WeatherRainy:
		cfg = energytrace.RainyDay()
		cfg.Peak = 0.5
	default:
		return cfg, fmt.Errorf("neofog: unknown weather %q", w)
	}
	if !(peak >= 0) || math.IsInf(peak, 1) {
		return cfg, fmt.Errorf("neofog: solar peak %v mW is not a finite non-negative power", peak)
	}
	if peak > 0 {
		cfg.Peak = units.Power(peak)
	}
	return cfg, nil
}

// ExperimentIDs lists the reproducible paper artifacts in presentation
// order.
func ExperimentIDs() []string {
	ids := make([]string, 0, len(experimentRunners))
	for id := range experimentRunners {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

var experimentRunners = map[string]func(opts experiments.Options) (*metrics.Table, error){
	"table1": func(experiments.Options) (*metrics.Table, error) { return experiments.Table1(), nil },
	"table2": func(o experiments.Options) (*metrics.Table, error) { return experiments.Table2(o), nil },
	"fig4":   func(experiments.Options) (*metrics.Table, error) { return experiments.Fig4Timing(), nil },
	"fig6":   func(o experiments.Options) (*metrics.Table, error) { return experiments.Fig6Scenario(o.Seed), nil },
	"fig7":   func(o experiments.Options) (*metrics.Table, error) { return experiments.Fig7Hops(o.Seed) },
	"fig8":   func(experiments.Options) (*metrics.Table, error) { return experiments.Fig8ChainSchedule(5, 5) },
	"fig9": func(o experiments.Options) (*metrics.Table, error) {
		r, err := experiments.Fig9StoredEnergy(o)
		if err != nil {
			return nil, err
		}
		return r.Table, nil
	},
	"fig10": func(o experiments.Options) (*metrics.Table, error) {
		t, _, err := experiments.Fig10Independent(o)
		return t, err
	},
	"fig11": func(o experiments.Options) (*metrics.Table, error) {
		t, _, err := experiments.Fig11Dependent(o)
		return t, err
	},
	"fig12": func(o experiments.Options) (*metrics.Table, error) {
		t, _, err := experiments.Fig12MultiplexHigh(o)
		return t, err
	},
	"fig13": func(o experiments.Options) (*metrics.Table, error) {
		t, _, err := experiments.Fig13MultiplexLow(o)
		return t, err
	},
	"wispcam": func(experiments.Options) (*metrics.Table, error) { return experiments.WispCam().Table, nil },
	"camera": func(o experiments.Options) (*metrics.Table, error) {
		r, err := experiments.Camera(o.Seed)
		if err != nil {
			return nil, err
		}
		return r.Table, nil
	},
	"headline": func(o experiments.Options) (*metrics.Table, error) {
		h, err := experiments.Headline(o)
		if err != nil {
			return nil, err
		}
		return h.Table, nil
	},
	"chaos": func(o experiments.Options) (*metrics.Table, error) {
		c, err := experiments.Chaos(o)
		if err != nil {
			return nil, err
		}
		return c.Table, nil
	},
	"resilience": func(o experiments.Options) (*metrics.Table, error) {
		r, err := experiments.Resilience(o)
		if err != nil {
			return nil, err
		}
		return r.Table, nil
	},
}

// RunExperiment regenerates one paper artifact by ID (see ExperimentIDs)
// and returns its formatted table.
func RunExperiment(id string, opts ExperimentOptions) (string, error) {
	t, err := runExperimentTable(id, opts)
	if err != nil {
		return "", err
	}
	return t.Format(), nil
}

// RunExperimentCSV regenerates one paper artifact and writes it as CSV.
func RunExperimentCSV(id string, opts ExperimentOptions, w io.Writer) error {
	t, err := runExperimentTable(id, opts)
	if err != nil {
		return err
	}
	return t.WriteCSV(w)
}

func runExperimentTable(id string, opts ExperimentOptions) (*metrics.Table, error) {
	opts, err := NormalizeExperiment(id, opts)
	if err != nil {
		return nil, err
	}
	return experimentRunners[strings.ToLower(id)](experiments.Options{
		Ctx:              opts.Context,
		Seed:             opts.Seed,
		Nodes:            opts.Nodes,
		Rounds:           opts.Rounds,
		FaultSeed:        opts.FaultSeed,
		FaultIntensities: opts.FaultIntensities,
		Telemetry:        opts.Telemetry.recorder(),
		Parallel:         opts.Parallel,
	})
}

// NormalizeExperiment is NormalizeConfig for an experiment: it fills the
// defaults RunExperiment runs id with (seed 1, nodes 10, rounds 1500 and
// a fault seed equal to the seed) and refuses options id could not run
// within the caps one deployment is held to. Its largest deployment may
// have at most 8192 physical nodes, and the whole-day income it keeps at
// once at most 64 MiB; a campaign may sweep at most 101 fault
// intensities. Each refusal names its field. Parallel passes through.
func NormalizeExperiment(id string, opts ExperimentOptions) (ExperimentOptions, error) {
	artifact := strings.ToLower(id)
	if _, ok := experimentRunners[artifact]; !ok {
		return ExperimentOptions{}, fmt.Errorf("neofog: unknown experiment %q (have %s)", id, strings.Join(ExperimentIDs(), ", "))
	}
	o := opts
	if o.Nodes < 0 || o.Rounds < 0 {
		return ExperimentOptions{}, fmt.Errorf("neofog: experiment needs nodes ≥ 0 and rounds ≥ 0, got nodes=%d rounds=%d", o.Nodes, o.Rounds)
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Nodes == 0 {
		o.Nodes = 10
	}
	if o.Rounds == 0 {
		o.Rounds = 1500
	}
	if o.FaultSeed == 0 {
		o.FaultSeed = o.Seed
	}
	if len(o.FaultIntensities) == 0 {
		o.FaultIntensities = nil
	}
	if n := len(o.FaultIntensities); n > maxFaultIntensities {
		return ExperimentOptions{}, fmt.Errorf("neofog: fault_intensities lists %d points, over the %d-point cap", n, maxFaultIntensities)
	}
	if shape, ok := experimentShapes[artifact]; ok {
		if o.Nodes > maxPhysicalNodes/shape.Multiplexing {
			return ExperimentOptions{}, fmt.Errorf("neofog: %s nodes %d × multiplexing %d is over the %d physical-node cap",
				artifact, o.Nodes, shape.Multiplexing, maxPhysicalNodes)
		}
		if perNode := int64(shape.Income) * experimentDayIncome; int64(o.Nodes) > maxIncomeBytes/perNode {
			return ExperimentOptions{}, fmt.Errorf("neofog: %s nodes %d keep %d B of income at once, over the %d B cap",
				artifact, o.Nodes, int64(o.Nodes)*perNode, maxIncomeBytes)
		}
	}
	return o, nil
}

// maxFaultIntensities caps a campaign's sweep, which bounds its memory:
// every point's results stay in memory until the sweep ends. (Options'
// Context stops a sweep between points, so the cap need not bound its
// time.) The tables print each intensity to two decimals, so 101 points
// already give every printable intensity in [0, 1] a row of its own; at
// that width the resilience campaign, the costlier one, makes 202 runs,
// about 2 s of one core at its published 20-node, 1500-round shape.
const maxFaultIntensities = 101

// experimentDayIncome is the whole-day income of one physical node in an
// artifact: the artifacts integrate a 5-hour day over their 12 s slot,
// 8 B per slot, whatever Rounds they run.
var experimentDayIncome = int64(energytrace.SunnyDay().DayLength()/experiments.Slot) * 8

// experimentShapes maps the artifacts that read ExperimentOptions.Nodes
// to what each builds from it; every other artifact's size is fixed.
var experimentShapes = map[string]experiments.Shape{
	"fig9":       experiments.Fig9Shape,
	"fig10":      experiments.PacketsShape,
	"fig11":      experiments.PacketsShape,
	"fig12":      experiments.MultiplexShape,
	"fig13":      experiments.MultiplexShape,
	"headline":   experiments.HeadlineShape,
	"chaos":      experiments.ChaosShape,
	"resilience": experiments.ResilienceShape,
}

// ExperimentOptions tunes RunExperiment. Its JSON names are the wire
// schema of the simulation service's experiment jobs; the context and
// the observer are not part of it.
type ExperimentOptions struct {
	// Context, when non-nil, cancels the experiment between sweep points
	// (the simulation service uses this for job cancellation and drain
	// deadlines). Points already running finish; the experiment returns
	// the context's error. nil means "never cancelled".
	Context context.Context `json:"-"`
	// Seed drives all randomness (default 1).
	Seed int64 `json:"seed"`
	// Nodes overrides the chain length (default 10). NormalizeExperiment
	// holds it to what each artifact can build within the deployment
	// caps.
	Nodes int `json:"nodes"`
	// Rounds overrides the RTC slot count (default 1500; use less for a
	// quick look).
	Rounds int `json:"rounds"`
	// FaultSeed drives fault-plan generation for the chaos and resilience
	// campaigns independently of Seed (default: Seed).
	FaultSeed int64 `json:"fault_seed"`
	// FaultIntensities overrides those campaigns' intensity sweep
	// (non-decreasing in [0, 1], starting at 0, at most 101 points).
	FaultIntensities []float64 `json:"fault_intensities,omitempty"`
	// Telemetry, when non-nil, collects telemetry from every simulation the
	// experiment runs, one trace chain per run; results are bit-identical
	// with or without it.
	Telemetry *Telemetry `json:"-"`
	// Parallel is the worker-pool width for independent sweep points: 0 or
	// 1 runs them serially, N > 1 runs up to N concurrently, negative uses
	// every CPU (always bounded by GOMAXPROCS). Output is byte-identical at
	// any width.
	Parallel int `json:"parallel,omitempty"`
}
