package neofog

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestSimulateDefaults(t *testing.T) {
	res, err := Simulate(SimulationConfig{Rounds: 50})
	if err != nil {
		t.Fatal(err)
	}
	if res.Nodes != 10 || res.Rounds != 50 || res.IdealPackets != 500 {
		t.Fatalf("defaults wrong: %+v", res)
	}
	if res.TotalProcessed() != res.FogProcessed+res.CloudProcessed {
		t.Fatal("TotalProcessed mismatch")
	}
}

func TestSimulateDeterminism(t *testing.T) {
	cfg := SimulationConfig{Rounds: 80, Seed: 9}
	a, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same config diverged:\n%+v\n%+v", a, b)
	}
}

func TestSimulateSystemOrdering(t *testing.T) {
	run := func(sys System) SimulationResult {
		r, err := Simulate(SimulationConfig{System: sys, Seed: 5, Rounds: 400})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	vp, nvp, neo := run(SystemVP), run(SystemNVP), run(SystemNEOFog)
	if !(neo.TotalProcessed() > nvp.TotalProcessed() && nvp.TotalProcessed() > vp.TotalProcessed()) {
		t.Fatalf("ordering violated: vp=%d nvp=%d neo=%d",
			vp.TotalProcessed(), nvp.TotalProcessed(), neo.TotalProcessed())
	}
	if vp.FogProcessed != 0 {
		t.Fatal("VP must not fog-process the bridge kernel")
	}
}

func TestSimulateMultiplexing(t *testing.T) {
	base, err := Simulate(SimulationConfig{Weather: WeatherRainy, Correlated: true,
		FogInstsPerByte: 800, Seed: 3, Rounds: 600})
	if err != nil {
		t.Fatal(err)
	}
	mux, err := Simulate(SimulationConfig{Weather: WeatherRainy, Correlated: true,
		FogInstsPerByte: 800, Seed: 3, Rounds: 600, Multiplexing: 3})
	if err != nil {
		t.Fatal(err)
	}
	if mux.Nodes != 30 || mux.IdealPackets != base.IdealPackets {
		t.Fatalf("multiplexing shape wrong: %+v", mux)
	}
	if mux.TotalProcessed() <= base.TotalProcessed() {
		t.Fatalf("3× multiplexing should lift rainy-day QoS: %d vs %d",
			mux.TotalProcessed(), base.TotalProcessed())
	}
}

func TestSimulateValidation(t *testing.T) {
	cases := []SimulationConfig{
		{System: "warp-drive"},
		{Balancer: "chaotic"},
		{Weather: "hail"},
		{Application: "juicer"},
		{Nodes: -1},
		{Rounds: -1},
		{Nodes: 1, Multiplexing: 2}, // clone sets anchor on a line of two or more
	}
	for i, cfg := range cases {
		if _, err := Simulate(cfg); err == nil {
			t.Errorf("case %d: expected error for %+v", i, cfg)
		}
		if _, err := SimulateFleet(cfg, 2); err == nil {
			t.Errorf("case %d: expected fleet error for %+v", i, cfg)
		}
	}
}

// A negative fog-kernel cost, or one whose per-packet instruction count
// overflows int64, is refused by every entry point that takes a
// SimulationConfig, with an error rather than a panic inside the
// simulator.
func TestFogCostOverflowRejected(t *testing.T) {
	for _, perByte := range []int64{-1, math.MinInt64, 1e16, 1 << 62, math.MaxInt64/1024 + 1} {
		cfg := SimulationConfig{Nodes: 4, Rounds: 10, FogInstsPerByte: perByte}
		if _, err := Simulate(cfg); err == nil {
			t.Errorf("Simulate accepted %d insts/byte", perByte)
		}
		if _, err := SimulateFleet(cfg, 2); err == nil {
			t.Errorf("SimulateFleet accepted %d insts/byte", perByte)
		}
		if _, err := NormalizeConfig(cfg); err == nil {
			t.Errorf("NormalizeConfig accepted %d insts/byte", perByte)
		}
	}
	// The largest cost whose 1 kB packet still fits is valid input.
	if _, err := NormalizeConfig(SimulationConfig{FogInstsPerByte: math.MaxInt64 / 1024}); err != nil {
		t.Errorf("NormalizeConfig rejected the largest representable cost: %v", err)
	}
}

// Every artifact, on chains too short for its deployment, returns a
// table or an error and never panics, serially and across sweep workers.
func TestExperimentsSmallChainsNeverPanic(t *testing.T) {
	for _, id := range ExperimentIDs() {
		for nodes := 1; nodes <= 6; nodes++ {
			for _, parallel := range []int{0, 2} {
				func() {
					defer func() {
						if r := recover(); r != nil {
							t.Errorf("%s nodes %d parallel %d panicked: %v", id, nodes, parallel, r)
						}
					}()
					out, err := RunExperiment(id, ExperimentOptions{Nodes: nodes, Rounds: 5, Parallel: parallel})
					if err == nil && out == "" {
						t.Errorf("%s nodes %d: no table and no error", id, nodes)
					}
				}()
			}
		}
	}
	for _, opts := range []ExperimentOptions{{Nodes: -1}, {Rounds: -5}} {
		if _, err := RunExperiment("fig9", opts); err == nil {
			t.Errorf("fig9 accepted %+v", opts)
		}
	}
}

func TestExperimentRegistry(t *testing.T) {
	ids := ExperimentIDs()
	if len(ids) != 16 {
		t.Fatalf("experiments = %d, want 16: %v", len(ids), ids)
	}
	for _, want := range []string{"table1", "table2", "fig4", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "headline", "wispcam", "camera", "chaos", "resilience"} {
		found := false
		for _, id := range ids {
			if id == want {
				found = true
			}
		}
		if !found {
			t.Errorf("missing experiment %q", want)
		}
	}
}

func TestRunExperimentQuick(t *testing.T) {
	// The cheap experiments run fully; just verify they produce tables.
	for _, id := range []string{"table1", "table2", "fig4", "fig6", "fig7"} {
		out, err := RunExperiment(id, ExperimentOptions{Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if !strings.Contains(out, "\n") || len(out) < 50 {
			t.Fatalf("%s: implausible output %q", id, out)
		}
	}
	if _, err := RunExperiment("fig99", ExperimentOptions{}); err == nil {
		t.Fatal("unknown experiment should error")
	}
}

func TestRunExperimentSimBacked(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed experiments")
	}
	out, err := RunExperiment("fig10", ExperimentOptions{Seed: 1, Rounds: 300})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "FIOS-NEOFog") {
		t.Fatalf("fig10 output missing system rows:\n%s", out)
	}
}

// TestRunExperimentParallelByteIdentical drives the facade's Parallel knob
// across every registered experiment ID: the published CSV must come out
// byte-identical to the serial run at any pool width, chaos and resilience
// campaigns included. The deep per-harness A/B (secondary outputs and
// telemetry merge order) lives in internal/experiments.
func TestRunExperimentParallelByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed experiments")
	}
	for _, id := range ExperimentIDs() {
		serial := &bytes.Buffer{}
		if err := RunExperimentCSV(id, ExperimentOptions{Seed: 1, Rounds: 300}, serial); err != nil {
			t.Fatalf("%s serial: %v", id, err)
		}
		par := &bytes.Buffer{}
		if err := RunExperimentCSV(id, ExperimentOptions{Seed: 1, Rounds: 300, Parallel: -1}, par); err != nil {
			t.Fatalf("%s parallel: %v", id, err)
		}
		if !bytes.Equal(serial.Bytes(), par.Bytes()) {
			t.Errorf("%s: parallel CSV diverged from serial\n--- serial ---\n%s\n--- parallel ---\n%s",
				id, serial.Bytes(), par.Bytes())
		}
	}
}

func TestSimulateFleet(t *testing.T) {
	cfg := SimulationConfig{Rounds: 60, Nodes: 5, Seed: 11}
	fleet, err := SimulateFleet(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(fleet.PerChain) != 4 || fleet.Aggregate.Nodes != 20 {
		t.Fatalf("fleet shape: %+v", fleet.Aggregate)
	}
	// Chain i must equal a standalone run at seed cfg.Seed+i.
	var wakeups, fog int
	for i, got := range fleet.PerChain {
		c := cfg
		c.Seed = cfg.Seed + int64(i)
		solo, err := Simulate(c)
		if err != nil {
			t.Fatal(err)
		}
		if got != solo {
			t.Fatalf("chain %d diverged:\n%+v\n%+v", i, got, solo)
		}
		wakeups += solo.Wakeups
		fog += solo.FogProcessed
	}
	if fleet.Aggregate.Wakeups != wakeups || fleet.Aggregate.FogProcessed != fog {
		t.Fatalf("aggregate %+v does not sum the chains (wakeups %d, fog %d)", fleet.Aggregate, wakeups, fog)
	}
	if _, err := SimulateFleet(cfg, 0); err == nil {
		t.Fatal("zero chains should error")
	}
	if _, err := SimulateFleet(SimulationConfig{Nodes: 1, Multiplexing: 2}, 2); err == nil {
		t.Fatal("a chain config the simulator refuses should surface its error")
	}
}

// A fleet is held to the physical-node cap of one deployment across all
// its chains: a fleet exactly at the cap normalizes (it is not run), one
// chain past it is refused naming chains, and so is a chain count whose
// product with the nodes would overflow. SimulateFleet refuses what
// NormalizeFleet refuses, before it allocates anything per chain.
func TestNormalizeFleetCap(t *testing.T) {
	cfg := SimulationConfig{Nodes: 4, Multiplexing: 2, Rounds: 1}
	norm, err := NormalizeFleet(cfg, 1024)
	if err != nil {
		t.Fatalf("1024 chains × 8 physical nodes refused: %v", err)
	}
	if want, _ := NormalizeConfig(cfg); norm != want {
		t.Fatalf("NormalizeFleet = %+v, NormalizeConfig = %+v", norm, want)
	}
	for _, chains := range []int{1025, 1_000_000_000, math.MaxInt} {
		_, err := NormalizeFleet(cfg, chains)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("chains %d × 8 physical nodes is over the 8192 physical-node cap", chains)) {
			t.Errorf("%d chains: err %v, want the physical-node cap naming chains", chains, err)
		}
		if _, serr := SimulateFleet(cfg, chains); serr == nil || err == nil || serr.Error() != err.Error() {
			t.Errorf("%d chains: NormalizeFleet says %v, SimulateFleet %v", chains, err, serr)
		}
	}
}

// Every artifact that reads Nodes is held to the caps of one deployment:
// at the longest chain its shape allows, its options normalize (they are
// not run), one node more is refused naming nodes, and so is a chain
// whose income would overflow. The artifacts that read Nodes are found
// by running each at two chain lengths, so a new node-reading artifact
// without a shape fails here. Each cap is derived by hand from 12 000 B
// of whole-day income per physical node (1500 slots of 8 B) under the
// 64 MiB income cap, which binds before the 8192-node cap for all of
// them.
func TestNormalizeExperimentCaps(t *testing.T) {
	caps := map[string]int{
		"fig9":       67108864 / (1 * 12000), // one set of nodes
		"fig10":      67108864 / (5 * 12000), // five profile sets
		"fig11":      67108864 / (5 * 12000),
		"fig12":      67108864 / (16 * 12000), // VP + 100%…500%: 1+1+2+3+4+5
		"fig13":      67108864 / (16 * 12000),
		"headline":   67108864 / (5 * 12000), // VP + 100% + 300%: 1+1+3
		"chaos":      67108864 / (1 * 12000),
		"resilience": 67108864 / (2 * 12000), // every node has a clone partner
	}
	for _, id := range ExperimentIDs() {
		short, errShort := RunExperiment(id, ExperimentOptions{Nodes: 6, Rounds: 30})
		long, errLong := RunExperiment(id, ExperimentOptions{Nodes: 12, Rounds: 30})
		if errShort != nil || errLong != nil {
			t.Fatalf("%s: %v / %v", id, errShort, errLong)
		}
		cap, capped := caps[id]
		if reads := short != long; reads != capped {
			t.Errorf("%s: reads nodes %v, but capped %v", id, reads, capped)
			continue
		}
		if !capped {
			if _, err := NormalizeExperiment(id, ExperimentOptions{Nodes: math.MaxInt}); err != nil {
				t.Errorf("%s reads no nodes, yet refused: %v", id, err)
			}
			continue
		}
		norm, err := NormalizeExperiment(strings.ToUpper(id), ExperimentOptions{Nodes: cap, Parallel: 3})
		if err != nil {
			t.Errorf("%s at %d nodes refused: %v", id, cap, err)
		} else if want := (ExperimentOptions{Seed: 1, Nodes: cap, Rounds: 1500, FaultSeed: 1, Parallel: 3}); !reflect.DeepEqual(norm, want) {
			t.Errorf("%s normalized to %+v, want %+v", id, norm, want)
		}
		for _, nodes := range []int{cap + 1, 10_000_000, math.MaxInt} {
			_, err := NormalizeExperiment(id, ExperimentOptions{Nodes: nodes})
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%s nodes %d", id, nodes)) {
				t.Errorf("%s at %d nodes: err %v, want a refusal naming nodes", id, nodes, err)
			}
			if _, rerr := RunExperiment(id, ExperimentOptions{Nodes: nodes}); rerr == nil || err == nil || rerr.Error() != err.Error() {
				t.Errorf("%s at %d nodes: NormalizeExperiment says %v, RunExperiment %v", id, nodes, err, rerr)
			}
		}
	}
}

// A campaign sweeps at most 101 fault intensities, and negative counts
// are refused naming their field.
func TestNormalizeExperimentRefusals(t *testing.T) {
	sweep := make([]float64, 101)
	for i := range sweep {
		sweep[i] = float64(i) / 100
	}
	if _, err := NormalizeExperiment("chaos", ExperimentOptions{FaultIntensities: sweep}); err != nil {
		t.Errorf("101 intensities refused: %v", err)
	}
	for _, tc := range []struct {
		opts ExperimentOptions
		want string
	}{
		{ExperimentOptions{FaultIntensities: append(sweep, 1)}, "fault_intensities lists 102 points, over the 101-point cap"},
		{ExperimentOptions{Nodes: -1}, "nodes ≥ 0"},
		{ExperimentOptions{Rounds: -5}, "rounds ≥ 0"},
	} {
		if _, err := NormalizeExperiment("resilience", tc.opts); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%+v: err %v, want %q", tc.opts, err, tc.want)
		}
	}
	if _, err := NormalizeExperiment("fig99", ExperimentOptions{}); err == nil || !strings.Contains(err.Error(), `unknown experiment "fig99"`) {
		t.Errorf("unknown artifact: err %v", err)
	}
}

// The journal is one JSON line per round under the names its readers
// use: every line holds exactly the seven fields below, numbers its
// round, and the per-round deltas sum to the run's totals.
func TestSimulateJournal(t *testing.T) {
	var buf bytes.Buffer
	res, err := Simulate(SimulationConfig{Nodes: 3, Rounds: 25, Seed: 2, Journal: &buf})
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(buf.Bytes(), []byte("\n"))
	if last := lines[len(lines)-1]; len(last) != 0 {
		t.Fatalf("journal ends without a newline: %q", last)
	}
	lines = lines[:len(lines)-1]
	if len(lines) != res.Rounds {
		t.Fatalf("journal lines = %d, want %d", len(lines), res.Rounds)
	}
	var fog, cloud, dropped, moves int
	for i, line := range lines {
		var e struct {
			Round        int      `json:"round"`
			Awake        int      `json:"awake"`
			Fog          int      `json:"fog"`
			Cloud        int      `json:"cloud"`
			Dropped      int      `json:"dropped"`
			Moves        int      `json:"moves"`
			MeanStoredMJ *float64 `json:"mean_stored_mj"`
		}
		dec := json.NewDecoder(bytes.NewReader(line))
		dec.DisallowUnknownFields()
		var fields map[string]json.RawMessage
		if err := dec.Decode(&e); err != nil || json.Unmarshal(line, &fields) != nil || len(fields) != 7 {
			t.Fatalf("line %d does not hold the journal's seven fields (%v): %s", i, err, line)
		}
		if e.Round != i || e.Awake < 0 || e.Awake > res.Nodes || e.MeanStoredMJ == nil || *e.MeanStoredMJ < 0 {
			t.Fatalf("line %d implausible: %s", i, line)
		}
		fog += e.Fog
		cloud += e.Cloud
		dropped += e.Dropped
		moves += e.Moves
	}
	if fog != res.FogProcessed || cloud != res.CloudProcessed || dropped != res.Dropped || moves != res.Moves {
		t.Fatalf("journal sums fog %d cloud %d dropped %d moves %d, result %d %d %d %d",
			fog, cloud, dropped, moves, res.FogProcessed, res.CloudProcessed, res.Dropped, res.Moves)
	}
}

// A fleet journal must read exactly as if the chains had run serially
// against the shared writer, even though they execute concurrently.
func TestSimulateFleetJournalOrdering(t *testing.T) {
	const chains = 3
	cfg := SimulationConfig{Nodes: 4, Rounds: 30, Seed: 6}

	var shared bytes.Buffer
	fleetCfg := cfg
	fleetCfg.Journal = &shared
	if _, err := SimulateFleet(fleetCfg, chains); err != nil {
		t.Fatal(err)
	}

	var want bytes.Buffer
	for i := 0; i < chains; i++ {
		c := cfg
		c.Seed = cfg.Seed + int64(i)
		c.Journal = &want
		if _, err := Simulate(c); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(shared.Bytes(), want.Bytes()) {
		t.Fatalf("fleet journal differs from serial order (%d vs %d bytes)",
			shared.Len(), want.Len())
	}
}
