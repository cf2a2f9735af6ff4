package neofog

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"neofog/internal/telemetry"
)

// TestTelemetryFacade checks the public wiring end to end: attaching a
// Telemetry leaves the result bit-identical, fills the registry, and all
// three exporters produce well-formed output.
func TestTelemetryFacade(t *testing.T) {
	cfg := SimulationConfig{Rounds: 120, Seed: 11}
	bare, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tel := NewTelemetry()
	cfg.Telemetry = tel
	traced, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if bare != traced {
		t.Fatalf("telemetry perturbed the run:\nbare:   %+v\ntraced: %+v", bare, traced)
	}
	if got := tel.Counter("sim.wakeups"); got != int64(traced.Wakeups) {
		t.Fatalf("sim.wakeups counter = %d, result says %d", got, traced.Wakeups)
	}
	if got := tel.Counter("result.fog_processed"); got != int64(traced.FogProcessed) {
		t.Fatalf("result.fog_processed counter = %d, result says %d", got, traced.FogProcessed)
	}

	var trace, timeline bytes.Buffer
	if err := tel.WriteTrace(&trace); err != nil {
		t.Fatal(err)
	}
	if err := telemetry.ValidateTraceJSON(trace.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := tel.WriteTimeline(&timeline); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(timeline.String(), "chain,node,round,time_s,stored_mj,backlog,awake\n") {
		t.Fatalf("timeline header wrong: %q", timeline.String()[:60])
	}
	if sum := tel.Summary(); !strings.Contains(sum, "Telemetry summary") || !strings.Contains(sum, "sim.wakeups") {
		t.Fatalf("summary incomplete:\n%s", sum)
	}
}

// TestTelemetryFacadeNil pins the zero-cost default: a nil *Telemetry is a
// valid no-op collector everywhere the facade accepts one.
func TestTelemetryFacadeNil(t *testing.T) {
	var tel *Telemetry
	if tel.Counter("sim.wakeups") != 0 {
		t.Fatal("nil counter not zero")
	}
	var buf bytes.Buffer
	if err := tel.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if err := telemetry.ValidateTraceJSON(buf.Bytes()); err != nil {
		t.Fatalf("nil trace export invalid: %v", err)
	}
	if err := tel.WriteTimeline(&buf); err != nil {
		t.Fatal(err)
	}
	if tel.Summary() == "" {
		t.Fatal("nil summary empty")
	}
}

// TestTelemetryFacadeFleet checks SimulateFleet merges per-chain child
// recorders into the caller's Telemetry without changing the fleet
// result: in chain order, chain i tagged i, byte-identical run to run.
func TestTelemetryFacadeFleet(t *testing.T) {
	cfg := SimulationConfig{Rounds: 80, Seed: 4}
	bare, err := SimulateFleet(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	run := func() ([]byte, *Telemetry) {
		tel := NewTelemetry()
		c := cfg
		c.Telemetry = tel
		traced, err := SimulateFleet(c, 3)
		if err != nil {
			t.Fatal(err)
		}
		if bare.Aggregate != traced.Aggregate {
			t.Fatal("telemetry perturbed the fleet aggregate")
		}
		if got := tel.Counter("sim.wakeups"); got != int64(traced.Aggregate.Wakeups) {
			t.Fatalf("merged sim.wakeups = %d, aggregate says %d", got, traced.Aggregate.Wakeups)
		}
		var trace bytes.Buffer
		if err := tel.WriteTrace(&trace); err != nil {
			t.Fatal(err)
		}
		return trace.Bytes(), tel
	}
	tr1, tel := run()
	tr2, _ := run()
	if !bytes.Equal(tr1, tr2) {
		t.Fatal("fleet-merged trace export not deterministic")
	}
	if err := telemetry.ValidateTraceJSON(tr1); err != nil {
		t.Fatal(err)
	}
	// Chain i's events are tagged i, and the chains merge in order.
	seen := map[int]bool{}
	last := 0
	for _, ev := range tel.rec.Events() {
		if ev.Chain < last {
			t.Fatalf("event tagged chain %d after chain %d", ev.Chain, last)
		}
		last = ev.Chain
		seen[ev.Chain] = true
	}
	if len(seen) != 3 || !seen[0] || !seen[1] || !seen[2] {
		t.Fatalf("events tagged with chains %v, want exactly 0, 1 and 2", seen)
	}
}

// TestTelemetryExperiment checks ExperimentOptions.Telemetry records across
// every run an experiment performs.
func TestTelemetryExperiment(t *testing.T) {
	tel := NewTelemetry()
	out, err := RunExperiment("fig9", ExperimentOptions{Seed: 1, Rounds: 60, Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	if out == "" {
		t.Fatal("empty experiment output")
	}
	if tel.Counter("sim.wakeups") == 0 {
		t.Fatal("experiment recorded no wakeups")
	}
}

// streamRecord is one TelemetryStreamer callback, flattened so two
// streams compare with reflect.DeepEqual.
type streamRecord struct {
	sample                bool
	chain, lane, round    int
	phase                 string
	instant, awake        bool
	start, dur, value, mj float64
	backlog               int
}

// captureStreamer records every callback in arrival order.
type captureStreamer struct{ got []streamRecord }

func (c *captureStreamer) TelemetryEvent(chain, track int, phase string, instant bool, start, dur, value float64) {
	c.got = append(c.got, streamRecord{chain: chain, lane: track, phase: phase, instant: instant,
		start: start, dur: dur, value: value})
}

func (c *captureStreamer) TelemetrySample(chain, node, round int, at, mj float64, backlog int, awake bool) {
	c.got = append(c.got, streamRecord{sample: true, chain: chain, lane: node, round: round,
		start: at, mj: mj, backlog: backlog, awake: awake})
}

// discardStreamer drops every callback.
type discardStreamer struct{}

func (discardStreamer) TelemetryEvent(int, int, string, bool, float64, float64, float64) {}
func (discardStreamer) TelemetrySample(int, int, int, float64, float64, int, bool)       {}

// exports renders all three of a collector's exports.
func exports(t *testing.T, tel *Telemetry) (trace, timeline, summary string) {
	t.Helper()
	var tb, lb bytes.Buffer
	if err := tel.WriteTrace(&tb); err != nil {
		t.Fatal(err)
	}
	if err := tel.WriteTimeline(&lb); err != nil {
		t.Fatal(err)
	}
	return tb.String(), lb.String(), tel.Summary()
}

// TestStreamingTelemetryContract pins what NewStreamingTelemetry
// promises for a Simulate, a 3-chain SimulateFleet (merged through
// MergeNext) and a short experiment: its streamer receives exactly the
// events and samples a retaining collector keeps, each in recording
// order, with the same conversion; it keeps nothing (its
// exports equal an empty collector's and Counter reads 0), and results
// are bit-identical with it on or off.
func TestStreamingTelemetryContract(t *testing.T) {
	cases := []struct {
		name   string
		chains int
		run    func(tel *Telemetry) (any, error)
	}{
		{"simulate", 1, func(tel *Telemetry) (any, error) {
			return Simulate(SimulationConfig{Nodes: 6, Rounds: 60, Seed: 3, Telemetry: tel})
		}},
		{"fleet", 3, func(tel *Telemetry) (any, error) {
			return SimulateFleet(SimulationConfig{Nodes: 4, Rounds: 40, Seed: 4, Telemetry: tel}, 3)
		}},
		{"experiment", 0, func(tel *Telemetry) (any, error) {
			return RunExperiment("fig9", ExperimentOptions{Seed: 1, Rounds: 30, Telemetry: tel})
		}},
	}
	emptyTrace, emptyTimeline, emptySummary := exports(t, NewTelemetry())
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			bare, err := c.run(nil)
			if err != nil {
				t.Fatal(err)
			}
			var streamed captureStreamer
			retaining := NewTelemetry()
			withRetaining, err := c.run(retaining)
			if err != nil {
				t.Fatal(err)
			}
			stream := NewStreamingTelemetry(&streamed)
			withStream, err := c.run(stream)
			if err != nil {
				t.Fatal(err)
			}

			if !reflect.DeepEqual(bare, withStream) || !reflect.DeepEqual(bare, withRetaining) {
				t.Fatal("telemetry perturbed the result")
			}
			// The retaining collector's records as the stream converts
			// them, events first, against the stream's records in the
			// same grouping.
			var kept captureStreamer
			for _, e := range retaining.rec.Events() {
				streamAdapter{&kept}.OnEvent(e)
			}
			for _, s := range retaining.rec.Samples() {
				streamAdapter{&kept}.OnSample(s)
			}
			var got, samples []streamRecord
			for _, r := range streamed.got {
				if r.sample {
					samples = append(samples, r)
				} else {
					got = append(got, r)
				}
			}
			got = append(got, samples...)
			if len(kept.got) == 0 || retaining.Counter("sim.wakeups") == 0 {
				t.Fatal("degenerate run: the retaining collector recorded nothing")
			}
			if len(got) != len(kept.got) {
				t.Fatalf("stream-only sink got %d records, retaining collector kept %d", len(got), len(kept.got))
			}
			for i := range kept.got {
				if got[i] != kept.got[i] {
					t.Fatalf("record %d differs:\nstream-only %+v\nretaining   %+v", i, got[i], kept.got[i])
				}
			}
			if c.chains > 1 && streamed.got[len(streamed.got)-1].chain != c.chains-1 {
				t.Fatalf("last record tagged chain %d, want %d", streamed.got[len(streamed.got)-1].chain, c.chains-1)
			}

			trace, timeline, summary := exports(t, stream)
			if trace != emptyTrace || timeline != emptyTimeline || summary != emptySummary {
				t.Fatal("stream-only collector's exports differ from an empty collector's")
			}
			if got := stream.Counter("sim.wakeups"); got != 0 {
				t.Fatalf("stream-only Counter(sim.wakeups) = %d, want 0", got)
			}
		})
	}
}

// TestStreamingTelemetryAllocs bounds what a stream-only collector adds
// to a Simulate on write-mix-shaped configs: a small constant (the
// collector itself and the per-node track labels the simulator builds),
// not a buffer that grows with the run.
func TestStreamingTelemetryAllocs(t *testing.T) {
	const slack = 32
	for _, sys := range []System{SystemVP, SystemNVP, SystemNEOFog} {
		for _, shape := range []struct{ nodes, rounds int }{{4, 30}, {10, 300}} {
			cfg := SimulationConfig{System: sys, Nodes: shape.nodes, Rounds: shape.rounds, Seed: 7}
			bare := testing.AllocsPerRun(3, func() {
				if _, err := Simulate(cfg); err != nil {
					t.Fatal(err)
				}
			})
			streamed := testing.AllocsPerRun(3, func() {
				c := cfg
				c.Telemetry = NewStreamingTelemetry(discardStreamer{})
				if _, err := Simulate(c); err != nil {
					t.Fatal(err)
				}
			})
			if streamed > bare+slack {
				t.Errorf("%s %d nodes × %d rounds: %.0f allocs with stream-only telemetry, %.0f bare (slack %d)",
					sys, shape.nodes, shape.rounds, streamed, bare, slack)
			}
		}
	}
}
