package neofog

import (
	"io"

	"neofog/internal/telemetry"
)

// Telemetry collects a deployment's observability data: phase spans and
// instants per physical node (keyed to RTC slot time), counters, gauges
// and histograms, and a per-node energy/backlog timeline. Attach one to
// SimulationConfig.Telemetry or ExperimentOptions.Telemetry, run, then
// export.
//
// Telemetry observes, never perturbs: a run's results are bit-identical
// with or without a recorder attached, and the nil default costs nothing.
// Recording from the same seed twice yields byte-identical exports. A
// Telemetry must not be shared across concurrently running simulations;
// SimulateFleet handles that internally by giving each chain a private
// child recorder and merging in chain order.
type Telemetry struct {
	rec *telemetry.Recorder
}

// NewTelemetry builds an empty collector.
func NewTelemetry() *Telemetry { return &Telemetry{rec: telemetry.New()} }

// TelemetryStreamer receives telemetry records the moment they are
// recorded, in recording order — the live counterpart of the batch
// exports. Callbacks run on the simulating goroutine: implementations
// must be fast and do their own synchronization if they fan records out
// to other goroutines. Streaming observes without perturbing: results
// are identical with or without it.
type TelemetryStreamer interface {
	// TelemetryEvent reports one phase span or instant. chain and track
	// locate the lane (track is the physical node index, or one past the
	// last node for the balancer lane), phase is the phase name
	// ("harvest", "wake", ..., see DESIGN.md), instant distinguishes
	// point events from spans, and times are simulated RTC seconds.
	TelemetryEvent(chain, track int, phase string, instant bool, startSeconds, durSeconds, value float64)
	// TelemetrySample reports one per-node timeline point: stored energy
	// (millijoules) and slot backlog at the end of a round.
	TelemetrySample(chain, node, round int, timeSeconds, storedMillijoules float64, backlog int, awake bool)
}

// NewStreamingTelemetry builds a stream-only collector: it forwards every
// span, instant and timeline sample to s as it is recorded, and keeps
// nothing. s receives exactly the records a NewTelemetry collector would
// keep, in the same order, merged fleet and experiment chains included.
// Its exports are an empty collector's and Counter reads 0.
// The simulation-as-a-service daemon uses this for live SSE progress.
func NewStreamingTelemetry(s TelemetryStreamer) *Telemetry {
	return &Telemetry{rec: telemetry.NewStreaming(streamAdapter{s})}
}

// streamAdapter converts internal telemetry records to the basic-typed
// TelemetryStreamer callbacks, keeping internal types out of the public
// API surface.
type streamAdapter struct{ s TelemetryStreamer }

func (a streamAdapter) OnEvent(e telemetry.Event) {
	a.s.TelemetryEvent(e.Chain, e.Track, e.Phase.String(), e.Kind == telemetry.KindInstant,
		e.Start.Seconds(), e.Dur.Seconds(), e.Value)
}

func (a streamAdapter) OnSample(s telemetry.Sample) {
	a.s.TelemetrySample(s.Chain, s.Node, s.Round, s.Time.Seconds(),
		s.Stored.Millijoules(), s.Backlog, s.Awake)
}

// recorder unwraps to the internal recorder; nil-safe, so a nil *Telemetry
// behaves exactly like no telemetry at all.
func (t *Telemetry) recorder() *telemetry.Recorder {
	if t == nil {
		return nil
	}
	return t.rec
}

// WriteTrace exports the recorded spans as Chrome trace-event JSON; the
// file loads directly in chrome://tracing or https://ui.perfetto.dev.
func (t *Telemetry) WriteTrace(w io.Writer) error {
	return t.recorder().WriteChromeTrace(w)
}

// WriteTimeline exports the per-node energy & backlog timeline as CSV
// (chain,node,round,time_s,stored_mj,backlog,awake).
func (t *Telemetry) WriteTimeline(w io.Writer) error {
	return t.recorder().WriteTimelineCSV(w)
}

// Summary renders the metrics registry as the repo's standard text table.
func (t *Telemetry) Summary() string {
	return t.recorder().SummaryTable().Format()
}

// Counter reads a named counter (0 if never written).
func (t *Telemetry) Counter(name string) int64 {
	return t.recorder().Counter(name)
}
