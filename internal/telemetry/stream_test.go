package telemetry

import (
	"bytes"
	"reflect"
	"testing"

	"neofog/internal/units"
)

type captureSink struct {
	events  []Event
	samples []Sample
}

func (c *captureSink) OnEvent(e Event)   { c.events = append(c.events, e) }
func (c *captureSink) OnSample(s Sample) { c.samples = append(c.samples, s) }

// TestSinkSeesRecordingOrder checks the stream contract: a stream-only
// recorder's sink receives exactly the records a retaining recorder fed
// the same calls keeps, in recording order.
func TestSinkSeesRecordingOrder(t *testing.T) {
	var sink captureSink
	r := New()
	for _, rec := range []*Recorder{r, NewStreaming(&sink)} {
		rec.Span(0, PhaseWake, 0, 5*units.Millisecond, 1)
		rec.Instant(1, PhaseTx, 12*units.Second, 8)
		rec.Sample(0, 3, 12*units.Second, 100*units.Microjoule, 2, true)
		rec.Span(2, PhaseFog, 24*units.Second, units.Second, 3)
	}

	if !reflect.DeepEqual(sink.events, r.Events()) {
		t.Fatalf("sink events diverge from recorder:\n%v\n%v", sink.events, r.Events())
	}
	if !reflect.DeepEqual(sink.samples, r.Samples()) {
		t.Fatalf("sink samples diverge from recorder:\n%v\n%v", sink.samples, r.Samples())
	}
}

// TestSinkSeesMergedChains checks that MergeNext re-emits the child's
// records to a stream-only parent's sink with the assigned chain id, as a
// retaining parent keeps them, so a fleet consumer streams chains in merge
// order.
func TestSinkSeesMergedChains(t *testing.T) {
	parent := New()
	var sink captureSink
	stream := NewStreaming(&sink)

	for chain := 0; chain < 3; chain++ {
		for _, p := range []*Recorder{parent, stream} {
			child := New()
			child.Span(chain, PhaseHarvest, 0, units.Second, float64(chain))
			child.Sample(1, chain, units.Second, units.Microjoule, chain, false)
			p.MergeNext(child)
		}
	}

	if !reflect.DeepEqual(sink.events, parent.Events()) {
		t.Fatalf("merged events diverge:\n%v\n%v", sink.events, parent.Events())
	}
	if !reflect.DeepEqual(sink.samples, parent.Samples()) {
		t.Fatalf("merged samples diverge:\n%v\n%v", sink.samples, parent.Samples())
	}
	for i, e := range sink.events {
		if e.Chain != i {
			t.Fatalf("event %d tagged chain %d, want %d", i, e.Chain, i)
		}
	}
}

// TestStreamOnlyForwardsAndKeepsNothing checks NewStreaming against a
// retaining recorder fed the same calls: its sink receives the same
// records in the same order — direct spans, instants and samples, then
// merged chains re-tagged in merge order — while every read and export
// equals an empty recorder's.
func TestStreamOnlyForwardsAndKeepsNothing(t *testing.T) {
	direct := func(r *Recorder) {
		r.Track(0, "node 0")
		r.Count("c", 2)
		r.SetGauge("g", 1)
		r.Observe("h", 3)
		r.Span(0, PhaseWake, 0, units.Millisecond, 1)
		r.Instant(1, PhaseTx, units.Second, 8)
		r.Sample(0, 1, units.Second, units.Microjoule, 2, true)
	}
	merged := func(r *Recorder) {
		for chain := 0; chain < 3; chain++ {
			child := New()
			direct(child)
			child.Span(chain, PhaseFog, units.Duration(chain), units.Second, float64(chain))
			r.MergeNext(child)
		}
	}
	for _, c := range []struct {
		name            string
		record          func(*Recorder)
		events, samples int
	}{{"direct", direct, 2, 1}, {"merged", merged, 9, 3}} {
		name, record := c.name, c.record
		var streamed captureSink
		retaining := New()
		record(retaining)
		stream := NewStreaming(&streamed)
		record(stream)

		if len(streamed.events) != c.events || len(streamed.samples) != c.samples {
			t.Fatalf("%s: stream-only sink got %d events and %d samples, want %d and %d",
				name, len(streamed.events), len(streamed.samples), c.events, c.samples)
		}
		if !reflect.DeepEqual(streamed.events, retaining.Events()) {
			t.Fatalf("%s: stream-only events diverge:\n%v\n%v", name, streamed.events, retaining.Events())
		}
		if !reflect.DeepEqual(streamed.samples, retaining.Samples()) {
			t.Fatalf("%s: stream-only samples diverge:\n%v\n%v", name, streamed.samples, retaining.Samples())
		}

		if stream.Events() != nil || stream.Samples() != nil || stream.Counter("c") != 0 ||
			stream.HistNames() != nil || stream.CounterNames() != nil || stream.GaugeNames() != nil {
			t.Fatalf("%s: stream-only recorder kept something", name)
		}
		if _, ok := stream.gauges["g"]; ok {
			t.Fatalf("%s: stream-only recorder kept a gauge", name)
		}
		if !stream.Enabled() {
			t.Fatalf("%s: stream-only recorder reports disabled; the simulator would skip recording", name)
		}
		empty := New()
		var gotTrace, wantTrace, gotTimeline, wantTimeline bytes.Buffer
		for _, err := range []error{
			stream.WriteChromeTrace(&gotTrace), empty.WriteChromeTrace(&wantTrace),
			stream.WriteTimelineCSV(&gotTimeline), empty.WriteTimelineCSV(&wantTimeline),
		} {
			if err != nil {
				t.Fatal(err)
			}
		}
		if gotTrace.String() != wantTrace.String() || gotTimeline.String() != wantTimeline.String() ||
			stream.SummaryTable().Format() != empty.SummaryTable().Format() {
			t.Fatalf("%s: stream-only exports differ from an empty recorder's", name)
		}
	}
}
