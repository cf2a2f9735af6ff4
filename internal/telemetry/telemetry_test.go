package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"neofog/internal/units"
)

// A nil recorder must be a total no-op: every method returns immediately,
// and the exporters still produce valid (empty) artifacts.
func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder reports enabled")
	}
	r.Count("x", 1)
	r.SetGauge("g", 1)
	r.Observe("h", 1)
	r.Track(0, "node")
	r.Span(0, PhaseWake, 0, units.Second, 0)
	r.Instant(0, PhaseSense, 0, 0)
	r.Sample(0, 0, 0, 0, 0, false)
	r.MergeNext(New())
	if r.Counter("x") != 0 || len(r.Events()) != 0 || len(r.Samples()) != 0 {
		t.Fatal("nil recorder retained data")
	}
	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("nil trace export: %v", err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("nil trace export is invalid JSON: %q", buf.String())
	}
	buf.Reset()
	if err := r.WriteTimelineCSV(&buf); err != nil {
		t.Fatalf("nil timeline export: %v", err)
	}
	if got := strings.TrimSpace(buf.String()); got != timelineHeader {
		t.Fatalf("nil timeline = %q, want header only", got)
	}
	if r.SummaryTable() == nil {
		t.Fatal("nil summary table")
	}
}

// Zero-allocation-when-disabled is the overhead contract the simulator
// threads this package under; pin it so a refactor cannot silently start
// allocating on the disabled path.
func TestNilRecorderDoesNotAllocate(t *testing.T) {
	var r *Recorder
	allocs := testing.AllocsPerRun(100, func() {
		r.Count("sim.wakeups", 1)
		r.Span(3, PhaseFog, units.Second, units.Millisecond, 1)
		r.Instant(3, PhaseSense, units.Second, 1024)
		r.Observe("mesh.hops", 4)
		r.Sample(1, 3, units.Second, units.Millijoule, 2, true)
	})
	if allocs != 0 {
		t.Fatalf("disabled recorder allocates %.1f per op, want 0", allocs)
	}
}

func TestRegistry(t *testing.T) {
	r := New()
	r.Count("a", 2)
	r.Count("a", 3)
	r.Count("b", 1)
	if got := r.Counter("a"); got != 5 {
		t.Fatalf("counter a = %d, want 5", got)
	}
	r.SetGauge("g", 1.5)
	r.SetGauge("g", 2.5)
	if v, ok := r.gauges["g"]; !ok || v != 2.5 {
		t.Fatalf("gauge g = %v, %v", v, ok)
	}
	for _, v := range []float64{0.5, 5, 5000} {
		r.Observe("h", v)
	}
	h := r.hists["h"]
	if h.N != 3 || h.Counts[0] != 1 || h.Counts[2] != 1 || h.Counts[len(DefaultBounds)] != 1 {
		t.Fatalf("histogram mis-bucketed: %+v", h)
	}
	if mean := h.Mean(); math.Abs(mean-(0.5+5+5000)/3) > 1e-12 {
		t.Fatalf("mean = %v", mean)
	}
	names := r.CounterNames()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("counter names %v not sorted", names)
	}
}

func makeChild(seed int64) *Recorder {
	r := New()
	r.Track(0, "node 0")
	r.Track(1, "balancer")
	r.Count("c", seed)
	r.Observe("h", float64(seed))
	r.Span(0, PhaseWake, 0, units.Millisecond, float64(seed))
	r.Instant(1, PhaseBalance, units.Second, 1)
	r.Sample(0, 0, units.Second, units.Millijoule, 1, true)
	return r
}

// Merging the same children in the same order must be byte-identical, and
// chains must be tagged in input order.
func TestMergeDeterministicInInputOrder(t *testing.T) {
	export := func() ([]byte, []byte) {
		parent := New()
		for i := int64(0); i < 3; i++ {
			if base := parent.MergeNext(makeChild(i + 1)); base != int(i) {
				t.Fatalf("child %d merged at chain %d", i, base)
			}
		}
		var tr, tl bytes.Buffer
		if err := parent.WriteChromeTrace(&tr); err != nil {
			t.Fatal(err)
		}
		if err := parent.WriteTimelineCSV(&tl); err != nil {
			t.Fatal(err)
		}
		if got := parent.Counter("c"); got != 1+2+3 {
			t.Fatalf("merged counter = %d", got)
		}
		if h := parent.hists["h"]; h.N != 3 {
			t.Fatalf("merged histogram N = %d", h.N)
		}
		return tr.Bytes(), tl.Bytes()
	}
	tr1, tl1 := export()
	tr2, tl2 := export()
	if !bytes.Equal(tr1, tr2) {
		t.Fatal("merged trace export not deterministic")
	}
	if !bytes.Equal(tl1, tl2) {
		t.Fatal("merged timeline export not deterministic")
	}
	// Chain ids must appear for all three children.
	for chain := 0; chain < 3; chain++ {
		want := "\"pid\":" + string(rune('0'+chain))
		if !bytes.Contains(tr1, []byte(want)) {
			t.Fatalf("trace missing chain %d (%s)", chain, want)
		}
	}
}

func TestTraceExportValidAndMonotone(t *testing.T) {
	r := New()
	r.Track(0, "node 0")
	r.Track(2, "balancer")
	// Record deliberately out of track order and with odd values; the
	// exporter must still produce valid, per-track-monotone JSON.
	r.Span(2, PhaseBalance, 3*units.Second, units.Millisecond, 4)
	r.Span(0, PhaseHarvest, 0, 12*units.Second, 0.7)
	r.Span(0, PhaseWake, 0, units.Millisecond, math.NaN())
	r.Instant(0, PhaseSense, units.Millisecond, math.Inf(1))
	r.Span(0, PhaseTx, 2*units.Second, -units.Millisecond, math.Inf(-1))
	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ValidateTraceJSON(buf.Bytes()); err != nil {
		t.Fatalf("%v\n%s", err, buf.String())
	}
	for _, want := range []string{"harvest", "wake", "sense", "balance", "thread_name", "process_name"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("trace missing %q", want)
		}
	}
}

func TestTimelineCSVShape(t *testing.T) {
	r := New()
	r.Sample(0, 1, 12*units.Second, 30*units.Millijoule, 2, true)
	r.Sample(1, 1, 24*units.Second, 15*units.Millijoule, 0, false)
	var buf bytes.Buffer
	if err := r.WriteTimelineCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("timeline has %d lines, want 3:\n%s", len(lines), buf.String())
	}
	if lines[0] != timelineHeader {
		t.Fatalf("header = %q", lines[0])
	}
	if lines[1] != "0,1,0,12,30,2,1" {
		t.Fatalf("row 1 = %q", lines[1])
	}
	if lines[2] != "0,1,1,24,15,0,0" {
		t.Fatalf("row 2 = %q", lines[2])
	}
}

func TestSummaryTable(t *testing.T) {
	r := New()
	r.Count("sim.wakeups", 7)
	r.SetGauge("mean_stored_mj", 1.25)
	r.Observe("mesh.hops", 3)
	tb := r.SummaryTable()
	out := tb.Format()
	for _, want := range []string{"sim.wakeups", "counter", "7", "mean_stored_mj", "mesh.hops", "trace.events"} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary missing %q:\n%s", want, out)
		}
	}
}
