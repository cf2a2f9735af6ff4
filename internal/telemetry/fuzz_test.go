package telemetry

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"neofog/internal/units"
)

// buildFromOps interprets an arbitrary byte stream as a recording session:
// a stream of fixed-width ops (span, instant, counter, gauge, histogram,
// track label, sample, merge) driving the Recorder through every public
// mutation, with hostile values — negative durations, NaN/Inf gauges and
// event values, unprintable track labels — fully representable.
func buildFromOps(data []byte) *Recorder {
	r := New()
	child := New()
	take := func(n int) []byte {
		if len(data) < n {
			pad := make([]byte, n)
			copy(pad, data)
			data = nil
			return pad
		}
		out := data[:n]
		data = data[n:]
		return out
	}
	f64 := func() float64 { return math.Float64frombits(binary.LittleEndian.Uint64(take(8))) }
	i32 := func() int32 { return int32(binary.LittleEndian.Uint32(take(4))) }
	for len(data) > 0 && len(r.events)+len(child.events) < 1<<14 {
		op := take(1)[0]
		switch op % 8 {
		case 0:
			r.Span(int(op>>4), Phase(op%16), units.Duration(i32()), units.Duration(i32()), f64())
		case 1:
			r.Instant(int(op>>4), Phase(op%16), units.Duration(i32()), f64())
		case 2:
			r.Count(string(take(3)), int64(i32()))
		case 3:
			r.SetGauge(string(take(3)), f64())
		case 4:
			r.Observe(string(take(3)), f64())
		case 5:
			r.Track(int(op>>4), string(take(4)))
		case 6:
			r.Sample(int(i32()), int(op>>4), units.Duration(i32()), units.Energy(f64()), int(op%16), op%2 == 0)
		case 7:
			child.Span(int(op>>4), Phase(op%16), units.Duration(i32()), units.Duration(i32()), f64())
			r.MergeNext(child)
			child = New()
		}
	}
	return r
}

// FuzzTraceExport: no event/metric sequence — however hostile — may make
// the exporters panic, emit invalid JSON, or break the per-track timestamp
// monotonicity the trace contract promises.
func FuzzTraceExport(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("span-ish ascii seed 0123456789 0123456789"))
	// One op of each kind with aligned argument widths.
	ops := []byte{0}
	ops = append(ops, make([]byte, 16)...) // span args
	ops = append(ops, 1)
	ops = append(ops, make([]byte, 12)...) // instant args
	ops = append(ops, 2, 'c', 't', 'r', 1, 0, 0, 0)
	ops = append(ops, 3, 'g', 'g', 'g', 0, 0, 0, 0, 0, 0, 0xF8, 0x7F) // NaN gauge
	ops = append(ops, 4, 'h', 's', 't', 0, 0, 0, 0, 0, 0, 0xF0, 0x7F) // +Inf observation
	ops = append(ops, 5, 'l', 'b', 'l', 0xFF)                         // invalid-UTF8 label
	ops = append(ops, 6)
	ops = append(ops, make([]byte, 16)...) // sample args
	ops = append(ops, 7)
	ops = append(ops, make([]byte, 16)...) // merged child span
	f.Add(ops)

	f.Fuzz(func(t *testing.T, data []byte) {
		r := buildFromOps(data)
		var trace bytes.Buffer
		if err := r.WriteChromeTrace(&trace); err != nil {
			t.Fatalf("trace export errored: %v", err)
		}
		if err := ValidateTraceJSON(trace.Bytes()); err != nil {
			t.Fatalf("%v\n%s", err, trace.String())
		}
		var timeline bytes.Buffer
		if err := r.WriteTimelineCSV(&timeline); err != nil {
			t.Fatalf("timeline export errored: %v", err)
		}
		if !bytes.HasPrefix(timeline.Bytes(), []byte(timelineHeader)) {
			t.Fatal("timeline lost its header")
		}
		if out := r.SummaryTable().Format(); len(out) == 0 {
			t.Fatal("empty summary")
		}

		// The same recorded sequence must export byte-identically.
		var trace2 bytes.Buffer
		if err := r.WriteChromeTrace(&trace2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(trace.Bytes(), trace2.Bytes()) {
			t.Fatal("trace export not deterministic")
		}
	})
}
