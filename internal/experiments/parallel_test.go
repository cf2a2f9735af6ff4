package experiments

import (
	"bytes"
	"reflect"
	"sync/atomic"
	"testing"

	"neofog/internal/energytrace"
	"neofog/internal/metrics"
	"neofog/internal/telemetry"
)

// harness adapts one figure experiment to a common (table, extras) shape so
// the serial-vs-parallel A/B below can sweep every simulation-backed
// harness in the package. extras carries the secondary outputs (averages,
// points, series, campaign reports) that must also be identical.
type abHarness struct {
	name string
	run  func(Options) (*metrics.Table, interface{}, error)
}

func abHarnesses() []abHarness {
	return []abHarness{
		{"fig9", func(o Options) (*metrics.Table, interface{}, error) {
			r, err := Fig9StoredEnergy(o)
			if err != nil {
				return nil, nil, err
			}
			return r.Table, r, nil
		}},
		{"fig10", func(o Options) (*metrics.Table, interface{}, error) {
			return Fig10Independent(o)
		}},
		{"fig11", func(o Options) (*metrics.Table, interface{}, error) {
			return Fig11Dependent(o)
		}},
		{"fig12", func(o Options) (*metrics.Table, interface{}, error) {
			return Fig12MultiplexHigh(o)
		}},
		{"fig13", func(o Options) (*metrics.Table, interface{}, error) {
			return Fig13MultiplexLow(o)
		}},
		{"headline", func(o Options) (*metrics.Table, interface{}, error) {
			r, err := Headline(o)
			if err != nil {
				return nil, nil, err
			}
			return r.Table, r, nil
		}},
		{"chaos", func(o Options) (*metrics.Table, interface{}, error) {
			r, err := Chaos(o)
			if err != nil {
				return nil, nil, err
			}
			return r.Table, r.Report, nil
		}},
		{"resilience", func(o Options) (*metrics.Table, interface{}, error) {
			r, err := Resilience(o)
			if err != nil {
				return nil, nil, err
			}
			return r.Table, r.Report, nil
		}},
		{"table2", func(o Options) (*metrics.Table, interface{}, error) {
			return Table2(o), nil, nil
		}},
	}
}

func csvBytes(t *testing.T, tb *metrics.Table) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tb.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// telemetryBytes serializes everything a recorder can export, so two
// recorders with identical bytes observed identical runs in identical
// merge order.
func telemetryBytes(t *testing.T, rec *telemetry.Recorder) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if err := rec.WriteTimelineCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestParallelSweepMatchesSerial is the determinism proof for the sweep
// engine: every simulation-backed experiment, run serially and at two pool
// widths, must produce byte-identical tables, deeply equal secondary
// outputs, and byte-identical telemetry. Running this test under -race (CI
// does) additionally puts the fan-out itself — shared income, clone sets,
// and the per-point telemetry children — under the race detector.
func TestParallelSweepMatchesSerial(t *testing.T) {
	for _, h := range abHarnesses() {
		h := h
		t.Run(h.name, func(t *testing.T) {
			t.Parallel()
			serialOpts := Options{Seed: 1, Rounds: 300, Telemetry: telemetry.New()}
			serialTable, serialExtra, err := h.run(serialOpts)
			if err != nil {
				t.Fatal(err)
			}
			serialCSV := csvBytes(t, serialTable)
			serialTel := telemetryBytes(t, serialOpts.Telemetry)

			for _, width := range []int{2, -1} {
				parOpts := Options{Seed: 1, Rounds: 300, Parallel: width, Telemetry: telemetry.New()}
				parTable, parExtra, err := h.run(parOpts)
				if err != nil {
					t.Fatalf("parallel=%d: %v", width, err)
				}
				if got := csvBytes(t, parTable); !bytes.Equal(got, serialCSV) {
					t.Errorf("parallel=%d: table diverged from serial\n--- serial ---\n%s\n--- parallel ---\n%s",
						width, serialCSV, got)
				}
				if !reflect.DeepEqual(parExtra, serialExtra) {
					t.Errorf("parallel=%d: secondary outputs diverged from serial", width)
				}
				if got := telemetryBytes(t, parOpts.Telemetry); !bytes.Equal(got, serialTel) {
					t.Errorf("parallel=%d: telemetry diverged from serial (merge order broken?)", width)
				}
			}
		})
	}
}

// TestSharedIncomeBuiltOnce counts income synthesis: each Fig. 10/11
// profile's set, shared by its three systems, and the Fig. 9 set, shared
// by its three balancers, is built exactly once at every width, by
// whichever of the points sharing it runs first.
func TestSharedIncomeBuiltOnce(t *testing.T) {
	profiles := map[string]func(profile, nodes int, seed int64) []energytrace.Income{
		"fig10": forestProfile,
		"fig11": bridgeProfile,
	}
	for _, w := range []int{1, 2, -1} {
		opts := Options{Seed: 1, Rounds: 60, Parallel: w}
		for name, gen := range profiles {
			var built [6]atomic.Int64
			counted := func(profile, nodes int, seed int64) []energytrace.Income {
				built[profile].Add(1)
				return gen(profile, nodes, seed)
			}
			if _, _, err := figPackets(name, counted, opts); err != nil {
				t.Fatalf("%s, width %d: %v", name, w, err)
			}
			for p := 1; p <= 5; p++ {
				if n := built[p].Load(); n != 1 {
					t.Errorf("%s, width %d: profile %d built %d times", name, w, p, n)
				}
			}
		}

		var built atomic.Int64
		counted := func(nodes int, seed int64) []energytrace.Income {
			built.Add(1)
			return fig9Income(nodes, seed)
		}
		if _, err := fig9(opts, counted); err != nil {
			t.Fatalf("fig9, width %d: %v", w, err)
		}
		if n := built.Load(); n != 1 {
			t.Errorf("fig9, width %d: income set built %d times", w, n)
		}
	}
}
