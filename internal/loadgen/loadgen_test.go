package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"neofog/internal/router"
	"neofog/internal/serve"
)

var testSpec = TraceSpec{Seed: 42, QPS: 500, Duration: 200 * time.Millisecond}

// TestBuildScheduleDeterministic is the harness's core contract: the
// same spec expands to the identical schedule — arrival offsets, bodies,
// keys, digest — every time, while a different seed diverges.
func TestBuildScheduleDeterministic(t *testing.T) {
	s1, err := BuildSchedule(testSpec)
	if err != nil {
		t.Fatalf("BuildSchedule: %v", err)
	}
	s2, err := BuildSchedule(testSpec)
	if err != nil {
		t.Fatalf("BuildSchedule: %v", err)
	}
	if len(s1) == 0 {
		t.Fatal("empty schedule from a 500qps/200ms spec")
	}
	if !reflect.DeepEqual(s1, s2) {
		t.Fatal("same spec produced different schedules")
	}
	if ScheduleDigest(s1) != ScheduleDigest(s2) {
		t.Fatal("same schedule, different digests")
	}

	other := testSpec
	other.Seed = 43
	s3, err := BuildSchedule(other)
	if err != nil {
		t.Fatalf("BuildSchedule: %v", err)
	}
	if ScheduleDigest(s1) == ScheduleDigest(s3) {
		t.Fatal("different seeds produced the same schedule digest")
	}
}

// TestScheduleShape checks the mix: arrivals ordered within the window,
// the hot fraction near its target, hot keys drawn from a small pool,
// cold keys never repeating, and every body a valid submittable request
// whose key matches what a shard would compute.
func TestScheduleShape(t *testing.T) {
	spec := TraceSpec{Seed: 7, QPS: 2000, Duration: 500 * time.Millisecond}
	schedule, err := BuildSchedule(spec)
	if err != nil {
		t.Fatalf("BuildSchedule: %v", err)
	}
	hotKeys := map[string]bool{}
	coldKeys := map[string]bool{}
	hot := 0
	last := time.Duration(-1)
	for _, sr := range schedule {
		if sr.At < last || sr.At > spec.Duration {
			t.Fatalf("arrival %v out of order or past the window", sr.At)
		}
		last = sr.At
		var req serve.Request
		if err := json.Unmarshal(sr.Body, &req); err != nil {
			t.Fatalf("unparseable scheduled body: %v", err)
		}
		_, key, err := serve.Normalize(req)
		if err != nil {
			t.Fatalf("scheduled body does not normalize: %v", err)
		}
		if key != sr.Key {
			t.Fatalf("schedule key %s disagrees with serve's %s", sr.Key, key)
		}
		if sr.Hot {
			hot++
			hotKeys[sr.Key] = true
		} else {
			if coldKeys[sr.Key] {
				t.Fatalf("cold key %s repeated", sr.Key)
			}
			coldKeys[sr.Key] = true
		}
	}
	if len(schedule) < 500 {
		t.Fatalf("only %d arrivals from a 2000qps/500ms spec", len(schedule))
	}
	frac := float64(hot) / float64(len(schedule))
	if frac < 0.7 || frac > 0.9 {
		t.Fatalf("hot fraction %.2f, want ≈0.8", frac)
	}
	if len(hotKeys) == 0 || len(hotKeys) > 8 {
		t.Fatalf("hot pool has %d keys, want 1..8", len(hotKeys))
	}
	for k := range hotKeys {
		if coldKeys[k] {
			t.Fatalf("key %s appears both hot and cold", k)
		}
	}
}

func TestQuantileExact(t *testing.T) {
	if q := quantile(nil, 0.5); q != 0 {
		t.Fatalf("empty quantile = %v", q)
	}
	sorted := make([]float64, 100)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	for _, tc := range []struct{ q, want float64 }{
		{0.50, 50}, {0.99, 99}, {0.999, 100}, {0, 1}, {1, 100},
	} {
		if got := quantile(sorted, tc.q); got != tc.want {
			t.Errorf("quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
}

func TestGate(t *testing.T) {
	base := Summary{}
	base.Measured.JobsPerSec = 100
	base.Measured.P99Ms = 50

	ok := Summary{}
	ok.Measured.JobsPerSec = 95
	ok.Measured.P99Ms = 52
	if v := Gate(ok, base, 0.10); len(v) != 0 {
		t.Fatalf("within-tolerance run flagged: %v", v)
	}

	slow := Summary{}
	slow.Measured.JobsPerSec = 80
	slow.Measured.P99Ms = 60
	v := Gate(slow, base, 0.10)
	if len(v) != 2 {
		t.Fatalf("regressed run produced %d violations, want 2: %v", len(v), v)
	}

	// A zeroed baseline (hand-seeded file) gates nothing.
	if v := Gate(slow, Summary{}, 0.10); len(v) != 0 {
		t.Fatalf("empty baseline produced violations: %v", v)
	}
}

// TestRunDeterministicTrace is the end-to-end determinism test the issue
// demands: two runs of the same seeded trace against a live in-process
// cluster submit the identical request schedule, and their summaries'
// deterministic halves are byte-identical JSON — only measured
// wall-clock fields may differ.
func TestRunDeterministicTrace(t *testing.T) {
	cluster, err := StartCluster(3, serve.Config{Workers: 2}, router.Config{ProbeInterval: -1})
	if err != nil {
		t.Fatalf("StartCluster: %v", err)
	}
	defer cluster.Close()

	spec := TraceSpec{Seed: 12345, QPS: 400, Duration: 250 * time.Millisecond, Nodes: 3, Rounds: 10}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	run := func() Summary {
		schedule, err := BuildSchedule(spec)
		if err != nil {
			t.Fatalf("BuildSchedule: %v", err)
		}
		sum, err := Run(ctx, cluster.RouterURL, spec, schedule, Opts{})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		sum.Target, sum.Shards = "router", 3
		return sum
	}
	s1 := run()
	s2 := run()

	t1, err := json.Marshal(s1.Trace)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := json.Marshal(s2.Trace)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(t1, t2) {
		t.Fatalf("trace halves differ across same-seed runs\nrun1: %s\nrun2: %s", t1, t2)
	}

	for _, s := range []Summary{s1, s2} {
		m := s.Measured
		if m.Errors != 0 || m.Dropped != 0 {
			t.Fatalf("clean smoke run saw errors=%d dropped=%d", m.Errors, m.Dropped)
		}
		if m.Completed+m.Rejected429 != s.Trace.Requests {
			t.Fatalf("accounting leak: %d completed + %d rejected ≠ %d scheduled", m.Completed, m.Rejected429, s.Trace.Requests)
		}
		if m.Completed == 0 || m.JobsPerSec <= 0 {
			t.Fatalf("no throughput measured: %+v", m)
		}
		if m.CacheHits == 0 {
			t.Fatal("an 80% hot trace completed with zero cache hits")
		}
		if m.P50Ms <= 0 || m.P99Ms < m.P50Ms || m.P999Ms < m.P99Ms {
			t.Fatalf("quantiles not monotone: p50=%v p99=%v p999=%v", m.P50Ms, m.P99Ms, m.P999Ms)
		}
		if m.BytesTx <= 0 || m.BytesRx <= 0 {
			t.Fatalf("run counted no wire bytes: tx=%d rx=%d", m.BytesTx, m.BytesRx)
		}
		if m.AllocsPerRequest <= 0 {
			t.Fatal("run counted no allocations")
		}
	}

	// The report round-trips through its on-disk form.
	var buf bytes.Buffer
	if err := WriteJSON(&buf, s1); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if !strings.Contains(buf.String(), `"schedule_sha256"`) {
		t.Fatalf("serialized report missing schedule digest: %s", buf.String())
	}
	var back Summary
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("round-trip: %v", err)
	}
	if back.Trace.ScheduleSHA256 != s1.Trace.ScheduleSHA256 {
		t.Fatal("digest lost in round-trip")
	}
}
