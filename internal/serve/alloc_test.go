package serve

import (
	"bytes"
	"runtime/debug"
	"testing"

	"neofog/internal/qos"
)

// raceEnabled reports a build with the race detector (see race_test.go).
var raceEnabled bool

// The hit path's serve layers, one allocation budget each, pinned at the
// counts they measured when the router's relay was pooled: a baseline for
// later hit-path work to lower, never to raise. Each counts smallSim's
// body over 200 runs with the collector off, so a pool keeps what is put
// back.

// TestDecodeBodyAllocs pins the strict decode of one submission body at
// 12 allocations: the reader, the decoder with its read buffer and
// parse-state stack, and the request with its config. No pool is on its
// path, so the race build holds the same budget.
func TestDecodeBodyAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	body := []byte(smallSim)
	allocs := testing.AllocsPerRun(200, func() {
		var req Request
		if err := DecodeBody(bytes.NewReader(body), &req); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 12 {
		t.Fatalf("DecodeBody allocs = %v, want ≤ 12", allocs)
	}
}

// TestNormalizeAllocs pins normalizing a decoded request and hashing its
// canonical encoding into the cache key: 5 allocations. Under the race
// detector sync.Pool.Put drops one item in four at random, and
// encoding/json's encoder state is pooled: a Normalize that finds that
// pool empty costs 14 allocations in the normal build and 17 in the race
// build, as measured after two collections. The race build allows the
// 12 above the budget on top, so the luck of the drops never fails it.
func TestNormalizeAllocs(t *testing.T) {
	budget := 5.0
	if raceEnabled {
		budget += 12
	}
	var req Request
	if err := DecodeBody(bytes.NewReader([]byte(smallSim)), &req); err != nil {
		t.Fatal(err)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := testing.AllocsPerRun(200, func() {
		if _, _, err := Normalize(req); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > budget {
		t.Fatalf("Normalize allocs = %v, want ≤ %v", allocs, budget)
	}
}

// TestCacheHitSubmitAllocs pins submit's answer from the memory tier at
// no allocation: a spliced hit takes only its job's ID and the done body
// the job already holds (a whole snapshot cost its started and finished
// times, 2 allocations). No pool is on its path, so the race build holds
// the same budget.
func TestCacheHitSubmitAllocs(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1})
	code, sub := postJob(t, ts, smallSim)
	if code != 202 {
		t.Fatalf("submit: status %d, want 202", code)
	}
	waitStatus(t, ts, sub.Job.ID, StatusDone)
	var req Request
	if err := DecodeBody(bytes.NewReader([]byte(smallSim)), &req); err != nil {
		t.Fatal(err)
	}
	norm, key, err := Normalize(req)
	if err != nil {
		t.Fatal(err)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := testing.AllocsPerRun(200, func() {
		if _, _, _, out, _ := srv.submit(norm, key, 0, "", qos.Interactive); out != outcomeCached {
			t.Fatalf("submit outcome %v, want a cache hit", out)
		}
	})
	if allocs > 0 {
		t.Fatalf("cache-hit submit allocs = %v, want 0", allocs)
	}
}
