package router

import (
	"encoding/json"
	"io"
	"net/http"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"neofog/internal/serve"
)

// raceEnabled reports a build with the race detector (see race_test.go).
var raceEnabled bool

// hitter returns a function that sends body to the router as one cache
// hit on its own keep-alive connection and reads the response into a
// buffer the test owns (io.Discard would borrow one from io's pool).
func hitter(t *testing.T, c *testCluster, body string) func() *http.Response {
	t.Helper()
	cl := &http.Client{Transport: &http.Transport{}}
	t.Cleanup(cl.CloseIdleConnections)
	buf := make([]byte, 4096)
	return func() *http.Response {
		resp, err := cl.Post(c.ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST /v1/jobs: %v", err)
		}
		defer resp.Body.Close()
		for {
			_, err := resp.Body.Read(buf)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("read hit: %v", err)
			}
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("hit status %d, want 200", resp.StatusCode)
		}
		return resp
	}
}

// TestRoutedHitAllocBudget pins the bytes one routed cache hit allocates
// over loopback: client → router → shard → back, all in this process, so
// the count covers the client's request and read, the router's memo
// lookup and forward, and the shard's memo lookup, submit and spliced
// answer. It counts two hits: a simulate hit, 498 B of response like the
// benchmark's hot reads, and a fleet hit of 1159 B. net/http copies the
// first 512 B of a body itself, to sniff its type, so only a body past
// that reaches the response's ReadFrom and its 32 KiB fallback through
// io.Copy. The collector is off from the warm-up on, so the pools keep
// what is put back, and the test runs at GOMAXPROCS 2, so the per-P
// pools warm the same on any host.
//
// Budget accounting: measured 16.8 KB (195 mallocs) per simulate hit and
// 17.5 KB (195) per fleet hit, over 400 warm hits each on the 2-shard
// cluster. The budget, 20 KiB, is that plus under 3 KB. Decoding and
// normalizing each body again in the router and the shard, and
// marshalling the whole response, fails it: that hit measured 21.0 KB
// and 21.7 KB. So does a relay that takes a fresh 32 KiB buffer per
// response, or the fleet hit relayed through io.Copy.
//
// Under the race detector sync.Pool.Put drops one item in four at
// random. A hit takes three pooled 32 KiB buffers: net/http's copy
// buffer for the client's request body and again for the router's
// forwarded body, and the router's relay buffer. A hit that finds every
// pool empty costs 98–140 KB in the normal build and 98–206 KB in the
// race build, as measured on hits after two collections: up to 185 KiB
// over a warm normal hit. The race build allows 192 KiB on top, so the
// luck of the drops never fails it (its mean is 61–65 KB).
//
// A routed hit also keeps the shard's framing: its Content-Length, and
// no Transfer-Encoding.
func TestRoutedHitAllocBudget(t *testing.T) {
	budget := 20 << 10
	if raceEnabled {
		budget += 192 << 10
	}
	bodies := []string{
		simBody(5),
		`{"kind":"fleet","chains":3,"config":{"nodes":4,"rounds":20,"seed":5}}`,
	}
	c := startCluster(t, 2, nil)
	for _, body := range bodies {
		code, _, raw := post(t, c.ts.URL, body)
		if code != http.StatusAccepted && code != http.StatusOK {
			t.Fatalf("submit %s: status %d: %s", body, code, raw)
		}
		var sub serve.SubmitResponse
		if err := json.Unmarshal(raw, &sub); err != nil {
			t.Fatalf("decode submit: %v", err)
		}
		waitDone(t, c.ts.URL, sub.Job.ID)
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, body := range bodies {
		hit := hitter(t, c, body)
		var resp *http.Response
		for i := 0; i < 50; i++ { // warm the connections and pools
			resp = hit()
		}
		if resp.ContentLength <= 0 || len(resp.TransferEncoding) != 0 {
			t.Fatalf("hit on %s framed with Content-Length %d, Transfer-Encoding %v; want the shard's length and no transfer coding",
				body, resp.ContentLength, resp.TransferEncoding)
		}
		const hits = 400
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < hits; i++ {
			hit()
		}
		runtime.ReadMemStats(&after)
		perHit := float64(after.TotalAlloc-before.TotalAlloc) / hits
		t.Logf("hit on %s (%d B): %.0f B, %.1f mallocs allocated",
			body, resp.ContentLength, perHit, float64(after.Mallocs-before.Mallocs)/hits)
		if perHit > float64(budget) {
			t.Errorf("hit on %s allocates %.0f B, want ≤ %d", body, perHit, budget)
		}
	}
}

// TestRingSequenceAllocs pins ring.sequence to one allocation, its
// result: the shard count is known from the build, and the dedup scans
// the short result instead of a map. No pool is on its path, so the
// race build holds the same budget.
func TestRingSequenceAllocs(t *testing.T) {
	r := newRing([]string{"a", "b", "c"}, 64)
	keys := testKeys(64)
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		r.sequence(keys[i%len(keys)])
		i++
	})
	if allocs != 1 {
		t.Fatalf("sequence allocs = %v, want 1", allocs)
	}
}
