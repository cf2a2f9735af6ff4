package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// drainNow shuts a server down so a successor can open the same cache
// dir; restart tests call it between generations.
func drainNow(t *testing.T, srv *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
}

// forbidExecution arms the worker-pool hook so any run after this point
// fails the test — the proof that warm restarts never recompute.
func forbidExecution(t *testing.T, srv *Server) {
	t.Helper()
	srv.mu.Lock()
	srv.cfg.ExecHook = func(key string) {
		t.Errorf("job with key %s was recomputed; it should have been served from the disk tier", key)
	}
	srv.mu.Unlock()
}

// submitAndFetch posts a body, waits for completion, and returns the
// job ID plus the raw result bytes (newline trimmed).
func submitAndFetch(t *testing.T, ts *httptest.Server, body string) (string, []byte) {
	t.Helper()
	code, sub := postJob(t, ts, body)
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("submit %q: status %d", body, code)
	}
	waitStatus(t, ts, sub.Job.ID, StatusDone)
	code, raw := getBody(t, ts, "/v1/jobs/"+sub.Job.ID+"/result")
	if code != http.StatusOK {
		t.Fatalf("result %s: status %d", sub.Job.ID, code)
	}
	return sub.Job.ID, bytes.TrimSuffix(raw, []byte("\n"))
}

// TestRestartEquivalence is the warm-restart contract end to end: a
// mixed workload computed by one daemon generation must be served by
// the next generation — same cache dir, fresh process state —
// byte-identically, with "cached":true, and with zero recomputation
// (proven both by a worker-pool hook and the executed-jobs counter).
func TestRestartEquivalence(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Workers: 2, QueueDepth: 16, CacheDir: dir}

	workload := []string{
		smallSim,
		`{"config":{"nodes":3,"rounds":30,"seed":9}}`,
		`{"kind":"fleet","chains":2,"config":{"nodes":3,"rounds":30,"seed":4}}`,
		`{"experiment":"table1","options":{"nodes":4,"rounds":60}}`,
	}

	srv1, ts1 := newTestServer(t, cfg)
	ids := make([]string, len(workload))
	results := make([][]byte, len(workload))
	for i, body := range workload {
		ids[i], results[i] = submitAndFetch(t, ts1, body)
	}
	drainNow(t, srv1)

	srv2, ts2 := newTestServer(t, cfg)
	forbidExecution(t, srv2)

	for i, body := range workload {
		code, raw, err := doPost(ts2, body)
		if err != nil {
			t.Fatalf("restart POST %q: %v", body, err)
		}
		if code != http.StatusOK {
			t.Fatalf("restart POST %q: status %d body %s, want 200 cached", body, code, raw)
		}
		var sub SubmitResponse
		if err := json.Unmarshal(raw, &sub); err != nil {
			t.Fatalf("decode restart response: %v", err)
		}
		if !sub.Cached || sub.Deduped {
			t.Fatalf("restart POST %q: cached=%v deduped=%v, want pure cache hit", body, sub.Cached, sub.Deduped)
		}
		if sub.Job.ID != ids[i] {
			t.Fatalf("restart changed job ID for %q: %s vs %s", body, sub.Job.ID, ids[i])
		}
		if !bytes.Equal(sub.Job.Result, results[i]) {
			t.Fatalf("restart POST %q: inline result differs from pre-restart bytes", body)
		}
		code, raw = getBody(t, ts2, "/v1/jobs/"+ids[i]+"/result")
		if code != http.StatusOK {
			t.Fatalf("restart result %s: status %d", ids[i], code)
		}
		if got := bytes.TrimSuffix(raw, []byte("\n")); !bytes.Equal(got, results[i]) {
			t.Fatalf("restart result %s differs from pre-restart bytes:\n got %s\nwant %s", ids[i], got, results[i])
		}
	}

	if got := srv2.metrics.counter("jobs_executed_total"); got != 0 {
		t.Fatalf("jobs_executed_total = %d after restart, want 0 (no recomputation)", got)
	}
	if got := srv2.metrics.counter("tier_hits_disk_total"); got != int64(len(workload)) {
		t.Fatalf("tier_hits_disk_total = %d, want %d", got, len(workload))
	}
	if got := srv2.metrics.counter("cache_hits_total"); got != int64(len(workload)) {
		t.Fatalf("cache_hits_total = %d, want %d", got, len(workload))
	}

	// The warm listing shows every job as done, results inline.
	code, raw := getBody(t, ts2, "/v1/jobs")
	if code != http.StatusOK {
		t.Fatalf("list: status %d", code)
	}
	var list struct {
		Jobs []Job `json:"jobs"`
	}
	if err := json.Unmarshal(raw, &list); err != nil {
		t.Fatalf("decode list: %v", err)
	}
	if len(list.Jobs) != len(workload) {
		t.Fatalf("warm list has %d jobs, want %d", len(list.Jobs), len(workload))
	}
	for _, j := range list.Jobs {
		if j.Status != StatusDone || len(j.Result) == 0 {
			t.Fatalf("warm job %s: status %q, %d result bytes", j.ID, j.Status, len(j.Result))
		}
	}
}

// TestCorruptionRecovery injects every flavor of file damage — flipped
// bytes, truncation, an emptied file — and requires the store to reject
// the entry on read-back verification, count the tier miss, recompute,
// and rewrite a byte-identical clean file. Bad bytes must never reach
// the HTTP surface.
func TestCorruptionRecovery(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Workers: 1, CacheDir: dir}

	srv1, ts1 := newTestServer(t, cfg)
	code, sub := postJob(t, ts1, smallSim)
	if code != http.StatusAccepted {
		t.Fatalf("seed submit: status %d", code)
	}
	waitStatus(t, ts1, sub.Job.ID, StatusDone)
	_, want := submitAndFetch(t, ts1, smallSim)
	drainNow(t, srv1)

	path := filepath.Join(dir, sub.Job.Key)
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read clean cache file: %v", err)
	}

	corruptions := map[string]func([]byte) []byte{
		"flipped body byte": func(b []byte) []byte {
			out := append([]byte(nil), b...)
			out[len(out)-1] ^= 0xFF
			return out
		},
		"flipped header byte": func(b []byte) []byte {
			out := append([]byte(nil), b...)
			out[0] ^= 0xFF
			return out
		},
		"truncated":   func(b []byte) []byte { return b[:len(b)/2] },
		"zero-length": func([]byte) []byte { return nil },
	}

	for name, mangle := range corruptions {
		t.Run(name, func(t *testing.T) {
			if err := os.WriteFile(path, mangle(clean), 0o644); err != nil {
				t.Fatalf("corrupt file: %v", err)
			}
			srv, ts := newTestServer(t, cfg)

			code, resp := postJob(t, ts, smallSim)
			if code != http.StatusAccepted || resp.Cached {
				t.Fatalf("submit over %s file: status %d cached %v, want 202 recompute", name, code, resp.Cached)
			}
			waitStatus(t, ts, resp.Job.ID, StatusDone)
			_, got := submitAndFetch(t, ts, smallSim)
			if !bytes.Equal(got, want) {
				t.Fatalf("recomputed result differs after %s corruption", name)
			}
			if got := srv.metrics.counter("tier_misses_disk_total"); got != 1 {
				t.Fatalf("tier_misses_disk_total = %d, want 1", got)
			}
			if got := srv.metrics.counter("disk_corrupt_total"); got != 1 {
				t.Fatalf("disk_corrupt_total = %d, want 1", got)
			}

			// The recompute rewrote a clean, verifiable entry: the file is
			// byte-identical to the original persisted form.
			rewritten, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read rewritten file: %v", err)
			}
			if !bytes.Equal(rewritten, clean) {
				t.Fatalf("rewritten cache file differs from the original clean file")
			}
			drainNow(t, srv)

			// And the next generation serves it as a plain disk hit.
			srv2, ts2 := newTestServer(t, cfg)
			forbidExecution(t, srv2)
			code, again := postJob(t, ts2, smallSim)
			if code != http.StatusOK || !again.Cached {
				t.Fatalf("post-recovery restart: status %d cached %v, want 200 cached", code, again.Cached)
			}
			drainNow(t, srv2)
		})
	}
}

// TestMangledIndexResets feeds the boot path an unparseable index and
// requires a full tier reset: no warm jobs, orphaned result files
// removed, the reset counted — then a recompute rebuilds a clean entry
// that the following restart serves from disk.
func TestMangledIndexResets(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Workers: 1, CacheDir: dir}

	srv1, ts1 := newTestServer(t, cfg)
	_, want := submitAndFetch(t, ts1, smallSim)
	drainNow(t, srv1)

	if err := os.WriteFile(filepath.Join(dir, indexFileName), []byte("{this is not an index"), 0o644); err != nil {
		t.Fatalf("mangle index: %v", err)
	}

	srv2, ts2 := newTestServer(t, cfg)
	if got := srv2.metrics.counter("index_resets_total"); got != 1 {
		t.Fatalf("index_resets_total = %d, want 1", got)
	}
	if code, _ := getBody(t, ts2, "/v1/jobs"); code != http.StatusOK {
		t.Fatalf("list after reset: status %d", code)
	}
	if n := len(srv2.jobs()); n != 0 {
		t.Fatalf("tier reset left %d warm jobs, want 0", n)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*"))
	for _, f := range files {
		if name := filepath.Base(f); isHexKey(name) {
			t.Fatalf("tier reset left unverifiable result file %s", name)
		}
	}

	code, resp := postJob(t, ts2, smallSim)
	if code != http.StatusAccepted || resp.Cached {
		t.Fatalf("submit after reset: status %d cached %v, want 202 recompute", code, resp.Cached)
	}
	waitStatus(t, ts2, resp.Job.ID, StatusDone)
	_, got := submitAndFetch(t, ts2, smallSim)
	if !bytes.Equal(got, want) {
		t.Fatalf("recomputed result differs after index reset")
	}
	drainNow(t, srv2)

	srv3, ts3 := newTestServer(t, cfg)
	forbidExecution(t, srv3)
	if code, again := postJob(t, ts3, smallSim); code != http.StatusOK || !again.Cached {
		t.Fatalf("restart after rebuild: status %d cached %v, want 200 cached", code, again.Cached)
	}
}

// TestCrashMidWrite simulates a crash in the exact window the rename
// closes: the crash hook aborts between the fsynced temp write and the
// rename, leaving .tmp debris and no committed entry. The job still
// serves from memory in its own generation; the next generation sweeps
// the debris, recomputes, and persists cleanly.
func TestCrashMidWrite(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Workers: 1, CacheDir: dir}

	srv1, ts1 := newTestServer(t, cfg)
	srv1.mu.Lock()
	srv1.store.crashHook = func(string) bool { return false }
	srv1.mu.Unlock()

	code, sub := postJob(t, ts1, smallSim)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	waitStatus(t, ts1, sub.Job.ID, StatusDone)
	_, want := submitAndFetch(t, ts1, smallSim) // memory tier still serves it
	if got := srv1.metrics.counter("disk_write_errors_total"); got == 0 {
		t.Fatal("injected crash did not count a disk write error")
	}

	key := sub.Job.Key
	if _, err := os.Stat(filepath.Join(dir, key+".tmp")); err != nil {
		t.Fatalf("crash left no .tmp debris: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, key)); !os.IsNotExist(err) {
		t.Fatalf("aborted write committed a result file: %v", err)
	}
	drainNow(t, srv1)

	// The index must not catalog the entry that never reached disk.
	raw, err := os.ReadFile(filepath.Join(dir, indexFileName))
	if err != nil {
		t.Fatalf("read index: %v", err)
	}
	idx, err := decodeIndex(raw)
	if err != nil {
		t.Fatalf("decode index: %v", err)
	}
	if len(idx.Entries) != 0 {
		t.Fatalf("index catalogs %d entries after crashed write, want 0", len(idx.Entries))
	}

	srv2, ts2 := newTestServer(t, cfg)
	if debris, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(debris) != 0 {
		t.Fatalf("boot sweep left temp debris: %v", debris)
	}
	if n := len(srv2.jobs()); n != 0 {
		t.Fatalf("crashed entry reappeared as %d warm jobs", n)
	}

	code, resp := postJob(t, ts2, smallSim)
	if code != http.StatusAccepted || resp.Cached {
		t.Fatalf("submit after crash: status %d cached %v, want 202 recompute", code, resp.Cached)
	}
	waitStatus(t, ts2, resp.Job.ID, StatusDone)
	_, got := submitAndFetch(t, ts2, smallSim)
	if !bytes.Equal(got, want) {
		t.Fatalf("recomputed result differs after crash")
	}
	drainNow(t, srv2)

	srv3, ts3 := newTestServer(t, cfg)
	forbidExecution(t, srv3)
	if code, again := postJob(t, ts3, smallSim); code != http.StatusOK || !again.Cached {
		t.Fatalf("restart after crash recovery: status %d cached %v, want 200 cached", code, again.Cached)
	}
}

// TestTierDemotionPromotion pins the memory bound: with one resident
// body allowed, a second completion demotes the first to disk-only, a
// read promotes it back byte-identically, and hits count under the tier
// that actually served them.
func TestTierDemotionPromotion(t *testing.T) {
	dir := t.TempDir()
	srv, ts := newTestServer(t, Config{Workers: 1, CacheDir: dir, CacheEntries: 1})

	bodyA := `{"config":{"nodes":3,"rounds":30,"seed":41}}`
	bodyB := `{"config":{"nodes":3,"rounds":30,"seed":42}}`
	idA, wantA := submitAndFetch(t, ts, bodyA)
	idB, _ := submitAndFetch(t, ts, bodyB)

	// Completing B (and then reading it) pushed A out of the memory tier.
	srv.mu.Lock()
	jA, jB := srv.table[idA], srv.table[idB]
	aResident, bResident := jA.result != nil, jB.result != nil
	srv.mu.Unlock()
	if aResident || !bResident {
		t.Fatalf("tier placement after B: A resident=%v B resident=%v, want false/true", aResident, bResident)
	}
	if got := srv.metrics.counter("tier_demotions_total"); got == 0 {
		t.Fatal("no demotion counted")
	}

	// Reading A promotes it back, bytes intact, and demotes B.
	code, raw := getBody(t, ts, "/v1/jobs/"+idA+"/result")
	if code != http.StatusOK {
		t.Fatalf("promote read: status %d", code)
	}
	if got := bytes.TrimSuffix(raw, []byte("\n")); !bytes.Equal(got, wantA) {
		t.Fatalf("promoted result differs:\n got %s\nwant %s", got, wantA)
	}
	if got := srv.metrics.counter("tier_promotions_total"); got != 1 {
		t.Fatalf("tier_promotions_total = %d, want 1", got)
	}

	// A hit on the resident entry counts under memory; a hit on the
	// demoted one counts under disk.
	if code, resp := postJob(t, ts, bodyA); code != http.StatusOK || !resp.Cached {
		t.Fatalf("resubmit A: status %d cached %v", code, resp.Cached)
	}
	if got := srv.metrics.counter("tier_hits_memory_total"); got != 1 {
		t.Fatalf("tier_hits_memory_total = %d, want 1", got)
	}
	if code, resp := postJob(t, ts, bodyB); code != http.StatusOK || !resp.Cached {
		t.Fatalf("resubmit B: status %d cached %v", code, resp.Cached)
	}
	if got := srv.metrics.counter("tier_hits_disk_total"); got != 1 {
		t.Fatalf("tier_hits_disk_total = %d, want 1", got)
	}
}

// TestListingLeavesMemoryTier pins that GET /v1/jobs reads a demoted
// result without making it resident and leaves resident ones where they
// sit in the LRU order: with one resident body, a hit on A, a listing
// and a second hit on A serve that hit from memory.
func TestListingLeavesMemoryTier(t *testing.T) {
	dir := t.TempDir()
	srv, ts := newTestServer(t, Config{Workers: 1, CacheDir: dir, CacheEntries: 1})

	bodyA := `{"config":{"nodes":3,"rounds":30,"seed":43}}`
	bodyB := `{"config":{"nodes":3,"rounds":30,"seed":44}}`
	idA, wantA := submitAndFetch(t, ts, bodyA)
	idB, wantB := submitAndFetch(t, ts, bodyB)
	if code, resp := postJob(t, ts, bodyA); code != http.StatusOK || !resp.Cached {
		t.Fatalf("hit A: status %d cached %v", code, resp.Cached)
	}

	code, raw := getBody(t, ts, "/v1/jobs")
	if code != http.StatusOK {
		t.Fatalf("list: status %d", code)
	}
	var list struct {
		Jobs []Job `json:"jobs"`
	}
	if err := json.Unmarshal(raw, &list); err != nil {
		t.Fatalf("decode list: %v", err)
	}
	want := map[string][]byte{idA: wantA, idB: wantB}
	if len(list.Jobs) != len(want) {
		t.Fatalf("listing holds %d jobs, want %d", len(list.Jobs), len(want))
	}
	for _, j := range list.Jobs {
		if !bytes.Equal(j.Result, want[j.ID]) {
			t.Fatalf("listed result of %s differs:\n got %s\nwant %s", j.ID, j.Result, want[j.ID])
		}
	}

	memHits := srv.metrics.counter("tier_hits_memory_total")
	if code, resp := postJob(t, ts, bodyA); code != http.StatusOK || !resp.Cached {
		t.Fatalf("hit A again: status %d cached %v", code, resp.Cached)
	}
	if got := srv.metrics.counter("tier_hits_memory_total"); got != memHits+1 {
		t.Fatalf("second hit on A came from disk: tier_hits_memory_total %d, want %d", got, memHits+1)
	}
	// B's completion demoted A and the first hit on A demoted B; the
	// listing moved nothing.
	if got := srv.metrics.counter("tier_promotions_total"); got != 1 {
		t.Fatalf("tier_promotions_total = %d, want 1", got)
	}
	if got := srv.metrics.counter("tier_demotions_total"); got != 2 {
		t.Fatalf("tier_demotions_total = %d, want 2", got)
	}
}

// TestByteBudgetEviction bounds the corpus: when a second result would
// exceed the byte budget, the least-recently-used entry is evicted
// entirely — job, file, and catalog line — and resubmitting it
// recomputes.
func TestByteBudgetEviction(t *testing.T) {
	sizing := t.TempDir()
	srvS, tsS := newTestServer(t, Config{Workers: 1, CacheDir: sizing})
	bodyA := `{"config":{"nodes":3,"rounds":30,"seed":51}}`
	bodyB := `{"config":{"nodes":3,"rounds":30,"seed":52}}`
	_, resA := submitAndFetch(t, tsS, bodyA)
	_, resB := submitAndFetch(t, tsS, bodyB)
	drainNow(t, srvS)

	dir := t.TempDir()
	budget := int64(len(resA)+len(resB)) - 1
	srv, ts := newTestServer(t, Config{Workers: 1, CacheDir: dir, CacheBudget: budget})
	idA, _ := submitAndFetch(t, ts, bodyA)
	idB, _ := submitAndFetch(t, ts, bodyB)

	if code, _ := getBody(t, ts, "/v1/jobs/"+idA); code != http.StatusNotFound {
		t.Fatalf("LRU entry survived the byte budget: status %d, want 404", code)
	}
	if code, _ := getBody(t, ts, "/v1/jobs/"+idB); code != http.StatusOK {
		t.Fatalf("MRU entry evicted too eagerly: status %d", code)
	}
	if got := srv.metrics.counter("cache_evictions_total"); got != 1 {
		t.Fatalf("cache_evictions_total = %d, want 1", got)
	}
	srv.mu.Lock()
	total, budgetGot := srv.store.total, srv.store.budget
	srv.mu.Unlock()
	if total > budgetGot {
		t.Fatalf("retained bytes %d exceed budget %d", total, budgetGot)
	}

	// The evicted config recomputes on resubmission (and B rotates out).
	code, resp := postJob(t, ts, bodyA)
	if code != http.StatusAccepted || resp.Cached {
		t.Fatalf("resubmit evicted config: status %d cached %v, want 202 recompute", code, resp.Cached)
	}
	waitStatus(t, ts, resp.Job.ID, StatusDone)
	_, again := submitAndFetch(t, ts, bodyA)
	if !bytes.Equal(again, resA) {
		t.Fatalf("recomputed result differs from original")
	}
}

// TestWarmStreamReplay proves the SSE surface survives a restart: a
// stream opened on a warm job replays a status frame and exactly one
// terminal result event carrying the persisted body.
func TestWarmStreamReplay(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Workers: 1, CacheDir: dir}
	srv1, ts1 := newTestServer(t, cfg)
	id, want := submitAndFetch(t, ts1, smallSim)
	drainNow(t, srv1)

	srv2, ts2 := newTestServer(t, cfg)
	forbidExecution(t, srv2)
	code, raw := getBody(t, ts2, "/v1/jobs/"+id+"/stream")
	if code != http.StatusOK {
		t.Fatalf("warm stream: status %d", code)
	}
	text := string(raw)
	if !strings.Contains(text, "event: status\n") {
		t.Fatalf("warm stream missing status frame:\n%s", text)
	}
	if got := strings.Count(text, "event: result\n"); got != 1 {
		t.Fatalf("warm stream carried %d result events, want 1:\n%s", got, text)
	}
	if !strings.Contains(text, string(want)) {
		t.Fatal("warm stream result frame does not carry the persisted body")
	}
}
