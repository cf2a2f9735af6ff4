package serve

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"testing"
)

// checkJobMaps requires byKey, byID, order and the result store to
// describe the same jobs: every job filed under its own key and its own
// ID, every key listed once in submission order, and every done job held
// by the store as the very job byKey files under its key.
func checkJobMaps(t *testing.T, s *Server) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.byID) != len(s.byKey) || len(s.order) != len(s.byKey) {
		t.Fatalf("maps disagree: %d by key, %d by ID, %d in order", len(s.byKey), len(s.byID), len(s.order))
	}
	for key, j := range s.byKey {
		if j.key != key {
			t.Fatalf("job %s filed under key %s", j.key, key)
		}
		if s.byID[j.id] != j {
			t.Fatalf("job %s (%s) missing from byID", j.id, j.key)
		}
	}
	for _, key := range s.order {
		if _, ok := s.byKey[key]; !ok {
			t.Fatalf("order lists %s, which byKey does not hold", key)
		}
	}
	for key, j := range s.store.entries {
		if s.byKey[key] != j {
			t.Fatalf("store holds %s, which byKey does not file as that job", key)
		}
	}
	for key, j := range s.byKey {
		if j.status == StatusDone && s.store.entries[key] != j {
			t.Fatalf("done job %s is not held by the store", key)
		}
	}
}

// TestJobMapsAgree drives every site that files or forgets a job —
// submits, husk evictions, promotion failures on a poll and a stream,
// and a warm boot — and checks after each that the ID index agrees with
// the key index, and that ID lookups see exactly what it holds.
func TestJobMapsAgree(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Workers: 1, QueueDepth: 16, CacheDir: dir, CacheEntries: 2}
	srv, ts, release := gateServer(t, cfg)
	body := func(seed int) string { return fmt.Sprintf(`{"config":{"nodes":3,"rounds":30,"seed":%d}}`, seed) }

	// Submits: one running (parked at the gate), three queued.
	ids := make([]string, 6)
	for i := 0; i < 4; i++ {
		_, sub := postJob(t, ts, body(i+1))
		ids[i] = sub.Job.ID
	}
	waitStatus(t, ts, ids[0], StatusRunning)
	checkJobMaps(t, srv)

	// Cancel two queued jobs into husks; the next submit pushes the store
	// past CacheEntries, and evictLocked reaps both husks.
	for _, id := range ids[1:3] {
		if _, ok := srv.cancelJob(id); !ok {
			t.Fatalf("cancel %s: not found", id)
		}
	}
	_, sub := postJob(t, ts, body(5))
	ids[4] = sub.Job.ID
	checkJobMaps(t, srv)
	for _, id := range ids[1:3] {
		if code, _ := getBody(t, ts, "/v1/jobs/"+id); code != http.StatusNotFound {
			t.Fatalf("evicted husk %s still answers: status %d", id, code)
		}
	}
	if got := srv.metrics.counter("cache_evictions_total"); got != 2 {
		t.Fatalf("cache_evictions_total = %d, want 2", got)
	}

	// Three completions against a two-body memory tier: the first is
	// demoted to disk. Corrupting its file makes the next read fail
	// promotion, which forgets the job.
	release()
	for _, id := range []string{ids[0], ids[3], ids[4]} {
		waitStatus(t, ts, id, StatusDone)
	}
	checkJobMaps(t, srv)
	srv.mu.Lock()
	demoted := srv.byID[ids[0]]
	resident := demoted.result != nil
	srv.mu.Unlock()
	if resident {
		t.Fatal("oldest result still memory-resident; expected it demoted")
	}
	if err := os.WriteFile(filepath.Join(dir, demoted.key), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _ := getBody(t, ts, "/v1/jobs/"+ids[0]); code != http.StatusNotFound {
		t.Fatalf("corrupt entry served: status %d, want 404", code)
	}
	if _, ok := srv.lookup(ids[0]); ok {
		t.Fatal("failed promotion left the job addressable by ID")
	}
	checkJobMaps(t, srv)

	// A fourth completion demotes another body. A stream finds and
	// promotes its job under one hold: with the file corrupted it answers
	// 404 and forgets the job, as the poll did.
	_, sub = postJob(t, ts, body(6))
	ids[5] = sub.Job.ID
	waitStatus(t, ts, ids[5], StatusDone)
	srv.mu.Lock()
	demoted = nil
	var survivors []string
	for _, id := range ids[3:] {
		if j := srv.byID[id]; j.result == nil {
			demoted = j
		} else {
			survivors = append(survivors, id)
		}
	}
	srv.mu.Unlock()
	if demoted == nil {
		t.Fatal("no result demoted by the fourth completion")
	}
	if err := os.WriteFile(filepath.Join(dir, demoted.key), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _ := getBody(t, ts, "/v1/jobs/"+demoted.id+"/stream"); code != http.StatusNotFound {
		t.Fatalf("corrupt entry streamed: status %d, want 404", code)
	}
	if _, ok := srv.lookup(demoted.id); ok {
		t.Fatal("failed promotion on a stream left the job addressable by ID")
	}
	checkJobMaps(t, srv)

	// Warm boot on the same directory, without a drain: the survivors
	// come back through the boot loop, filed under both maps.
	srv2, ts2 := newTestServer(t, cfg)
	checkJobMaps(t, srv2)
	for _, id := range survivors {
		if code, _ := getBody(t, ts2, "/v1/jobs/"+id); code != http.StatusOK {
			t.Fatalf("warm job %s: status %d", id, code)
		}
	}
	if n := len(srv2.jobs()); n != 2 {
		t.Fatalf("warm boot holds %d jobs, want 2", n)
	}
}

// BenchmarkSnapshotByID times one ID lookup — what every poll, result
// read, stream and cancel pays under the server mutex — against stores
// of 1k and 50k done jobs. The lookup is a map access, so both sizes
// cost the same.
func BenchmarkSnapshotByID(b *testing.B) {
	for _, n := range []int{1000, 50000} {
		b.Run(fmt.Sprintf("jobs=%d", n), func(b *testing.B) {
			srv, err := New(Config{Workers: 1, CacheEntries: n})
			if err != nil {
				b.Fatal(err)
			}
			ids := make([]string, n)
			srv.mu.Lock()
			for i := range ids {
				j := fakeDoneJob(i)
				j.result = []byte(`{}`)
				srv.addJobLocked(j)
				ids[i] = j.id
			}
			srv.mu.Unlock()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := srv.snapshotByID(ids[i%n]); !ok {
					b.Fatal("job not found")
				}
			}
		})
	}
}
