package serve

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// checkJobMaps requires the job table and what is kept beside it to
// agree: every job filed under its own key's job ID, the result store
// sharing the very same map, the husk count equal to the husks the table
// files, and every done job's result held in a tier.
func checkJobMaps(t *testing.T, s *Server) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	if reflect.ValueOf(s.store.table).UnsafePointer() != reflect.ValueOf(s.table).UnsafePointer() {
		t.Fatal("the result store holds a map other than the job table")
	}
	husks := 0
	for id, j := range s.table {
		if id != jobID(j.key) {
			t.Fatalf("job %s (%s) filed under ID %s", j.id, j.key, id)
		}
		if j.husk() {
			husks++
		}
		if j.status == StatusDone && j.result == nil && !j.onDisk {
			t.Fatalf("done job %s holds its result in neither tier", id)
		}
	}
	if husks != s.husks {
		t.Fatalf("husk count %d, table files %d husks", s.husks, husks)
	}
}

// TestJobMapsAgree drives every site that files or forgets a job —
// submits, husk evictions, promotion failures on a poll and a stream, a
// warm boot, and every way a job becomes a husk or stops being one — and
// checks after each that the job table and its husk count agree, and
// that ID lookups see exactly what the table holds.
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
	demoted := srv.table[ids[0]]
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
		if j := srv.table[id]; j.result == nil {
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

	// Husks on a fresh daemon: a poisoned run, a queued job whose
	// deadline lapses before pickup, and a cancelled job whose retry
	// replaces its husk.
	srv3, ts3 := newTestServer(t, Config{Workers: 1, QueueDepth: 16, Clock: time.Now})
	pill := mustKey(t, body(20))
	gate := make(chan struct{})
	defer func() {
		select {
		case <-gate:
		default:
			close(gate)
		}
	}()
	srv3.mu.Lock()
	srv3.cfg.ExecHook = func(key string) {
		if key == pill {
			panic("injected: poison pill")
		}
		<-gate
	}
	srv3.mu.Unlock()
	_, sub = postJob(t, ts3, body(20))
	if j := waitTerminal(t, ts3, sub.Job.ID); j.Status != StatusPoisoned {
		t.Fatalf("pill ended %s, want poisoned", j.Status)
	}
	checkJobMaps(t, srv3)

	_, parked := postJob(t, ts3, body(21))
	waitStatus(t, ts3, parked.Job.ID, StatusRunning)
	code, raw := postPath(t, ts3, "/v1/jobs?deadline=30ms", body(22))
	if code != http.StatusAccepted {
		t.Fatalf("deadlined submit: status %d: %s", code, raw)
	}
	_, cancelled := postJob(t, ts3, body(23))
	if _, ok := srv3.cancelJob(cancelled.Job.ID); !ok {
		t.Fatal("cancel: job not found")
	}
	checkJobMaps(t, srv3)
	if code, retry := postJob(t, ts3, body(23)); code != http.StatusAccepted || retry.Job.Status != StatusQueued {
		t.Fatalf("retry of the cancelled job: status %d, job %s", code, retry.Job.Status)
	}
	checkJobMaps(t, srv3)

	time.Sleep(50 * time.Millisecond) // the 30ms budget lapses in the queue
	close(gate)
	deadlined := jobID(mustKey(t, body(22)))
	if j := waitTerminal(t, ts3, deadlined); j.Status != StatusCancelled || !strings.Contains(j.Error, "deadline") {
		t.Fatalf("deadlined job ended %s (%q), want cancelled by its deadline", j.Status, j.Error)
	}
	waitStatus(t, ts3, cancelled.Job.ID, StatusDone)
	checkJobMaps(t, srv3)
	srv3.mu.Lock()
	husks := srv3.husks
	srv3.mu.Unlock()
	if husks != 2 {
		t.Fatalf("%d husks, want 2: the poisoned run and the lapsed deadline", husks)
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
				srv.table[j.id] = j
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

// BenchmarkEvictOverBound times evictLocked — what every new submission
// pays under the server mutex — on job tables of 1k and 50k done jobs,
// CacheEntries below both and no husk among them. With no husk to reap
// it touches no job, so both sizes cost the same.
func BenchmarkEvictOverBound(b *testing.B) {
	for _, n := range []int{1000, 50000} {
		b.Run(fmt.Sprintf("jobs=%d", n), func(b *testing.B) {
			srv, err := New(Config{Workers: 1, CacheEntries: 100})
			if err != nil {
				b.Fatal(err)
			}
			srv.mu.Lock()
			defer srv.mu.Unlock()
			for i := 0; i < n; i++ {
				j := fakeDoneJob(i)
				j.result = []byte(`{}`)
				srv.table[j.id] = j
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				srv.evictLocked()
			}
			b.StopTimer()
			if len(srv.table) != n {
				b.Fatalf("evictLocked reaped %d done jobs", n-len(srv.table))
			}
		})
	}
}
