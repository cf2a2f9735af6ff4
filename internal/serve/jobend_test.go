package serve

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"neofog/internal/qos"
)

// waitLeftQueue polls job id until it is no longer queued and returns
// its snapshot; it fails the test after 10 s.
func waitLeftQueue(t *testing.T, srv *Server, id string) Job {
	t.Helper()
	var snap Job
	waitFor(t, "job "+id+" to leave the queue", func() bool {
		var ok bool
		snap, ok = srv.snapshotByID(id)
		return ok && snap.Status != StatusQueued
	})
	return snap
}

// TestDeadlineLapseFreesQueueSlot holds a queued job to its deadline
// while the only worker is parked on another job: the moment the budget
// lapses the job reads cancelled, the deadline counter counts it, and
// its slot in the shared queue (queue) or in its tenant's depth cap
// (tenant) takes a new submission.
func TestDeadlineLapseFreesQueueSlot(t *testing.T) {
	lapse := func(t *testing.T, srv *Server, ts *httptest.Server, query string, seed int64) {
		t.Helper()
		resp, body := postRaw(t, ts, "/v1/jobs?deadline=30ms"+query, simSeedBody(seed))
		var sub SubmitResponse
		if err := json.Unmarshal(body, &sub); resp.StatusCode != http.StatusAccepted || err != nil {
			t.Fatalf("deadlined submit: status %d body %s", resp.StatusCode, body)
		}
		if j := waitLeftQueue(t, srv, sub.Job.ID); j.Status != StatusCancelled || j.Error != context.DeadlineExceeded.Error() {
			t.Fatalf("lapsed job ended %s (%q), want cancelled by its deadline", j.Status, j.Error)
		}
		if got := srv.metrics.counter("jobs_deadline_expired_total"); got != 1 {
			t.Fatalf("jobs_deadline_expired_total = %d, want 1", got)
		}
	}
	t.Run("queue", func(t *testing.T) {
		srv, ts, release := gateServer(t, Config{Workers: 1, QueueDepth: 2})
		defer release()
		_, parked := postJob(t, ts, simSeedBody(170))
		waitStatus(t, ts, parked.Job.ID, StatusRunning)
		lapse(t, srv, ts, "", 171)
		code, raw := getBody(t, ts, "/healthz")
		var h healthBody
		if err := json.Unmarshal(raw, &h); code != http.StatusOK || err != nil {
			t.Fatalf("healthz: status %d, %v", code, err)
		}
		if h.Queue.Depth != 0 || h.Queue.Capacity != 2 {
			t.Fatalf("queue depth %d of %d, want 0 of 2", h.Queue.Depth, h.Queue.Capacity)
		}
		for _, seed := range []int64{172, 173} {
			if resp, body := postRaw(t, ts, "/v1/jobs", simSeedBody(seed)); resp.StatusCode != http.StatusAccepted {
				t.Fatalf("seed %d after the lapse: status %d body %s", seed, resp.StatusCode, body)
			}
		}
	})
	t.Run("tenant", func(t *testing.T) {
		srv, ts, release := gateServer(t, Config{Workers: 1, Tenants: []qos.TenantConfig{{Name: "capped", Depth: 1}}})
		defer release()
		_, parked := postJob(t, ts, simSeedBody(180))
		waitStatus(t, ts, parked.Job.ID, StatusRunning)
		lapse(t, srv, ts, "&tenant=capped", 181)
		if resp, body := postRaw(t, ts, "/v1/jobs?tenant=capped", simSeedBody(182)); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("capped submit after the lapse: status %d body %s", resp.StatusCode, body)
		}
	})
}

// TestDrainDeadlineStrikesQueued drains past the drain's own deadline
// with one job parked running and two queued: cancelling the jobs'
// contexts strikes both queued jobs while the worker is still parked,
// and Drain returns its context's error once the worker is let go.
func TestDrainDeadlineStrikesQueued(t *testing.T) {
	srv, ts, release := gateServer(t, Config{Workers: 1})
	defer release()
	_, parked := postJob(t, ts, simSeedBody(190))
	waitStatus(t, ts, parked.Job.ID, StatusRunning)
	var queued []string
	for _, seed := range []int64{191, 192} {
		_, sub := postJob(t, ts, simSeedBody(seed))
		queued = append(queued, sub.Job.ID)
	}
	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
		defer cancel()
		drained <- srv.Drain(ctx)
	}()
	for _, id := range queued {
		if j := waitLeftQueue(t, srv, id); j.Status != StatusCancelled || j.Error != context.Canceled.Error() {
			t.Fatalf("queued job %s ended %s (%q), want cancelled", id, j.Status, j.Error)
		}
	}
	srv.mu.Lock()
	held := srv.sched.Len()
	srv.mu.Unlock()
	if held != 0 {
		t.Fatalf("scheduler holds %d jobs after the drain's deadline, want 0", held)
	}
	release()
	if err := <-drained; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain = %v, want its context's deadline error", err)
	}
}

// TestFinishUnwatchedAllocs holds the terminal event of a job nobody
// streams to no work at all: finish marshals nothing and allocates
// nothing.
func TestFinishUnwatchedAllocs(t *testing.T) {
	b := newBroadcaster()
	var snap any = Job{ID: "j-0123456789abcdef", Status: StatusDone, Result: []byte(`{"x":1}`)}
	if n := testing.AllocsPerRun(100, func() { b.finish("result", snap) }); n != 0 {
		t.Fatalf("finish with no subscriber: %v allocations, want 0", n)
	}
}

// TestStreamsRacingTheEnd opens 32 streams on a parked job around its
// release, over 5 rounds: some subscribe before the job ends, some while
// it ends and some replay it finished. Every stream ends with exactly one
// terminal event, and none hangs.
func TestStreamsRacingTheEnd(t *testing.T) {
	for round := int64(0); round < 5; round++ {
		_, ts, release := gateServer(t, Config{Workers: 1})
		_, sub := postJob(t, ts, simSeedBody(200+round))
		waitStatus(t, ts, sub.Job.ID, StatusRunning)
		streams := make(chan string, 32)
		var wg sync.WaitGroup
		for i := 0; i < 32; i++ {
			if i == 16 {
				release()
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				defer cancel()
				req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/jobs/"+sub.Job.ID+"/stream", nil)
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					streams <- "open: " + err.Error()
					return
				}
				defer resp.Body.Close()
				b, err := io.ReadAll(resp.Body)
				if err != nil {
					streams <- "read: " + err.Error()
					return
				}
				streams <- string(b)
			}()
		}
		wg.Wait()
		close(streams)
		for text := range streams {
			if n := strings.Count(text, "event: result\n") + strings.Count(text, "event: error\n"); n != 1 {
				t.Fatalf("round %d: a stream ended with %d terminal events, want 1:\n%.2000s", round, n, text)
			}
		}
	}
}

// TestLapsedQuarantineForgotten panics five keys once each, then lets
// their quarantines lapse: the next panic and the next scrape forget the
// lapsed records, so neither the map nor the poisoned_keys gauge counts
// them.
func TestLapsedQuarantineForgotten(t *testing.T) {
	clk := newAdjustableClock()
	srv, ts := newTestServer(t, Config{Workers: 1, PoisonTTL: time.Minute, Clock: clk.Now})
	srv.mu.Lock()
	srv.cfg.ExecHook = func(string) { panic("injected: poison pill") }
	srv.mu.Unlock()
	poison := func(seed int64) {
		t.Helper()
		_, sub := postJob(t, ts, simSeedBody(seed))
		if j := waitTerminal(t, ts, sub.Job.ID); j.Status != StatusPoisoned {
			t.Fatalf("seed %d ended %s, want poisoned", seed, j.Status)
		}
	}
	check := func(want int) {
		t.Helper()
		_, body := getBody(t, ts, "/metrics")
		srv.mu.Lock()
		records := len(srv.poisoned)
		srv.mu.Unlock()
		gauge := "\nneofog_serve_poisoned_keys " + strconv.Itoa(want) + "\n"
		if !strings.Contains(string(body), gauge) || records != want {
			t.Fatalf("%d records and the gauge\n%s\nwant %d", records, grepLines(string(body), "poisoned_keys"), want)
		}
	}
	for seed := int64(210); seed < 215; seed++ {
		poison(seed)
	}
	check(5)
	clk.Advance(time.Hour)
	poison(215) // recording a panic forgets the five lapsed records
	srv.mu.Lock()
	records := len(srv.poisoned)
	srv.mu.Unlock()
	if records != 1 {
		t.Fatalf("%d quarantine records after a panic past five lapsed ones, want 1", records)
	}
	check(1)
	clk.Advance(time.Hour)
	check(0) // a scrape forgets the last one
}

// submitSeed posts seed's body with ?deadline=budget (none when budget is
// empty) and returns the 202 answer.
func submitSeed(t *testing.T, ts *httptest.Server, budget string, seed int64) SubmitResponse {
	t.Helper()
	path := "/v1/jobs"
	if budget != "" {
		path += "?deadline=" + budget
	}
	resp, body := postRaw(t, ts, path, simSeedBody(seed))
	var sub SubmitResponse
	if err := json.Unmarshal(body, &sub); resp.StatusCode != http.StatusAccepted || err != nil {
		t.Fatalf("submit seed %d deadline %q: status %d body %s", seed, budget, resp.StatusCode, body)
	}
	return sub
}

// TestDedupDeadline submits seed 301 twice while the only worker is
// parked, the second time deduped onto the first: the job runs until the
// last budget among its submissions lapses. A dedup with no budget clears
// the deadline and a later budget moves it; an earlier budget changes
// nothing, so it never ends the job sooner. The job then outlives every
// 100 ms budget in the queue and finishes once the worker is let go.
func TestDedupDeadline(t *testing.T) {
	for _, tc := range []struct {
		name, first, again string        // the submissions' ?deadline= ("" = none)
		want               time.Duration // the job's budget after the dedup (0 = none)
	}{
		{"none clears", "100ms", "", 0},
		{"later extends", "100ms", "10s", 10 * time.Second},
		{"earlier than none", "", "100ms", 0},
		{"earlier than later", "10s", "100ms", 10 * time.Second},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, ts, release := gateServer(t, Config{Workers: 1})
			defer release()
			_, parked := postJob(t, ts, simSeedBody(300))
			waitStatus(t, ts, parked.Job.ID, StatusRunning)
			first := submitSeed(t, ts, tc.first, 301)
			again := submitSeed(t, ts, tc.again, 301)
			if !again.Deduped || again.Job.ID != first.Job.ID {
				t.Fatalf("second submission deduped=%v onto %s, want deduped onto %s", again.Deduped, again.Job.ID, first.Job.ID)
			}
			switch dl := again.Job.Deadline; {
			case tc.want == 0 && dl != nil:
				t.Fatalf("deduped snapshot shows deadline %v, want none", *dl)
			case tc.want > 0 && (dl == nil || !dl.Equal(fixedTime.Add(tc.want))):
				t.Fatalf("deduped snapshot shows deadline %v, want %v", dl, fixedTime.Add(tc.want))
			}
			time.Sleep(250 * time.Millisecond) // past every 100 ms budget
			if snap, _ := srv.snapshotByID(first.Job.ID); snap.Status != StatusQueued {
				t.Fatalf("job %s (%q) after its first budget, want still queued", snap.Status, snap.Error)
			}
			release()
			waitStatus(t, ts, first.Job.ID, StatusDone)
			if got := srv.metrics.counter("jobs_deadline_expired_total"); got != 0 {
				t.Fatalf("jobs_deadline_expired_total = %d, want 0", got)
			}
		})
	}
}

// TestDedupDeadlineLapsesOnce extends a queued job's 100 ms budget to
// 400 ms by a dedup, then dedups an earlier budget onto it: the job leaves
// the queue no sooner than 400 ms after its first submission, cancelled
// by its deadline, and the deadline counter counts it once.
func TestDedupDeadlineLapsesOnce(t *testing.T) {
	srv, ts, release := gateServer(t, Config{Workers: 1})
	defer release()
	_, parked := postJob(t, ts, simSeedBody(310))
	waitStatus(t, ts, parked.Job.ID, StatusRunning)
	start := time.Now()
	sub := submitSeed(t, ts, "100ms", 311)
	submitSeed(t, ts, "400ms", 311)
	submitSeed(t, ts, "200ms", 311)
	j := waitLeftQueue(t, srv, sub.Job.ID)
	if took := time.Since(start); took < 400*time.Millisecond {
		t.Fatalf("job left the queue after %v, before its 400ms budget", took)
	}
	if j.Status != StatusCancelled || j.Error != context.DeadlineExceeded.Error() {
		t.Fatalf("lapsed job ended %s (%q), want cancelled by its deadline", j.Status, j.Error)
	}
	if j.Deadline == nil || !j.Deadline.Equal(fixedTime.Add(400*time.Millisecond)) {
		t.Fatalf("lapsed job shows deadline %v, want %v", j.Deadline, fixedTime.Add(400*time.Millisecond))
	}
	for _, name := range []string{"jobs_deadline_expired_total", "jobs_cancelled_total"} {
		if got := srv.metrics.counter(name); got != 1 {
			t.Fatalf("%s = %d, want 1", name, got)
		}
	}
}

// TestDeadlineLapsesMidExperiment gives a sweep a budget shorter than its
// first point. The sweep stops between points with its context's error,
// which reads context.Canceled; the job still ends cancelled by its
// deadline and counts as expired, because its end is classified by the
// context's cause.
func TestDeadlineLapsesMidExperiment(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1})
	resp, body := postRaw(t, ts, "/v1/jobs?deadline=20ms", `{"experiment":"fig13","options":{"nodes":60}}`)
	var sub SubmitResponse
	if err := json.Unmarshal(body, &sub); resp.StatusCode != http.StatusAccepted || err != nil {
		t.Fatalf("submit: status %d body %s", resp.StatusCode, body)
	}
	if j := waitTerminal(t, ts, sub.Job.ID); j.Status != StatusCancelled || j.Error != context.DeadlineExceeded.Error() {
		t.Fatalf("job ended %s (%q), want cancelled by its deadline", j.Status, j.Error)
	}
	if got := srv.metrics.counter("jobs_deadline_expired_total"); got != 1 {
		t.Fatalf("jobs_deadline_expired_total = %d, want 1", got)
	}
}
