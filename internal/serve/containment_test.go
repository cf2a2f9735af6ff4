package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// adjustableClock is a fake clock tests can move forward, for driving
// breaker probe windows and poison TTLs without real sleeps.
type adjustableClock struct {
	mu  sync.Mutex
	now time.Time
}

func newAdjustableClock() *adjustableClock { return &adjustableClock{now: fixedTime} }

func (c *adjustableClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *adjustableClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

// syncBuffer is a mutex-guarded bytes.Buffer: the access-log middleware
// writes from handler goroutines while the test reads.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// waitTerminal polls a job until any terminal status and returns it.
func waitTerminal(t *testing.T, ts *httptest.Server, id string) Job {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		code, raw := getBody(t, ts, "/v1/jobs/"+id)
		if code != http.StatusOK {
			t.Fatalf("GET job %s: status %d body %s", id, code, raw)
		}
		var j Job
		if err := json.Unmarshal(raw, &j); err != nil {
			t.Fatalf("decode job %s: %v", id, err)
		}
		switch j.Status {
		case StatusDone, StatusFailed, StatusCancelled, StatusPoisoned:
			return j
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q", id, j.Status)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// Deadline admission: once the server has a latency signal and the pool
// is saturated, a submission whose budget is below the predicted queue
// wait is rejected with 429 + Retry-After instead of queued to die.
func TestDeadlineAdmission(t *testing.T) {
	srv, ts, release := gateServer(t, Config{Workers: 1, QueueDepth: 8, Clock: time.Now})
	defer release()

	// Seed the latency estimate directly: mean job latency 2s.
	srv.metrics.jobSeconds.Observe(2.0, KindSimulate)

	// Saturate the single worker.
	code, running := postJob(t, ts, `{"config":{"nodes":4,"rounds":40,"seed":7}}`)
	if code != http.StatusAccepted {
		t.Fatalf("saturating submit: status %d", code)
	}

	// Predicted wait (~2s) exceeds a 500ms budget: rejected, with a
	// retry hint.
	resp, err := http.Post(ts.URL+"/v1/jobs?deadline=500ms", "application/json",
		strings.NewReader(`{"config":{"nodes":4,"rounds":40,"seed":8}}`))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("short-deadline submit: status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("deadline rejection carried no Retry-After")
	}
	if got := srv.metrics.counter("submit_rejected_deadline_total"); got != 1 {
		t.Fatalf("submit_rejected_deadline_total = %d, want 1", got)
	}

	// A roomy budget (10s > the ~2s prediction) is admitted.
	roomy, err := http.Post(ts.URL+"/v1/jobs?deadline=10s", "application/json",
		strings.NewReader(`{"config":{"nodes":4,"rounds":40,"seed":8}}`))
	if err != nil {
		t.Fatal(err)
	}
	roomy.Body.Close()
	if roomy.StatusCode != http.StatusAccepted {
		t.Fatalf("roomy submit: status %d, want 202", roomy.StatusCode)
	}

	release()
	waitStatus(t, ts, running.Job.ID, StatusDone)
}

// An invalid deadline is a 400, not a silent default.
func TestDeadlineParsing(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	for _, bad := range []string{"nope", "-5s", "0s"} {
		resp, err := http.Post(ts.URL+"/v1/jobs?deadline="+bad, "application/json",
			strings.NewReader(`{"config":{"nodes":4,"rounds":40,"seed":7}}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("deadline=%q: status %d, want 400", bad, resp.StatusCode)
		}
	}
}

// A job whose deadline lapses while it waits in the queue is cancelled
// at pickup — no worker time is burned on it.
func TestDeadlineExpiredInQueue(t *testing.T) {
	srv, ts, release := gateServer(t, Config{Workers: 1, QueueDepth: 8, Clock: time.Now})
	defer release()

	code, gated := postJob(t, ts, `{"config":{"nodes":4,"rounds":40,"seed":7}}`)
	if code != http.StatusAccepted {
		t.Fatalf("gated submit: status %d", code)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs?deadline=30ms", "application/json",
		strings.NewReader(`{"config":{"nodes":4,"rounds":40,"seed":8}}`))
	if err != nil {
		t.Fatal(err)
	}
	var sub SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatalf("decode: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("deadlined submit: status %d, want 202", resp.StatusCode)
	}
	if sub.Job.Deadline == nil {
		t.Fatal("accepted deadlined job carries no deadline in its snapshot")
	}

	time.Sleep(50 * time.Millisecond) // let the 30ms budget lapse in-queue
	release()

	j := waitTerminal(t, ts, sub.Job.ID)
	if j.Status != StatusCancelled {
		t.Fatalf("expired job status %q, want cancelled", j.Status)
	}
	if !strings.Contains(j.Error, "deadline") {
		t.Fatalf("expired job error %q does not mention the deadline", j.Error)
	}
	if got := srv.metrics.counter("jobs_deadline_expired_total"); got != 1 {
		t.Fatalf("jobs_deadline_expired_total = %d, want 1", got)
	}
	waitStatus(t, ts, gated.Job.ID, StatusDone)
}

// A job whose deadline lapses after a worker picked it up is cancelled
// when its run returns. Unlike the in-queue expiry it did occupy a
// worker, so it counts as executed and observes its latency, and its
// live SSE feed ends in an error event.
func TestDeadlineExpiredWhileRunning(t *testing.T) {
	srv, ts, release := gateServer(t, Config{Workers: 1, Clock: time.Now})
	defer release()

	resp, err := http.Post(ts.URL+"/v1/jobs?deadline=30ms", "application/json",
		strings.NewReader(`{"config":{"nodes":4,"rounds":40,"seed":8}}`))
	if err != nil {
		t.Fatal(err)
	}
	var sub SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatalf("decode: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("deadlined submit: status %d, want 202", resp.StatusCode)
	}
	waitStatus(t, ts, sub.Job.ID, StatusRunning)

	stream := make(chan string, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + sub.Job.ID + "/stream")
		if err != nil {
			stream <- ""
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		stream <- string(b)
	}()
	j, ok := srv.lookup(sub.Job.ID)
	if !ok {
		t.Fatal("job vanished")
	}
	deadline := time.Now().Add(30 * time.Second)
	for !j.bcast.active() {
		if time.Now().After(deadline) {
			t.Fatal("stream subscriber never attached")
		}
		time.Sleep(time.Millisecond)
	}

	time.Sleep(50 * time.Millisecond) // let the 30ms budget lapse mid-run
	release()

	got := waitTerminal(t, ts, sub.Job.ID)
	if got.Status != StatusCancelled {
		t.Fatalf("expired job status %q, want cancelled", got.Status)
	}
	if !strings.Contains(got.Error, "deadline") {
		t.Fatalf("expired job error %q does not mention the deadline", got.Error)
	}
	for _, name := range []string{"jobs_cancelled_total", "jobs_deadline_expired_total", "jobs_executed_total"} {
		if n := srv.metrics.counter(name); n != 1 {
			t.Fatalf("%s = %d, want 1", name, n)
		}
	}
	if observed := srv.metrics.counter(`job_seconds_count{kind="simulate"}`); observed != 1 {
		t.Fatalf("job_seconds observations = %d, want 1", observed)
	}
	text := <-stream
	if strings.Count(text, "event: error\n") != 1 || strings.Contains(text, "event: result\n") {
		t.Fatalf("stream must end in exactly one error event and no result:\n%.2000s", text)
	}
}

// A panicking job is quarantined, not fatal: the worker survives, the
// key retries up to the cap, rejects with 422 + Retry-After at the cap,
// and gets a clean slate once the TTL lapses.
func TestPanicQuarantine(t *testing.T) {
	clk := newAdjustableClock()
	srv, ts := newTestServer(t, Config{
		Workers: 2, PoisonRetries: 2, PoisonTTL: time.Minute, Clock: clk.Now,
	})

	const body = `{"config":{"nodes":4,"rounds":40,"seed":7}}`
	pillKey := mustKey(t, body)
	var poisonArmed atomic.Bool
	poisonArmed.Store(true)
	srv.mu.Lock()
	srv.cfg.ExecHook = func(key string) {
		if key == pillKey && poisonArmed.Load() {
			panic("injected: poison pill")
		}
	}
	srv.mu.Unlock()

	// Two runs panic (the cap); each submission is accepted because the
	// count is below the cap at admission time.
	for i := 0; i < 2; i++ {
		code, sub := postJob(t, ts, body)
		if code != http.StatusAccepted {
			t.Fatalf("panic run %d: status %d, want 202", i, code)
		}
		j := waitTerminal(t, ts, sub.Job.ID)
		if j.Status != StatusPoisoned {
			t.Fatalf("panic run %d: status %q, want poisoned", i, j.Status)
		}
		if !strings.Contains(j.Error, "panic") {
			t.Fatalf("panic run %d: error %q does not mention the panic", i, j.Error)
		}
	}
	if got := srv.metrics.counter("jobs_poisoned_total"); got != 2 {
		t.Fatalf("jobs_poisoned_total = %d, want 2", got)
	}

	// At the cap: rejected outright.
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("capped submit: status %d, want 422", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("quarantine rejection carried no Retry-After")
	}

	// The result endpoint reports the quarantine distinctly too.
	poisonedID := jobID(mustKey(t, body))
	if code, _ := getBody(t, ts, "/v1/jobs/"+poisonedID+"/result"); code != http.StatusUnprocessableEntity {
		t.Fatalf("poisoned result fetch: status %d, want 422", code)
	}

	// The pool survived both panics: an unrelated config still runs.
	code, other := postJob(t, ts, `{"config":{"nodes":4,"rounds":40,"seed":99}}`)
	if code != http.StatusAccepted {
		t.Fatalf("unrelated submit: status %d", code)
	}
	if j := waitTerminal(t, ts, other.Job.ID); j.Status != StatusDone {
		t.Fatalf("unrelated job status %q, want done", j.Status)
	}

	// TTL lapse: clean slate, and with the pill disarmed the job runs.
	poisonArmed.Store(false)
	clk.Advance(2 * time.Minute)
	code, sub := postJob(t, ts, body)
	if code != http.StatusAccepted {
		t.Fatalf("post-TTL submit: status %d, want 202", code)
	}
	if j := waitTerminal(t, ts, sub.Job.ID); j.Status != StatusDone {
		t.Fatalf("post-TTL job status %q, want done", j.Status)
	}
}

// mustKey normalizes a raw submission body to its canonical key.
func mustKey(t *testing.T, body string) string {
	t.Helper()
	var req Request
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	_, key, err := normalizeRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// The disk breaker's full arc: healthy write-through → repeated I/O
// errors trip it open (service keeps serving, memory-only, results
// byte-identical) → a successful probe closes it and the outage backlog
// is re-persisted.
func TestBreakerTripDegradeRecover(t *testing.T) {
	clk := newAdjustableClock()
	ffs := NewFaultFS(OSFS(), 42)
	dir := t.TempDir()
	srv, ts := newTestServer(t, Config{
		Workers: 2, CacheDir: dir, FS: ffs,
		BreakerThreshold: 2, BreakerProbe: 10 * time.Second, Clock: clk.Now,
	})

	// Healthy: result lands on disk.
	code, first := postJob(t, ts, `{"config":{"nodes":4,"rounds":40,"seed":1}}`)
	if code != http.StatusAccepted {
		t.Fatalf("healthy submit: status %d", code)
	}
	done := waitStatus(t, ts, first.Job.ID, StatusDone)
	if _, err := os.Stat(filepath.Join(dir, done.Key)); err != nil {
		t.Fatalf("healthy result not on disk: %v", err)
	}
	if code, body := getBody(t, ts, "/healthz"); code != http.StatusOK || !strings.Contains(string(body), `"disk":"ok"`) {
		t.Fatalf("healthy healthz: code %d body %s", code, body)
	}

	// Total disk outage. A put is one disk operation, so the next two
	// completions' writes fail in a row, tripping the threshold-2
	// breaker — but the jobs themselves still serve.
	ffs.SetFailProb(1.0)
	code, second := postJob(t, ts, `{"config":{"nodes":4,"rounds":40,"seed":2}}`)
	if code != http.StatusAccepted {
		t.Fatalf("degraded submit: status %d", code)
	}
	secondDone := waitStatus(t, ts, second.Job.ID, StatusDone)
	if len(secondDone.Result) == 0 {
		t.Fatal("degraded job served no result")
	}
	code, fifth := postJob(t, ts, `{"config":{"nodes":4,"rounds":40,"seed":5}}`)
	if code != http.StatusAccepted {
		t.Fatalf("second degraded submit: status %d", code)
	}
	if j := waitStatus(t, ts, fifth.Job.ID, StatusDone); len(j.Result) == 0 {
		t.Fatal("second degraded job served no result")
	}
	if got := srv.metrics.counter("breaker_trips_total"); got < 1 {
		t.Fatalf("breaker_trips_total = %d, want ≥ 1", got)
	}
	if code, body := getBody(t, ts, "/healthz"); code != http.StatusOK || !strings.Contains(string(body), `"disk":"degraded"`) {
		t.Fatalf("degraded healthz: code %d body %s", code, body)
	}
	if _, body := getBody(t, ts, "/metrics"); !strings.Contains(string(body), "neofog_serve_breaker_state 2") {
		t.Fatal("metrics do not report breaker_state 2 while open")
	}

	// Memory-only serving is byte-identical: a cache hit returns the
	// same bytes the fresh run produced.
	code, hit := postJob(t, ts, `{"config":{"nodes":4,"rounds":40,"seed":2}}`)
	if code != http.StatusOK || !hit.Cached {
		t.Fatalf("degraded cache hit: code %d cached %v", code, hit.Cached)
	}
	if !bytes.Equal(hit.Job.Result, secondDone.Result) {
		t.Fatal("degraded cache hit returned different bytes")
	}
	// While open, a completing job's write-through is skipped outright
	// (no disk op attempted), not failed.
	code, fourth := postJob(t, ts, `{"config":{"nodes":4,"rounds":40,"seed":4}}`)
	if code != http.StatusAccepted {
		t.Fatalf("open-breaker submit: status %d", code)
	}
	waitStatus(t, ts, fourth.Job.ID, StatusDone)
	if got := srv.metrics.counter("breaker_skipped_total"); got < 1 {
		t.Fatalf("breaker_skipped_total = %d, want ≥ 1", got)
	}

	// Disk heals; past the probe window the next operation closes the
	// breaker and the backlog (the outage-era result) is re-persisted.
	ffs.SetFailProb(0)
	clk.Advance(11 * time.Second)
	code, third := postJob(t, ts, `{"config":{"nodes":4,"rounds":40,"seed":3}}`)
	if code != http.StatusAccepted {
		t.Fatalf("recovery submit: status %d", code)
	}
	waitStatus(t, ts, third.Job.ID, StatusDone)
	if got := srv.metrics.counter("breaker_recoveries_total"); got < 1 {
		t.Fatalf("breaker_recoveries_total = %d, want ≥ 1", got)
	}
	if _, err := os.Stat(filepath.Join(dir, secondDone.Key)); err != nil {
		t.Fatalf("outage-era result not re-persisted after recovery: %v", err)
	}
	if code, body := getBody(t, ts, "/healthz"); code != http.StatusOK || !strings.Contains(string(body), `"disk":"ok"`) {
		t.Fatalf("recovered healthz: code %d body %s", code, body)
	}
}

// A cache dir that is unusable from the first operation degrades the
// boot instead of failing it: the daemon comes up memory-only and still
// serves. (Injected faults rather than chmod: permission bits cannot
// stop root, and CI may run as root.)
func TestDegradedBootUnusableDir(t *testing.T) {
	ffs := NewFaultFS(OSFS(), 7)
	ffs.SetFailProb(1.0)
	srv, ts := newTestServer(t, Config{Workers: 1, CacheDir: t.TempDir(), FS: ffs})

	if code, body := getBody(t, ts, "/healthz"); code != http.StatusOK || !strings.Contains(string(body), `"disk":"degraded"`) {
		t.Fatalf("degraded-boot healthz: code %d body %s", code, body)
	}
	code, sub := postJob(t, ts, `{"config":{"nodes":4,"rounds":40,"seed":5}}`)
	if code != http.StatusAccepted {
		t.Fatalf("degraded-boot submit: status %d", code)
	}
	if j := waitStatus(t, ts, sub.Job.ID, StatusDone); len(j.Result) == 0 {
		t.Fatal("degraded-boot job served no result")
	}
	if got := srv.metrics.counter("breaker_trips_total"); got < 1 {
		t.Fatalf("breaker_trips_total = %d, want ≥ 1", got)
	}
}

// /readyz flips to 503 the moment a drain begins, and (only with
// RequireDisk) while the disk tier is degraded.
func TestReadyz(t *testing.T) {
	t.Run("draining", func(t *testing.T) {
		srv, ts := newTestServer(t, Config{Workers: 1})
		if code, body := getBody(t, ts, "/readyz"); code != http.StatusOK || !strings.Contains(string(body), `"ready":true`) {
			t.Fatalf("fresh readyz: code %d body %s", code, body)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Drain(ctx); err != nil {
			t.Fatalf("Drain: %v", err)
		}
		code, body := getBody(t, ts, "/readyz")
		if code != http.StatusServiceUnavailable || !strings.Contains(string(body), "draining") {
			t.Fatalf("draining readyz: code %d body %s", code, body)
		}
	})

	t.Run("require-disk", func(t *testing.T) {
		ffs := NewFaultFS(OSFS(), 3)
		ffs.SetFailProb(1.0)
		_, ts := newTestServer(t, Config{Workers: 1, CacheDir: t.TempDir(), FS: ffs, RequireDisk: true})
		code, body := getBody(t, ts, "/readyz")
		if code != http.StatusServiceUnavailable || !strings.Contains(string(body), "disk") {
			t.Fatalf("require-disk degraded readyz: code %d body %s", code, body)
		}
	})

	t.Run("degraded-but-not-required", func(t *testing.T) {
		ffs := NewFaultFS(OSFS(), 3)
		ffs.SetFailProb(1.0)
		_, ts := newTestServer(t, Config{Workers: 1, CacheDir: t.TempDir(), FS: ffs})
		if code, _ := getBody(t, ts, "/readyz"); code != http.StatusOK {
			t.Fatalf("degraded (disk optional) readyz: code %d, want 200", code)
		}
	})
}

// The access log emits one structured line per request with the job ID
// from the response header.
func TestAccessLog(t *testing.T) {
	buf := &syncBuffer{}
	_, ts := newTestServer(t, Config{Workers: 1, AccessLog: buf})

	code, sub := postJob(t, ts, `{"config":{"nodes":4,"rounds":40,"seed":7}}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	waitStatus(t, ts, sub.Job.ID, StatusDone)

	deadline := time.Now().Add(5 * time.Second)
	for {
		log := buf.String()
		if strings.Contains(log, "method=POST path=/v1/jobs job="+sub.Job.ID+" status=202") {
			if !strings.Contains(log, "latency=") || !strings.Contains(log, "deadline_remaining=-") {
				t.Fatalf("access log line malformed:\n%s", log)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("no access log line for the submit; log:\n%s", buf.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// The queue-wait histogram observes time between submission and pickup.
func TestQueueWaitHistogram(t *testing.T) {
	clk := newAdjustableClock()
	_, ts, release := gateServer(t, Config{Workers: 1, QueueDepth: 8, Clock: clk.Now})
	defer release()

	code, gated := postJob(t, ts, `{"config":{"nodes":4,"rounds":40,"seed":7}}`)
	if code != http.StatusAccepted {
		t.Fatalf("gated submit: status %d", code)
	}
	// The worker must pop the gated job (a zero wait) before the clock
	// moves, or that job's wait would count the 3 seconds too.
	waitStatus(t, ts, gated.Job.ID, StatusRunning)
	code, queued := postJob(t, ts, `{"config":{"nodes":4,"rounds":40,"seed":8}}`)
	if code != http.StatusAccepted {
		t.Fatalf("queued submit: status %d", code)
	}
	clk.Advance(3 * time.Second) // the queued job waits 3 fake seconds
	release()
	waitStatus(t, ts, gated.Job.ID, StatusDone)
	waitStatus(t, ts, queued.Job.ID, StatusDone)

	_, body := getBody(t, ts, "/metrics")
	text := string(body)
	if !strings.Contains(text, "neofog_serve_queue_wait_seconds_count 2") {
		t.Fatalf("queue_wait count missing; metrics:\n%s", grepLines(text, "queue_wait"))
	}
	// The second job's wait (≥ 3 fake seconds) lands in the sum.
	if !strings.Contains(text, "neofog_serve_queue_wait_seconds_sum 3") {
		t.Fatalf("queue_wait sum missing the 3s wait; metrics:\n%s", grepLines(text, "queue_wait"))
	}
}

func grepLines(text, substr string) string {
	var out []string
	for _, ln := range strings.Split(text, "\n") {
		if strings.Contains(ln, substr) {
			out = append(out, ln)
		}
	}
	return strings.Join(out, "\n")
}

// An SSE client that disconnects mid-stream releases its subscriber
// slot and goroutine; the job still completes for other waiters.
func TestSSEDisconnectReleasesSubscriber(t *testing.T) {
	srv, ts, release := gateServer(t, Config{Workers: 1})
	defer release()

	code, sub := postJob(t, ts, `{"config":{"nodes":4,"rounds":40,"seed":7}}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	j, ok := srv.lookup(sub.Job.ID)
	if !ok {
		t.Fatal("job vanished")
	}

	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/jobs/"+sub.Job.ID+"/stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Read the opening frame so the subscription is live, then vanish.
	frame := make([]byte, 64)
	if _, err := resp.Body.Read(frame); err != nil {
		t.Fatalf("read opening frame: %v", err)
	}
	waitFor(t, "subscriber registered", func() bool { return j.bcast.subs.Load() == 1 })

	cancel()
	resp.Body.Close()

	// The handler goroutine must notice the disconnect and unsubscribe
	// even though the job is still gated (no events flowing).
	waitFor(t, "subscriber released", func() bool { return j.bcast.subs.Load() == 0 })
	waitFor(t, "goroutines released", func() bool { return runtime.NumGoroutine() <= before })

	// The job is unharmed: another waiter still gets the result.
	release()
	done := waitStatus(t, ts, sub.Job.ID, StatusDone)
	if len(done.Result) == 0 {
		t.Fatal("job served no result after a subscriber disconnect")
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// A cached submit during degraded mode must not resurrect disk writes:
// regression guard for the breaker fast-path.
func TestBreakerSkipsWhileOpen(t *testing.T) {
	ffs := NewFaultFS(OSFS(), 11)
	srv, ts := newTestServer(t, Config{Workers: 1, CacheDir: t.TempDir(), FS: ffs, BreakerThreshold: 1})

	code, sub := postJob(t, ts, `{"config":{"nodes":4,"rounds":40,"seed":21}}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	waitStatus(t, ts, sub.Job.ID, StatusDone)

	ffs.SetFailProb(1.0)
	code, second := postJob(t, ts, `{"config":{"nodes":4,"rounds":40,"seed":22}}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	waitStatus(t, ts, second.Job.ID, StatusDone)
	if srv.metrics.counter("breaker_trips_total") < 1 {
		t.Fatal("breaker did not trip")
	}

	opsBefore, _ := ffs.Stats()
	for i := 0; i < 5; i++ {
		code, hit := postJob(t, ts, `{"config":{"nodes":4,"rounds":40,"seed":21}}`)
		if code != http.StatusOK || !hit.Cached {
			t.Fatalf("cache hit %d under outage: code %d cached %v", i, code, hit.Cached)
		}
	}
	opsAfter, _ := ffs.Stats()
	if opsAfter != opsBefore {
		t.Fatalf("open breaker still attempted %d disk ops", opsAfter-opsBefore)
	}
}
