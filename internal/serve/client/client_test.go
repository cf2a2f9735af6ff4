package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"neofog/internal/serve"
)

// scriptedServer serves a fixed sequence of responses for each
// method+path, falling back to the last one when the script runs out.
type scriptedServer struct {
	mu      sync.Mutex
	scripts map[string][]scriptStep
	calls   map[string]int
}

type scriptStep struct {
	status     int
	body       string
	retryAfter string
}

func newScripted() *scriptedServer {
	return &scriptedServer{scripts: map[string][]scriptStep{}, calls: map[string]int{}}
}

func (ss *scriptedServer) on(key string, steps ...scriptStep) { ss.scripts[key] = steps }

func (ss *scriptedServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	key := r.Method + " " + r.URL.Path
	ss.mu.Lock()
	steps, ok := ss.scripts[key]
	n := ss.calls[key]
	ss.calls[key] = n + 1
	ss.mu.Unlock()
	if !ok || len(steps) == 0 {
		http.NotFound(w, r)
		return
	}
	if n >= len(steps) {
		n = len(steps) - 1
	}
	st := steps[n]
	if st.retryAfter != "" {
		w.Header().Set("Retry-After", st.retryAfter)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(st.status)
	fmt.Fprintln(w, st.body)
}

func (ss *scriptedServer) count(key string) int {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return ss.calls[key]
}

func instantSleep(recorded *[]time.Duration) func(context.Context, time.Duration) error {
	var mu sync.Mutex
	return func(ctx context.Context, d time.Duration) error {
		mu.Lock()
		*recorded = append(*recorded, d)
		mu.Unlock()
		return ctx.Err()
	}
}

func testClient(url string) (*Client, *[]time.Duration) {
	sleeps := &[]time.Duration{}
	return &Client{
		BaseURL: url, Seed: 1, MaxAttempts: 4,
		BaseDelay: 10 * time.Millisecond, MaxDelay: time.Second,
		PollInterval: time.Millisecond,
		sleep:        instantSleep(sleeps),
	}, sleeps
}

func jobJSON(t *testing.T, j serve.Job) string {
	t.Helper()
	b, err := json.Marshal(j)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func submitJSON(t *testing.T, sr serve.SubmitResponse) string {
	t.Helper()
	b, err := json.Marshal(sr)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// A Run against a healthy server: submit accepted, one queued poll, then
// done with the result inline.
func TestRunHappyPath(t *testing.T) {
	ss := newScripted()
	queued := serve.Job{ID: "j-1", Status: serve.StatusQueued}
	done := serve.Job{ID: "j-1", Status: serve.StatusDone, Result: json.RawMessage(`{"x":1}`)}
	ss.on("POST /v1/jobs", scriptStep{202, submitJSON(t, serve.SubmitResponse{Job: queued}), ""})
	ss.on("GET /v1/jobs/j-1",
		scriptStep{200, jobJSON(t, queued), ""},
		scriptStep{200, jobJSON(t, done), ""})
	srv := httptest.NewServer(ss)
	defer srv.Close()

	c, _ := testClient(srv.URL)
	body, err := c.Run(context.Background(), serve.Request{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if string(body) != `{"x":1}` {
		t.Fatalf("Run returned %q", body)
	}
}

// 429s with Retry-After are retried, the hint floors the backoff sleep,
// and the run still succeeds.
func TestRunRetriesBackpressure(t *testing.T) {
	ss := newScripted()
	done := serve.Job{ID: "j-1", Status: serve.StatusDone, Result: json.RawMessage(`"ok"`)}
	ss.on("POST /v1/jobs",
		scriptStep{429, `{"error":"queue full"}`, "2"},
		scriptStep{200, submitJSON(t, serve.SubmitResponse{Job: done, Cached: true}), ""})
	srv := httptest.NewServer(ss)
	defer srv.Close()

	c, sleeps := testClient(srv.URL)
	body, err := c.Run(context.Background(), serve.Request{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if string(body) != `"ok"` {
		t.Fatalf("Run returned %q", body)
	}
	if got := ss.count("POST /v1/jobs"); got != 2 {
		t.Fatalf("submit called %d times, want 2", got)
	}
	found := false
	for _, d := range *sleeps {
		if d >= 2*time.Second {
			found = true
		}
	}
	if !found {
		t.Fatalf("no sleep honored the 2s Retry-After hint: %v", *sleeps)
	}
}

// A non-temporary status fails immediately, with no retries burned.
func TestBadRequestNoRetry(t *testing.T) {
	ss := newScripted()
	ss.on("POST /v1/jobs", scriptStep{400, `{"error":"bad kind"}`, ""})
	srv := httptest.NewServer(ss)
	defer srv.Close()

	c, _ := testClient(srv.URL)
	_, err := c.Run(context.Background(), serve.Request{})
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != 400 {
		t.Fatalf("want APIError 400, got %v", err)
	}
	if got := ss.count("POST /v1/jobs"); got != 1 {
		t.Fatalf("submit called %d times, want 1", got)
	}
}

// The retry budget bounds a hard-down server: MaxAttempts tries per
// operation, then the last temporary error surfaces.
func TestRetryBudgetExhausted(t *testing.T) {
	ss := newScripted()
	ss.on("POST /v1/jobs", scriptStep{503, `{"error":"draining"}`, ""})
	srv := httptest.NewServer(ss)
	defer srv.Close()

	c, _ := testClient(srv.URL)
	_, err := c.Submit(context.Background(), serve.Request{})
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != 503 {
		t.Fatalf("want APIError 503, got %v", err)
	}
	if got := ss.count("POST /v1/jobs"); got != c.maxAttempts() {
		t.Fatalf("submit called %d times, want %d", got, c.maxAttempts())
	}
}

// A job that vanishes mid-wait (warm restart that forgot it) is
// resubmitted — idempotent by content address — and completes.
func TestRunResubmitsAfterRestart(t *testing.T) {
	ss := newScripted()
	queued := serve.Job{ID: "j-1", Status: serve.StatusQueued}
	done := serve.Job{ID: "j-1", Status: serve.StatusDone, Result: json.RawMessage(`{"v":2}`)}
	ss.on("POST /v1/jobs",
		scriptStep{202, submitJSON(t, serve.SubmitResponse{Job: queued}), ""},
		scriptStep{200, submitJSON(t, serve.SubmitResponse{Job: done, Cached: true}), ""})
	ss.on("GET /v1/jobs/j-1", scriptStep{404, `{"error":"no job"}`, ""})
	srv := httptest.NewServer(ss)
	defer srv.Close()

	c, _ := testClient(srv.URL)
	body, err := c.Run(context.Background(), serve.Request{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if string(body) != `{"v":2}` {
		t.Fatalf("Run returned %q", body)
	}
	if got := ss.count("POST /v1/jobs"); got != 2 {
		t.Fatalf("submit called %d times, want 2", got)
	}
}

// Failed and poisoned jobs are terminal: Run surfaces the JobError
// instead of resubmitting forever.
func TestRunTerminalJobError(t *testing.T) {
	for _, status := range []string{serve.StatusFailed, serve.StatusPoisoned} {
		t.Run(status, func(t *testing.T) {
			ss := newScripted()
			bad := serve.Job{ID: "j-1", Status: status, Error: "boom"}
			ss.on("POST /v1/jobs", scriptStep{202, submitJSON(t, serve.SubmitResponse{Job: serve.Job{ID: "j-1", Status: serve.StatusQueued}}), ""})
			ss.on("GET /v1/jobs/j-1", scriptStep{200, jobJSON(t, bad), ""})
			srv := httptest.NewServer(ss)
			defer srv.Close()

			c, _ := testClient(srv.URL)
			_, err := c.Run(context.Background(), serve.Request{})
			var je *JobError
			if !errors.As(err, &je) || je.Job.Status != status {
				t.Fatalf("want JobError %s, got %v", status, err)
			}
		})
	}
}

// A cancelled job (drain or deadline struck it) is transient: Run
// resubmits and the second run succeeds.
func TestRunResubmitsCancelled(t *testing.T) {
	ss := newScripted()
	cancelled := serve.Job{ID: "j-1", Status: serve.StatusCancelled, Error: "context canceled"}
	done := serve.Job{ID: "j-1", Status: serve.StatusDone, Result: json.RawMessage(`{"ok":true}`)}
	ss.on("POST /v1/jobs",
		scriptStep{202, submitJSON(t, serve.SubmitResponse{Job: serve.Job{ID: "j-1", Status: serve.StatusQueued}}), ""},
		scriptStep{200, submitJSON(t, serve.SubmitResponse{Job: done, Cached: true}), ""})
	ss.on("GET /v1/jobs/j-1", scriptStep{200, jobJSON(t, cancelled), ""})
	srv := httptest.NewServer(ss)
	defer srv.Close()

	c, _ := testClient(srv.URL)
	body, err := c.Run(context.Background(), serve.Request{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if string(body) != `{"ok":true}` {
		t.Fatalf("Run returned %q", body)
	}
}

// Context cancellation bounds every path, including mid-backoff.
func TestRunBoundedByContext(t *testing.T) {
	ss := newScripted()
	ss.on("POST /v1/jobs", scriptStep{503, `{"error":"draining"}`, ""})
	srv := httptest.NewServer(ss)
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c, _ := testClient(srv.URL)
	_, err := c.Run(ctx, serve.Request{})
	if err == nil {
		t.Fatal("Run succeeded under a cancelled context")
	}
}
