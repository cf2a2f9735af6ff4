package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"neofog"
	"neofog/internal/qos"
)

// simSeedBody builds a minimal simulate submission whose identity is the
// seed, and simSeedKey its canonical key — the tests map dispatch-order
// recordings back to seeds through it.
func simSeedBody(seed int64) string {
	return fmt.Sprintf(`{"config":{"nodes":4,"rounds":40,"seed":%d}}`, seed)
}

func simSeedKey(t *testing.T, seed int64) string {
	t.Helper()
	_, key, err := normalizeRequest(Request{Config: &neofog.SimulationConfig{Nodes: 4, Rounds: 40, Seed: seed}})
	if err != nil {
		t.Fatalf("normalize seed %d: %v", seed, err)
	}
	return key
}

// postRaw posts a JSON body to an arbitrary path and returns the full
// response — the QoS tests read the X-Neofog-Tenant and Retry-After
// headers off rejections.
func postRaw(t *testing.T, ts *httptest.Server, path, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return resp, b
}

// dispatchRecorder is the order-observation harness: an ExecHook that
// parks the pinned key's job on a gate (holding the single worker at a
// deterministic point while tests build a backlog) and records every
// other key in execution order. With Workers: 1, execution order IS the
// scheduler's pop order.
type dispatchRecorder struct {
	mu      sync.Mutex
	order   []string
	gate    chan struct{}
	gateKey string
	once    sync.Once
}

func newDispatchRecorder(gateKey string) *dispatchRecorder {
	return &dispatchRecorder{gate: make(chan struct{}), gateKey: gateKey}
}

func (d *dispatchRecorder) hook(key string) {
	if key == d.gateKey {
		<-d.gate
		return
	}
	d.mu.Lock()
	d.order = append(d.order, key)
	d.mu.Unlock()
}

func (d *dispatchRecorder) release() { d.once.Do(func() { close(d.gate) }) }

func (d *dispatchRecorder) recorded() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]string(nil), d.order...)
}

// assertDispatchOrder waits for every expected seed to execute and
// compares the execution order seed by seed.
func assertDispatchOrder(t *testing.T, rec *dispatchRecorder, keyToSeed map[string]int64, want []int64) {
	t.Helper()
	waitFor(t, "backlog executed", func() bool { return len(rec.recorded()) >= len(want) })
	var got []int64
	for _, key := range rec.recorded() {
		got = append(got, keyToSeed[key])
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("dispatch order %v, want %v", got, want)
	}
}

// TestTenantWeightedDispatchOrder holds the one worker on a gated job,
// backlogs gold (weight 3) and bronze (weight 1) interleaved, and
// asserts the jobs execute in exact WFQ order: gold served three for
// bronze's one, ties to the lexicographically smaller tenant, FIFO
// within each tenant.
func TestTenantWeightedDispatchOrder(t *testing.T) {
	rec := newDispatchRecorder(simSeedKey(t, 100))
	defer rec.release()
	_, ts := newTestServer(t, Config{
		Workers:  1,
		Tenants:  []qos.TenantConfig{{Name: "gold", Weight: 3}, {Name: "bronze", Weight: 1}},
		ExecHook: rec.hook,
	})

	code, gated := postJob(t, ts, simSeedBody(100))
	if code != http.StatusAccepted {
		t.Fatalf("gate submit: status %d", code)
	}
	waitStatus(t, ts, gated.Job.ID, StatusRunning)

	keyToSeed := map[string]int64{}
	submissions := []struct {
		tenant string
		seed   int64
	}{
		{"bronze", 1}, {"gold", 2}, {"bronze", 3}, {"gold", 4}, {"bronze", 5}, {"gold", 6},
	}
	for _, sub := range submissions {
		keyToSeed[simSeedKey(t, sub.seed)] = sub.seed
		resp, body := postRaw(t, ts, "/v1/jobs?tenant="+sub.tenant, simSeedBody(sub.seed))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("%s seed %d: status %d body %s", sub.tenant, sub.seed, resp.StatusCode, body)
		}
		if got := resp.Header.Get(TenantHeader); got != sub.tenant {
			t.Fatalf("submit echoed tenant %q, want %q", got, sub.tenant)
		}
	}
	rec.release()
	// Arrival order was b,g,b,g,b,g; WFQ at 3:1 dispatches gold's first
	// two (finish tags 1/3, 2/3), bronze's first (tie at 1 breaks to
	// bronze), gold's last, then bronze drains FIFO.
	assertDispatchOrder(t, rec, keyToSeed, []int64{2, 4, 1, 6, 3, 5})
}

// TestInteractiveAheadOfBulk backs up bulk work behind the gated worker
// and then submits an interactive job last; it must run first — the
// interactive plane is strictly ahead of bulk, regardless of arrival
// order.
func TestInteractiveAheadOfBulk(t *testing.T) {
	rec := newDispatchRecorder(simSeedKey(t, 110))
	defer rec.release()
	_, ts := newTestServer(t, Config{Workers: 1, ExecHook: rec.hook})

	code, gated := postJob(t, ts, simSeedBody(110))
	if code != http.StatusAccepted {
		t.Fatalf("gate submit: status %d", code)
	}
	waitStatus(t, ts, gated.Job.ID, StatusRunning)

	keyToSeed := map[string]int64{}
	for _, seed := range []int64{111, 112} {
		keyToSeed[simSeedKey(t, seed)] = seed
		if resp, body := postRaw(t, ts, "/v1/jobs?class=bulk", simSeedBody(seed)); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("bulk seed %d: status %d body %s", seed, resp.StatusCode, body)
		}
	}
	// The interactive submission arrives last, via the header spelling.
	keyToSeed[simSeedKey(t, 113)] = 113
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", strings.NewReader(simSeedBody(113)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(ClassHeader, "interactive")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("interactive submit: status %d", resp.StatusCode)
	}
	rec.release()
	assertDispatchOrder(t, rec, keyToSeed, []int64{113, 111, 112})
}

// TestDefaultFIFOUnchanged pins the no-tenant-config contract: a single
// unlimited default flow dispatches in plain submission order, exactly
// the pre-QoS channel behavior.
func TestDefaultFIFOUnchanged(t *testing.T) {
	rec := newDispatchRecorder(simSeedKey(t, 120))
	defer rec.release()
	_, ts := newTestServer(t, Config{Workers: 1, ExecHook: rec.hook})

	code, gated := postJob(t, ts, simSeedBody(120))
	if code != http.StatusAccepted {
		t.Fatalf("gate submit: status %d", code)
	}
	waitStatus(t, ts, gated.Job.ID, StatusRunning)

	keyToSeed := map[string]int64{}
	for _, seed := range []int64{121, 122, 123, 124} {
		keyToSeed[simSeedKey(t, seed)] = seed
		if code, _ := postJob(t, ts, simSeedBody(seed)); code != http.StatusAccepted {
			t.Fatalf("seed %d: status %d", seed, code)
		}
	}
	rec.release()
	assertDispatchOrder(t, rec, keyToSeed, []int64{121, 122, 123, 124})
}

// TestTenantDepthCap fills one tenant's queue-depth cap and asserts the
// differentiated 429 — tenant-scoped body, X-Neofog-Tenant header,
// Retry-After hint — while other tenants keep submitting freely.
func TestTenantDepthCap(t *testing.T) {
	rec := newDispatchRecorder(simSeedKey(t, 130))
	defer rec.release()
	_, ts := newTestServer(t, Config{
		Workers:  1,
		Tenants:  []qos.TenantConfig{{Name: "capped", Depth: 2}},
		ExecHook: rec.hook,
	})

	code, gated := postJob(t, ts, simSeedBody(130))
	if code != http.StatusAccepted {
		t.Fatalf("gate submit: status %d", code)
	}
	waitStatus(t, ts, gated.Job.ID, StatusRunning)

	for _, seed := range []int64{131, 132} {
		if resp, body := postRaw(t, ts, "/v1/jobs?tenant=capped", simSeedBody(seed)); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("capped seed %d: status %d body %s", seed, resp.StatusCode, body)
		}
	}
	resp, body := postRaw(t, ts, "/v1/jobs?tenant=capped", simSeedBody(133))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-cap submit: status %d body %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get(TenantHeader); got != "capped" {
		t.Fatalf("rejection tenant header %q, want capped", got)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatalf("rejection carried no Retry-After")
	}
	if want := `tenant \"capped\" queue full (depth 2)`; !strings.Contains(string(body), want) {
		t.Fatalf("rejection body %s missing %q", body, want)
	}
	// The shared queue has plenty of room: other tenants are unaffected.
	if resp, body := postRaw(t, ts, "/v1/jobs", simSeedBody(134)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("default tenant caught in capped's rejection: status %d body %s", resp.StatusCode, body)
	}
}

// TestCancelFreesQueueSlot cancels queued jobs and requires their slots
// back at once, before any worker pops them: in the shared queue (two
// cancelled jobs of a full QueueDepth 2 leave room for the next submit,
// and /healthz counts only it) and in a tenant's depth cap.
func TestCancelFreesQueueSlot(t *testing.T) {
	cancel := func(t *testing.T, ts *httptest.Server, id string) {
		t.Helper()
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("DELETE %s: %v", id, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("DELETE %s: status %d", id, resp.StatusCode)
		}
	}
	t.Run("queue", func(t *testing.T) {
		_, ts, release := gateServer(t, Config{Workers: 1, QueueDepth: 2})
		defer release()
		_, parked := postJob(t, ts, simSeedBody(150))
		waitStatus(t, ts, parked.Job.ID, StatusRunning)
		for _, seed := range []int64{151, 152} {
			code, sub := postJob(t, ts, simSeedBody(seed))
			if code != http.StatusAccepted {
				t.Fatalf("seed %d: status %d", seed, code)
			}
			cancel(t, ts, sub.Job.ID)
		}
		if resp, body := postRaw(t, ts, "/v1/jobs", simSeedBody(153)); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit after two cancels: status %d body %s", resp.StatusCode, body)
		}
		code, raw := getBody(t, ts, "/healthz")
		var h healthBody
		if err := json.Unmarshal(raw, &h); code != http.StatusOK || err != nil {
			t.Fatalf("healthz: status %d, %v", code, err)
		}
		if h.Queue.Depth != 1 || h.Queue.Capacity != 2 {
			t.Fatalf("queue depth %d of %d, want 1 of 2", h.Queue.Depth, h.Queue.Capacity)
		}
	})
	t.Run("tenant", func(t *testing.T) {
		_, ts, release := gateServer(t, Config{Workers: 1, Tenants: []qos.TenantConfig{{Name: "capped", Depth: 1}}})
		defer release()
		_, parked := postJob(t, ts, simSeedBody(160))
		waitStatus(t, ts, parked.Job.ID, StatusRunning)
		resp, body := postRaw(t, ts, "/v1/jobs?tenant=capped", simSeedBody(161))
		var sub SubmitResponse
		if err := json.Unmarshal(body, &sub); resp.StatusCode != http.StatusAccepted || err != nil {
			t.Fatalf("capped submit: status %d body %s", resp.StatusCode, body)
		}
		cancel(t, ts, sub.Job.ID)
		if resp, body := postRaw(t, ts, "/v1/jobs?tenant=capped", simSeedBody(162)); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("capped submit after cancel: status %d body %s", resp.StatusCode, body)
		}
	})
}

// TestTenantRateLimit drains one tenant's token bucket on the fixed
// clock and asserts the rate-scoped 429 with an exact per-tenant
// Retry-After — while dedup hits bypass the bucket entirely (attaching
// to an in-flight job costs no queue slot).
func TestTenantRateLimit(t *testing.T) {
	rec := newDispatchRecorder(simSeedKey(t, 140))
	defer rec.release()
	_, ts := newTestServer(t, Config{
		Workers:  1,
		Tenants:  []qos.TenantConfig{{Name: "metered", Rate: 1}},
		ExecHook: rec.hook,
	})

	code, gated := postJob(t, ts, simSeedBody(140))
	if code != http.StatusAccepted {
		t.Fatalf("gate submit: status %d", code)
	}
	waitStatus(t, ts, gated.Job.ID, StatusRunning)

	if resp, body := postRaw(t, ts, "/v1/jobs?tenant=metered", simSeedBody(141)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("burst submit: status %d body %s", resp.StatusCode, body)
	}
	resp, body := postRaw(t, ts, "/v1/jobs?tenant=metered", simSeedBody(142))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-rate submit: status %d body %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get(TenantHeader); got != "metered" {
		t.Fatalf("rejection tenant header %q, want metered", got)
	}
	// One token at 1/s on a frozen clock refills in exactly one second.
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After %q, want 1", got)
	}
	if want := `tenant \"metered\" rate limited: retry after 1s`; !strings.Contains(string(body), want) {
		t.Fatalf("rejection body %s missing %q", body, want)
	}
	// Resubmitting the in-flight job is a dedup hit: no queue slot, no
	// token — rate limiting must never block reads of work already paid
	// for.
	resp, raw := postRaw(t, ts, "/v1/jobs?tenant=metered", simSeedBody(141))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("dedup resubmit: status %d body %s", resp.StatusCode, raw)
	}
	var sub SubmitResponse
	if err := json.Unmarshal(raw, &sub); err != nil || !sub.Deduped {
		t.Fatalf("dedup resubmit not deduped: %s (err %v)", raw, err)
	}
	// The default tenant has no bucket and never rate-rejects.
	if resp, body := postRaw(t, ts, "/v1/jobs", simSeedBody(143)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("default tenant rate-limited: status %d body %s", resp.StatusCode, body)
	}
}

// TestQueueFullSpendsNoRateToken pins the admission check order: the
// global queue-full rejection fires before the tenant rate bucket is
// touched, so a tenant polling a full shared queue (as the matrix retry
// loop does every 100ms) never drains its own bucket while waiting.
// With the checks reversed, each rejection below would burn the
// tenant's single burst token on the frozen clock and the post-drain
// submission would bounce with a rate 429 it never earned.
func TestQueueFullSpendsNoRateToken(t *testing.T) {
	rec := newDispatchRecorder(simSeedKey(t, 160))
	defer rec.release()
	_, ts := newTestServer(t, Config{
		Workers:    1,
		QueueDepth: 2,
		Tenants:    []qos.TenantConfig{{Name: "metered", Rate: 1}},
		ExecHook:   rec.hook,
	})

	code, gated := postJob(t, ts, simSeedBody(160))
	if code != http.StatusAccepted {
		t.Fatalf("gate submit: status %d", code)
	}
	waitStatus(t, ts, gated.Job.ID, StatusRunning)

	// Fill the shared queue with default-tenant work.
	var queued []string
	for _, seed := range []int64{161, 162} {
		code, sub := postJob(t, ts, simSeedBody(seed))
		if code != http.StatusAccepted {
			t.Fatalf("backlog seed %d: status %d", seed, code)
		}
		queued = append(queued, sub.Job.ID)
	}

	// Poll the full queue as the metered tenant: every rejection must be
	// the global queue-full one, reached without touching the bucket.
	for i := 0; i < 3; i++ {
		resp, body := postRaw(t, ts, "/v1/jobs?tenant=metered", simSeedBody(163))
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("poll %d: status %d body %s", i, resp.StatusCode, body)
		}
		if want := fmt.Sprintf("queue full (depth %d)", 2); !strings.Contains(string(body), want) {
			t.Fatalf("poll %d body %s, want global %q rejection", i, body, want)
		}
	}

	// Drain the queue; the metered tenant's burst token must be intact.
	rec.release()
	for _, id := range queued {
		waitStatus(t, ts, id, StatusDone)
	}
	if resp, body := postRaw(t, ts, "/v1/jobs?tenant=metered", simSeedBody(163)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("post-drain submit: status %d body %s — queue-full polling burned a rate token", resp.StatusCode, body)
	}
}

// TestTenantDepthRetryAfterScoped asserts a depth rejection's
// Retry-After estimates the drain of the tenant's own subqueue, not the
// whole shared queue: with one worker, a 10s prior, one job queued for
// the capped tenant and five for an unrelated one, the hint must be
// (1 + 1/1) × 10s = 20s — not the global (1 + 6/1) × 10s = 70s.
func TestTenantDepthRetryAfterScoped(t *testing.T) {
	rec := newDispatchRecorder(simSeedKey(t, 170))
	defer rec.release()
	_, ts := newTestServer(t, Config{
		Workers:           1,
		AssumedJobSeconds: 10,
		Tenants:           []qos.TenantConfig{{Name: "capped", Depth: 1}},
		ExecHook:          rec.hook,
	})

	code, gated := postJob(t, ts, simSeedBody(170))
	if code != http.StatusAccepted {
		t.Fatalf("gate submit: status %d", code)
	}
	waitStatus(t, ts, gated.Job.ID, StatusRunning)

	// A busy unrelated tenant must not inflate capped's hint.
	for _, seed := range []int64{171, 172, 173, 174, 175} {
		if code, _ := postJob(t, ts, simSeedBody(seed)); code != http.StatusAccepted {
			t.Fatalf("default backlog seed %d: status %d", seed, code)
		}
	}
	if resp, body := postRaw(t, ts, "/v1/jobs?tenant=capped", simSeedBody(176)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("capped submit: status %d body %s", resp.StatusCode, body)
	}

	resp, body := postRaw(t, ts, "/v1/jobs?tenant=capped", simSeedBody(177))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-cap submit: status %d body %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), `tenant \"capped\" queue full`) {
		t.Fatalf("rejection body %s is not a depth rejection", body)
	}
	if got := resp.Header.Get("Retry-After"); got != "20" {
		t.Fatalf("depth Retry-After %q, want tenant-scoped 20", got)
	}
}

// TestColdStartAdmissionPrior is the satellite guard for deadline
// admission on a cold server: before any job has finished, the
// configured -assumed-job-seconds prior stands in for the (absent) mean
// latency, so an obviously doomed deadline is rejected instead of
// admitted on a zero guess. The default prior (0) keeps the historical
// admit-everything-cold behavior.
func TestColdStartAdmissionPrior(t *testing.T) {
	setup := func(prior float64) (*httptest.Server, *dispatchRecorder) {
		rec := newDispatchRecorder(simSeedKey(t, 150))
		_, ts := newTestServer(t, Config{Workers: 1, AssumedJobSeconds: prior, ExecHook: rec.hook})
		// Registered after newTestServer so the LIFO cleanup order opens
		// the gate before the drain waits on the parked worker.
		t.Cleanup(rec.release)
		code, gated := postJob(t, ts, simSeedBody(150))
		if code != http.StatusAccepted {
			t.Fatalf("gate submit: status %d", code)
		}
		waitStatus(t, ts, gated.Job.ID, StatusRunning)
		if code, _ := postJob(t, ts, simSeedBody(151)); code != http.StatusAccepted {
			t.Fatalf("backlog submit: status %d", code)
		}
		return ts, rec
	}

	// With a 10s prior, one job running and one queued, the predicted
	// wait is (1 + 1/1) × 10s = 20s — a 5s deadline is hopeless and the
	// cold server must say so.
	ts, _ := setup(10)
	resp, body := postRaw(t, ts, "/v1/jobs?deadline=5s", simSeedBody(152))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("cold deadline submit with prior: status %d body %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "predicted queue wait") {
		t.Fatalf("rejection body %s is not a deadline rejection", body)
	}

	// Default prior: no latency signal means no rejection, as before.
	ts, _ = setup(0)
	if resp, body := postRaw(t, ts, "/v1/jobs?deadline=5s", simSeedBody(152)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cold deadline submit without prior: status %d body %s", resp.StatusCode, body)
	}
}

// TestMatrixDisconnectReleasesWorkers mirrors the SSE disconnect test
// for the matrix endpoint: a client that vanishes mid-stream must not
// leak the fan-out machinery (feeder, runners, tally goroutines) —
// while the in-flight cells keep running server-side and their results
// stay addressable by key.
func TestMatrixDisconnectReleasesWorkers(t *testing.T) {
	srv, ts, release := gateServer(t, Config{Workers: 2})
	defer release()

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	matrix := `{"systems":["neofog"],"weathers":["sunny"],"intensities":[0,60,120],"nodes":3,"rounds":10,"seed":9,"parallel":2}`
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/experiments/matrix", strings.NewReader(matrix))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Read the header line so the stream is live, then wait until both
	// workers hold gated cells — the disconnect lands mid-batch, between
	// cell completions.
	br := bufio.NewReader(resp.Body)
	if _, err := br.ReadString('\n'); err != nil {
		t.Fatalf("read matrix header: %v", err)
	}
	waitFor(t, "cells running", func() bool {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return srv.running == 2
	})

	cancel()
	resp.Body.Close()

	// The whole fan-out — runner pool, feeder, tally — must unwind even
	// though the gated cells are still executing.
	waitFor(t, "matrix goroutines released", func() bool { return runtime.NumGoroutine() <= before })

	// The abandoned cells are unharmed: they finish and their results
	// stay addressable.
	release()
	waitFor(t, "gated cells finished", func() bool {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		done := 0
		for _, j := range srv.table {
			if j.status == StatusDone {
				done++
			}
		}
		return done >= 2
	})
}
