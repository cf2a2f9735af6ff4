package serve_test

// The serve-layer chaos harness: one deterministic-seeded campaign that
// interleaves every injected failure the containment layer handles —
// disk I/O errors (breaker trip, degrade, recover), per-job panics
// (quarantine), slow workers, a kill-and-warm-restart, concurrent
// retrying clients, and an SSE client disconnect — and asserts the
// service's one invariant: every accepted job eventually yields a
// byte-identical result (vs. direct neofog.Simulate) or a clean typed
// error. Never a hang (everything is deadline-bounded), never a corrupt
// body, and the daemon never dies (a test failure would be the death).
//
// This lives in package serve_test because it drives the server through
// internal/serve/client, which imports serve.

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"neofog"
	"neofog/internal/serve"
	"neofog/internal/serve/client"
)

const chaosSeed = 1337

// chaosConfig is one simulation the campaign submits, with its expected
// result bytes computed up front by the facade directly.
type chaosConfig struct {
	body     serve.Request
	expected []byte
	key      string
}

func chaosConfigs(t *testing.T, n int) []chaosConfig {
	t.Helper()
	out := make([]chaosConfig, 0, n)
	for i := 0; i < n; i++ {
		cfg := neofog.SimulationConfig{Nodes: 4, Rounds: 30, Seed: int64(100 + i)}
		res, err := neofog.Simulate(cfg)
		if err != nil {
			t.Fatalf("direct Simulate(%d): %v", i, err)
		}
		expected, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		c := cfg
		out = append(out, chaosConfig{body: serve.Request{Config: &c}, expected: expected})
	}
	return out
}

// chaosRig is the server under test plus the knobs the campaign turns.
type chaosRig struct {
	t       *testing.T
	ffs     *serve.FaultFS
	dir     string
	cfg     serve.Config
	handler atomic.Value // http.Handler — swapped on "restart"
	ts      *httptest.Server
	srv     *serve.Server
}

func newChaosRig(t *testing.T) *chaosRig {
	t.Helper()
	r := &chaosRig{
		t:   t,
		ffs: serve.NewFaultFS(serve.OSFS(), chaosSeed),
		dir: t.TempDir(),
	}
	r.cfg = serve.Config{
		Workers:          3,
		QueueDepth:       64,
		CacheDir:         r.dir,
		FS:               r.ffs,
		PoisonRetries:    2,
		PoisonTTL:        time.Minute,
		BreakerThreshold: 2,
		BreakerProbe:     50 * time.Millisecond,
	}
	r.boot()
	// The frontend delegates through the swappable handler, so clients
	// keep one BaseURL across server "restarts".
	r.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		r.handler.Load().(http.Handler).ServeHTTP(w, req)
	}))
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		r.srv.Drain(ctx)
		r.ts.Close()
	})
	return r
}

func (r *chaosRig) boot() {
	srv, err := serve.New(r.cfg)
	if err != nil {
		r.t.Fatalf("New: %v", err)
	}
	r.srv = srv
	r.handler.Store(srv.Handler())
}

// kill drains the current server with an already-cancelled context —
// in-flight jobs are cancelled, like a SIGKILL'd process's would simply
// vanish — then warm-boots a replacement on the same cache dir.
func (r *chaosRig) kill(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r.srv.Drain(ctx) // error expected: the context is dead
	r.boot()
}

func (r *chaosRig) client() *client.Client {
	return &client.Client{
		BaseURL:      r.ts.URL,
		MaxAttempts:  8,
		BaseDelay:    5 * time.Millisecond,
		MaxDelay:     100 * time.Millisecond,
		PollInterval: 3 * time.Millisecond,
		Seed:         chaosSeed,
	}
}

// runExpect drives one config through client.Run and asserts the bytes.
func (r *chaosRig) runExpect(ctx context.Context, t *testing.T, c *client.Client, cc chaosConfig) {
	t.Helper()
	body, err := c.Run(ctx, cc.body)
	if err != nil {
		t.Fatalf("Run(seed %d): %v", cc.body.Config.Seed, err)
	}
	if string(body) != string(cc.expected) {
		t.Fatalf("Run(seed %d): body differs from direct Simulate\n got: %.80s\nwant: %.80s",
			cc.body.Config.Seed, body, cc.expected)
	}
}

func TestChaosCampaign(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel() // the no-hang bound: nothing below may outlive this

	rig := newChaosRig(t)
	configs := chaosConfigs(t, 8)

	// --- Phase 1: healthy baseline -------------------------------------
	c := rig.client()
	for _, cc := range configs[:2] {
		rig.runExpect(ctx, t, c, cc)
	}

	// --- Phase 2: total disk outage ------------------------------------
	// Every filesystem op fails. Jobs still complete and serve the exact
	// bytes; the breaker trips and the tier degrades instead of erroring.
	rig.ffs.SetFailProb(1.0)
	for _, cc := range configs[2:4] {
		rig.runExpect(ctx, t, c, cc)
	}
	if got := serve.CounterForTest(rig.srv, "breaker_trips_total"); got < 1 {
		t.Fatalf("breaker_trips_total = %d after disk outage, want ≥ 1", got)
	}
	if got := serve.DiskStateForTest(rig.srv); got != "degraded" {
		t.Fatalf("disk state %q during outage, want degraded", got)
	}

	// --- Phase 3: disk heals; breaker auto-recovers --------------------
	rig.ffs.SetFailProb(0)
	time.Sleep(2 * rig.cfg.BreakerProbe) // let the open window lapse
	rig.runExpect(ctx, t, c, configs[4])
	waitForCond(t, "breaker recovery", func() bool {
		return serve.CounterForTest(rig.srv, "breaker_recoveries_total") >= 1 &&
			serve.DiskStateForTest(rig.srv) == "ok"
	})

	// --- Phase 4: panics and quarantine --------------------------------
	// One config panics exactly once then heals (flaky); one panics
	// forever (poison pill). Workers survive both.
	flaky, pill := configs[5], configs[6]
	flakyKey := mustChaosKey(t, flaky.body)
	pillKey := mustChaosKey(t, pill.body)
	var flakyPanics atomic.Int64
	serve.SetExecHookForTest(rig.srv, func(key string) {
		switch key {
		case flakyKey:
			if flakyPanics.Add(1) == 1 {
				panic("chaos: flaky config first-run panic")
			}
		case pillKey:
			panic("chaos: poison pill")
		}
	})

	// Flaky: first Run ends in a poisoned JobError; the retry (below the
	// quarantine cap) is accepted and completes byte-identically.
	_, err := c.Run(ctx, flaky.body)
	var je *client.JobError
	if !errors.As(err, &je) || je.Job.Status != serve.StatusPoisoned {
		t.Fatalf("flaky first run: want poisoned JobError, got %v", err)
	}
	rig.runExpect(ctx, t, c, flaky)

	// Pill: runs panic until the cap (2), then submissions are rejected
	// with 422 — a clean typed error either way, never a crash.
	for i := 0; ; i++ {
		_, err := c.Run(ctx, pill.body)
		if err == nil {
			t.Fatal("poison pill run succeeded; the hook should panic every time")
		}
		var ae *client.APIError
		if errors.As(err, &ae) {
			if ae.Status != http.StatusUnprocessableEntity {
				t.Fatalf("poison pill rejection: %v, want 422", err)
			}
			break // quarantined at the cap: terminal, clean
		}
		if !errors.As(err, &je) || je.Job.Status != serve.StatusPoisoned {
			t.Fatalf("poison pill run %d: want poisoned JobError or 422, got %v", i, err)
		}
		if i > 4 {
			t.Fatalf("poison pill never reached the quarantine cap (last: %v)", err)
		}
	}
	if got := serve.CounterForTest(rig.srv, "jobs_poisoned_total"); got < 2 {
		t.Fatalf("jobs_poisoned_total = %d, want ≥ 2", got)
	}

	// --- Phase 5: slow workers, concurrent clients, SSE disconnect -----
	// Workers crawl; a swarm of retrying clients hammers a config mix
	// (cache hits, fresh runs, dedup) while an SSE subscriber vanishes
	// mid-stream and intermittent disk faults flicker.
	serve.SetExecHookForTest(rig.srv, func(key string) { time.Sleep(5 * time.Millisecond) })
	rig.ffs.SetFailProb(0.2)

	slowCC := configs[7]
	sseCtx, sseCancel := context.WithCancel(ctx)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer sseCancel() // disconnect mid-stream
		sr, err := rig.client().Submit(sseCtx, slowCC.body)
		if err != nil {
			return // a flickering submit is fine; the swarm covers this config too
		}
		req, err := http.NewRequestWithContext(sseCtx, http.MethodGet, rig.ts.URL+"/v1/jobs/"+sr.Job.ID+"/stream", nil)
		if err != nil {
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return
		}
		defer resp.Body.Close()
		bufio.NewReader(resp.Body).ReadString('\n') // the first event line, then hang up
	}()

	const swarm = 6
	errCh := make(chan error, swarm)
	for i := 0; i < swarm; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl := rig.client()
			cl.Seed = chaosSeed + int64(i) // distinct jitter streams
			for k := 0; k < 3; k++ {
				cc := configs[(i+k)%5] // the known-good, non-poisoned set
				body, err := cl.Run(ctx, cc.body)
				if err != nil {
					errCh <- fmt.Errorf("swarm %d run %d (seed %d): %w", i, k, cc.body.Config.Seed, err)
					return
				}
				if string(body) != string(cc.expected) {
					errCh <- fmt.Errorf("swarm %d run %d: bytes differ", i, k)
					return
				}
			}
			errCh <- nil
		}(i)
	}
	for i := 0; i < swarm; i++ {
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
	}
	sseCancel()
	wg.Wait()
	rig.ffs.SetFailProb(0)

	// --- Phase 6: kill and warm restart --------------------------------
	// The "process" dies mid-service (in-flight work cancelled, memory
	// state gone) and a replacement warm-boots from the same cache dir.
	// Persisted results come back cached and byte-identical; the rest
	// recompute — the client rides the 503/404/cancelled window.
	serve.SetExecHookForTest(rig.srv, nil)
	rig.kill(t)

	c2 := rig.client()
	for _, cc := range configs[:5] {
		rig.runExpect(ctx, t, c2, cc)
	}
	// At least part of the pre-kill working set must have survived as
	// disk-tier entries (served cached, not recomputed).
	if hits := serve.CounterForTest(rig.srv, "cache_hits_total"); hits < 1 {
		t.Fatalf("post-restart cache_hits_total = %d, want ≥ 1 (warm boot served nothing)", hits)
	}

	// --- Final audit ----------------------------------------------------
	// Every good config, one more pass: all byte-identical, no residue
	// from the campaign (poisoned keys stay quarantined, which is the
	// contract, so they are excluded).
	for _, cc := range configs[:5] {
		rig.runExpect(ctx, t, c2, cc)
	}
	if got := serve.DiskStateForTest(rig.srv); got != "ok" {
		t.Fatalf("final disk state %q, want ok", got)
	}
}

func mustChaosKey(t *testing.T, req serve.Request) string {
	t.Helper()
	// The canonical key is the job ID's source; recover it by submitting
	// through normalization: Job.Key on a snapshot. The cheapest path
	// out-of-package is a dry submit against a scratch server — but the
	// key is also deterministic, so derive it from a scratch marshal.
	srv, err := serve.New(serve.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Drain(ctx)
	}()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := &client.Client{BaseURL: ts.URL, MaxAttempts: 2}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	sr, err := c.Submit(ctx, req)
	if err != nil {
		t.Fatalf("key-probe submit: %v", err)
	}
	return sr.Job.Key
}

func waitForCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
