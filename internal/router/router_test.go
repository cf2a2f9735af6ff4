package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"neofog"
	"neofog/internal/serve"
	"neofog/internal/serve/client"
)

// fixedTime mirrors the serve tests' fake clock so routed and direct
// responses carry identical timestamps and can be compared byte for
// byte.
var fixedTime = time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)

// testCluster is N in-process shards behind one router, all on the
// fixed clock, with the background prober disabled — tests drive Probe
// explicitly so health transitions happen at deterministic points.
type testCluster struct {
	rt      *Router
	ts      *httptest.Server // the router's front door
	shardTS []*httptest.Server
	servers []*serve.Server
}

// startCluster boots the cluster. mkCfg, when non-nil, supplies each
// shard's serve.Config (the chaos tests hook shard execution); the
// clock is always forced to fixedTime.
func startCluster(t *testing.T, n int, mkCfg func(i int) serve.Config) *testCluster {
	t.Helper()
	c := &testCluster{}
	var shards []Shard
	for i := 0; i < n; i++ {
		cfg := serve.Config{Workers: 2}
		if mkCfg != nil {
			cfg = mkCfg(i)
		}
		cfg.Clock = func() time.Time { return fixedTime }
		srv, err := serve.New(cfg)
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		ts := httptest.NewServer(srv.Handler())
		c.servers = append(c.servers, srv)
		c.shardTS = append(c.shardTS, ts)
		shards = append(shards, Shard{Name: fmt.Sprintf("shard-%d", i), URL: ts.URL})
	}
	rt, err := New(Config{
		Shards:        shards,
		ProbeInterval: -1,
		Clock:         func() time.Time { return fixedTime },
	})
	if err != nil {
		t.Fatalf("router.New: %v", err)
	}
	c.rt = rt
	c.ts = httptest.NewServer(rt.Handler())
	t.Cleanup(func() {
		c.ts.Close()
		rt.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		for i, srv := range c.servers {
			srv.Drain(ctx) // error ignored; chaos tests kill shards mid-test
			c.shardTS[i].Close()
		}
	})
	return c
}

// post submits a raw body and returns the response whole (caller closes
// nothing; the body is drained here).
func post(t *testing.T, baseURL, body string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Post(baseURL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read submit response: %v", err)
	}
	return resp.StatusCode, resp.Header, b
}

func get(t *testing.T, baseURL, path string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Get(baseURL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return resp.StatusCode, resp.Header, b
}

// waitDone polls a job through the given base URL until done.
func waitDone(t *testing.T, baseURL, id string) []byte {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		code, _, body := get(t, baseURL, "/v1/jobs/"+id)
		if code == http.StatusOK {
			var j serve.Job
			if err := json.Unmarshal(body, &j); err != nil {
				t.Fatalf("decode job: %v", err)
			}
			switch j.Status {
			case serve.StatusDone:
				return body
			case serve.StatusFailed, serve.StatusCancelled, serve.StatusPoisoned:
				t.Fatalf("job %s reached %q: %s", id, j.Status, j.Error)
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never finished", id)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func simBody(seed int64) string {
	return fmt.Sprintf(`{"config":{"nodes":4,"rounds":20,"seed":%d}}`, seed)
}

// ownerShard computes, from first principles, which shard a request
// body must land on: normalize exactly like a shard, reduce to the
// routing key, walk the ring.
func ownerShard(t *testing.T, c *testCluster, body string) string {
	t.Helper()
	var req serve.Request
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatalf("decode %q: %v", body, err)
	}
	_, key, err := serve.Normalize(req)
	if err != nil {
		t.Fatalf("normalize: %v", err)
	}
	return c.rt.cfg.Shards[c.rt.ring.owner(routingKey(key))].Name
}

// TestRoutedHitMemo checks what the router's memo keeps: a body once a
// shard answered it 200 from its cache, with its key and no request,
// never one that started a run or was refused. A remembered body routes
// to the shard that holds its job, and a whitespace variant of it is
// decoded at its first sighting and lands on the same job.
func TestRoutedHitMemo(t *testing.T) {
	c := startCluster(t, 3, nil)
	var key string
	remembered := func(body string) bool {
		req, k, ok := c.rt.memo.Lookup([]byte(body))
		if ok && (k != key || !reflect.DeepEqual(req, serve.Request{})) {
			t.Fatalf("%q remembered as key %s, request %+v; want key %s alone", body, k, req, key)
		}
		return ok
	}
	body := simBody(23)
	code, h, raw := post(t, c.ts.URL, body)
	if code != http.StatusAccepted || remembered(body) {
		t.Fatalf("new run: status %d, remembered %v", code, remembered(body))
	}
	owner := h.Get(shardHeader)
	var sub serve.SubmitResponse
	if err := json.Unmarshal(raw, &sub); err != nil {
		t.Fatal(err)
	}
	waitDone(t, c.ts.URL, sub.Job.ID)
	key = sub.Job.Key
	variant := "\n" + strings.ReplaceAll(body, ":", ": ") + " "
	for i, b := range []string{body, body, variant, variant} {
		code, h, raw := post(t, c.ts.URL, b)
		var hit serve.SubmitResponse
		if code != http.StatusOK || json.Unmarshal(raw, &hit) != nil || !hit.Cached || hit.Job.ID != sub.Job.ID {
			t.Fatalf("hit %d on %q: status %d: %s", i, b, code, raw)
		}
		if h.Get(shardHeader) != owner || !remembered(b) {
			t.Fatalf("hit %d on %q: shard %s (want %s), remembered %v", i, b, h.Get(shardHeader), owner, remembered(b))
		}
	}
	for _, bad := range []string{`{"config":{"nodez":4}}`, `not json`, body + " x"} {
		for i := 0; i < 2; i++ {
			if code, _, _ := post(t, c.ts.URL, bad); code != http.StatusBadRequest || remembered(bad) {
				t.Fatalf("%s: status %d, remembered %v", bad, code, remembered(bad))
			}
		}
	}
}

// TestRouterKeyAffinity is the affinity property test: every submission
// lands on the shard the ring predicts, a resubmission lands on the same
// shard and reuses the first run (deduped or cached — never a second
// cold compute elsewhere), and ID-addressed reads route to the
// submitting shard.
func TestRouterKeyAffinity(t *testing.T) {
	c := startCluster(t, 3, nil)
	shardsHit := map[string]bool{}
	for seed := int64(0); seed < 25; seed++ {
		body := simBody(seed)
		want := ownerShard(t, c, body)

		code, hdr, raw := post(t, c.ts.URL, body)
		if code != http.StatusOK && code != http.StatusAccepted {
			t.Fatalf("seed %d: submit status %d: %s", seed, code, raw)
		}
		if got := hdr.Get(shardHeader); got != want {
			t.Fatalf("seed %d: routed to %q, ring owner is %q", seed, got, want)
		}
		shardsHit[hdr.Get(shardHeader)] = true

		var sub serve.SubmitResponse
		if err := json.Unmarshal(raw, &sub); err != nil {
			t.Fatalf("decode submit: %v", err)
		}

		code2, hdr2, raw2 := post(t, c.ts.URL, body)
		if code2 != http.StatusOK && code2 != http.StatusAccepted {
			t.Fatalf("seed %d: resubmit status %d: %s", seed, code2, raw2)
		}
		if got := hdr2.Get(shardHeader); got != want {
			t.Fatalf("seed %d: resubmission routed to %q, first went to %q", seed, got, want)
		}
		var sub2 serve.SubmitResponse
		if err := json.Unmarshal(raw2, &sub2); err != nil {
			t.Fatalf("decode resubmit: %v", err)
		}
		if !sub2.Cached && !sub2.Deduped {
			t.Fatalf("seed %d: resubmission neither cached nor deduped — affinity lost", seed)
		}

		if _, hdr3, _ := get(t, c.ts.URL, "/v1/jobs/"+sub.Job.ID); hdr3.Get(shardHeader) != want {
			t.Fatalf("seed %d: ID read routed to %q, submission went to %q", seed, hdr3.Get(shardHeader), want)
		}
	}
	// Sanity: with 25 distinct configs the ring should actually spread
	// load — a constant hash would pass every check above.
	if len(shardsHit) < 2 {
		t.Fatalf("all 25 configs landed on one shard: %v", shardsHit)
	}
}

// TestRouterRetryNextReplica kills a submission's owner shard and
// requires the router to land the idempotent submission on the next
// replica instead of surfacing the failure.
func TestRouterRetryNextReplica(t *testing.T) {
	c := startCluster(t, 3, nil)
	body := simBody(99)
	owner := ownerShard(t, c, body)
	for i, s := range c.rt.cfg.Shards {
		if s.Name == owner {
			c.shardTS[i].Close()
		}
	}

	code, hdr, raw := post(t, c.ts.URL, body)
	if code != http.StatusOK && code != http.StatusAccepted {
		t.Fatalf("submit with dead owner: status %d body %s", code, raw)
	}
	got := hdr.Get(shardHeader)
	if got == owner || got == "" {
		t.Fatalf("submission served by %q, want a surviving replica (owner %q is dead)", got, owner)
	}
	var sub serve.SubmitResponse
	if err := json.Unmarshal(raw, &sub); err != nil {
		t.Fatalf("decode submit: %v", err)
	}
	if sub.Job.ID == "" {
		t.Fatalf("no job ID from the surviving replica")
	}
	var own strings.Builder
	c.rt.metrics.reg.WritePrometheus(&own)
	if strings.Contains(own.String(), "\nneofog_router_retries_total 0\n") {
		t.Fatalf("retries_total = 0; the router did not record the failover")
	}
}

// TestRoutedMatchesDirect is the byte-equality battery: for the same
// request sequence on the same fake clock, the routed cluster's response
// bodies must equal a single daemon's exactly — submit, job, result,
// experiment list, and malformed-submission rejections.
func TestRoutedMatchesDirect(t *testing.T) {
	direct, err := serve.New(serve.Config{Workers: 2, Clock: func() time.Time { return fixedTime }})
	if err != nil {
		t.Fatalf("direct serve.New: %v", err)
	}
	dts := httptest.NewServer(direct.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		direct.Drain(ctx)
		dts.Close()
	})
	c := startCluster(t, 3, nil)

	check := func(name string, dCode, rCode int, dBody, rBody []byte) {
		t.Helper()
		if dCode != rCode {
			t.Fatalf("%s: direct status %d, routed %d", name, dCode, rCode)
		}
		if !bytes.Equal(dBody, rBody) {
			t.Fatalf("%s: bodies differ\ndirect: %s\nrouted: %s", name, dBody, rBody)
		}
	}

	body := simBody(11)
	dCode, _, dRaw := post(t, dts.URL, body)
	rCode, _, rRaw := post(t, c.ts.URL, body)
	check("submit", dCode, rCode, dRaw, rRaw)

	var sub serve.SubmitResponse
	if err := json.Unmarshal(dRaw, &sub); err != nil {
		t.Fatalf("decode submit: %v", err)
	}
	dJob := waitDone(t, dts.URL, sub.Job.ID)
	rJob := waitDone(t, c.ts.URL, sub.Job.ID)
	if !bytes.Equal(dJob, rJob) {
		t.Fatalf("done job snapshots differ\ndirect: %s\nrouted: %s", dJob, rJob)
	}

	dCode, _, dRes := get(t, dts.URL, "/v1/jobs/"+sub.Job.ID+"/result")
	rCode, _, rRes := get(t, c.ts.URL, "/v1/jobs/"+sub.Job.ID+"/result")
	check("result", dCode, rCode, dRes, rRes)

	dCode, _, dExp := get(t, dts.URL, "/v1/experiments")
	rCode, _, rExp := get(t, c.ts.URL, "/v1/experiments")
	check("experiments", dCode, rCode, dExp, rExp)

	// A request the shards reject must come back as a 400 with the
	// daemon's own rejection body, not a router-invented one. That holds
	// for what only the strict decode refuses too: unknown keys, the Go
	// names of multi-word keys, observer fields and trailing bytes. A
	// submission with trailing bytes once got a 202 from a shard while
	// the router routed it apart from its job, so polling it through the
	// router answered 404.
	for _, bad := range []string{
		`{"kind":"bogus"}`,
		`{"kind":"simulate","experiment":"x"}`,
		`not json at all`,
		`{"config":{"nodez":4}}`,
		`{"config":{"SlotSeconds":8}}`,
		`{"config":{"SolarPeakMilliwatts":1.2}}`,
		`{"config":{"FogInstsPerByte":800}}`,
		`{"config":{"WakeupRadio":true}}`,
		`{"config":{"Journal":null}}`,
		`{"config":{}} x`,
		`{"config":{"Nodes":4,"Rounds":5}} x`,
		`{"kind":"fleet","chains":1000000000,"config":{}}`,
		`{"experiment":"fig10","options":{"nodes":10000000}}`,
		`{"experiment":"chaos","options":{"fault_intensities":[0` + strings.Repeat(",1", 101) + `]}}`,
	} {
		dCode, _, dRaw := post(t, dts.URL, bad)
		rCode, _, rRaw := post(t, c.ts.URL, bad)
		check("reject "+bad, dCode, rCode, dRaw, rRaw)
		if dCode != http.StatusBadRequest {
			t.Fatalf("reject %s: status %d, want 400", bad, dCode)
		}
	}
	postMatrix := func(baseURL, body string) (int, []byte) {
		resp, err := http.Post(baseURL+"/v1/experiments/matrix", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST matrix: %v", err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("read matrix response: %v", err)
		}
		return resp.StatusCode, raw
	}
	trailing := `{"systems":["neofog"],"weathers":["sunny"],"intensities":[0],"nodes":3,"rounds":5} x`
	dCode, dRaw = postMatrix(dts.URL, trailing)
	rCode, rRaw = postMatrix(c.ts.URL, trailing)
	check("reject matrix "+trailing, dCode, rCode, dRaw, rRaw)
	if dCode != http.StatusBadRequest {
		t.Fatalf("reject matrix %s: status %d, want 400", trailing, dCode)
	}

	// A body over the 1 MiB limit answers the same 400 direct and routed,
	// whether the JSON value itself runs past the limit or a valid value
	// is followed by more than 1 MiB of whitespace. A shard once answered
	// the second shape "unexpected data after the JSON value", because
	// its decoder met the size error where it looked for the end. Sent as
	// text/plain, either shape gets the shard's 415 both ways: the router
	// once read the body first and answered 400.
	long := strings.Repeat("x", 1<<20)
	pad := strings.Repeat(" ", 1<<20)
	matrix := `{"systems":["neofog"],"weathers":["sunny"],"intensities":[0],"nodes":3,"rounds":5`
	tooLarge := `{"error":"bad request body: http: request body too large"}`
	for _, o := range []struct{ name, path, body string }{
		{"job value", "/v1/jobs", `{"config":{"nodes":4,"rounds":5},"experiment":"` + long + `"}`},
		{"job whitespace", "/v1/jobs", `{"config":{"nodes":4,"rounds":5}}` + pad},
		{"matrix value", "/v1/experiments/matrix", matrix + `,"systems":["` + long + `"]}`},
		{"matrix whitespace", "/v1/experiments/matrix", matrix + `}` + pad},
	} {
		for _, ct := range []string{"application/json", "text/plain"} {
			send := func(baseURL string) (int, []byte) {
				resp, err := http.Post(baseURL+o.path, ct, strings.NewReader(o.body))
				if err != nil {
					t.Fatalf("POST %s: %v", o.path, err)
				}
				defer resp.Body.Close()
				raw, err := io.ReadAll(resp.Body)
				if err != nil {
					t.Fatalf("read %s response: %v", o.path, err)
				}
				return resp.StatusCode, raw
			}
			name := "oversize " + o.name + " as " + ct
			dCode, dRaw := send(dts.URL)
			rCode, rRaw := send(c.ts.URL)
			check(name, dCode, rCode, dRaw, rRaw)
			wantCode, wantBody := http.StatusBadRequest, tooLarge
			if ct != "application/json" {
				wantCode, wantBody = http.StatusUnsupportedMediaType, `{"error":"unsupported Content-Type \"text/plain\" (want application/json)"}`
			}
			if dCode != wantCode || strings.TrimSpace(string(dRaw)) != wantBody {
				t.Fatalf("%s: status %d, body %s; want %d, %s", name, dCode, dRaw, wantCode, wantBody)
			}
		}
	}

	// Unknown job IDs 404 identically.
	dCode, _, dMiss := get(t, dts.URL, "/v1/jobs/j-0123456789abcdef")
	rCode, _, rMiss := get(t, c.ts.URL, "/v1/jobs/j-0123456789abcdef")
	check("missing job", dCode, rCode, dMiss, rMiss)
}

// TestChaosShardDeathConverges kills the shard that owns a job while the
// job is parked mid-execution there, and asserts a retrying client
// pointed at the router still converges: the poll hits the dead shard,
// falls through to the successor, the successor's 404 triggers an
// idempotent resubmission, and the result comes back — byte-identical to
// a direct single-daemon run.
func TestChaosShardDeathConverges(t *testing.T) {
	var victim atomic.Int32
	victim.Store(-1) // no shard parks until the victim is chosen
	var parkKey atomic.Value
	parkKey.Store("")
	parked := make(chan struct{})
	var parkOnce sync.Once
	gate := make(chan struct{})
	var released atomic.Bool
	release := func() {
		if released.CompareAndSwap(false, true) {
			close(gate)
		}
	}

	c := startCluster(t, 3, func(i int) serve.Config {
		return serve.Config{
			Workers: 2,
			ExecHook: func(key string) {
				if int32(i) == victim.Load() && key == parkKey.Load().(string) {
					parkOnce.Do(func() { close(parked) })
					<-gate
				}
			},
		}
	})
	t.Cleanup(release) // runs before the cluster cleanup, so drains cannot hang

	req := serve.Request{Config: &neofog.SimulationConfig{Nodes: 4, Rounds: 25, Seed: 99}}
	_, key, err := serve.Normalize(req)
	if err != nil {
		t.Fatalf("normalize: %v", err)
	}
	owner := c.rt.ring.owner(routingKey(key))
	victim.Store(int32(owner))
	parkKey.Store(key)

	cl := &client.Client{
		BaseURL:      c.ts.URL,
		MaxAttempts:  8,
		BaseDelay:    2 * time.Millisecond,
		MaxDelay:     20 * time.Millisecond,
		PollInterval: 2 * time.Millisecond,
		Seed:         1,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	type runResult struct {
		body []byte
		err  error
	}
	done := make(chan runResult, 1)
	go func() {
		body, err := cl.Run(ctx, req)
		done <- runResult{body, err}
	}()

	// Wait until the job is running (parked) on the victim shard, the
	// key's owner: only that shard's hook parks.
	select {
	case <-parked:
	case <-time.After(30 * time.Second):
		t.Fatal("job never started running on the victim shard")
	}

	// Kill the owner mid-job: sever live connections and stop listening.
	c.shardTS[owner].CloseClientConnections()
	c.shardTS[owner].Close()
	c.rt.Probe()
	if c.rt.healthy[owner].Load() {
		t.Fatal("probe left the dead shard marked healthy")
	}

	res := <-done
	if res.err != nil {
		t.Fatalf("client did not converge after shard death: %v", res.err)
	}
	if len(res.body) == 0 {
		t.Fatal("converged with an empty result")
	}

	// The survivor's answer must equal a fresh single daemon's.
	direct, err := serve.New(serve.Config{Workers: 2, Clock: func() time.Time { return fixedTime }})
	if err != nil {
		t.Fatalf("direct serve.New: %v", err)
	}
	dts := httptest.NewServer(direct.Handler())
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		direct.Drain(ctx)
		dts.Close()
	}()
	dcl := &client.Client{BaseURL: dts.URL, PollInterval: 2 * time.Millisecond, Seed: 1}
	want, err := dcl.Run(ctx, req)
	if err != nil {
		t.Fatalf("direct run: %v", err)
	}
	if !bytes.Equal(res.body, want) {
		t.Fatalf("post-failover result diverged from direct run\nrouted: %s\ndirect: %s", res.body, want)
	}

	// The job must now live on a surviving shard, not the corpse. A
	// resubmission names it, and its ID-addressed read must route there.
	reqBody, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	_, _, raw := post(t, c.ts.URL, string(reqBody))
	var sub serve.SubmitResponse
	if err := json.Unmarshal(raw, &sub); err != nil {
		t.Fatalf("decode resubmission: %v (%s)", err, raw)
	}
	_, hdr, _ := get(t, c.ts.URL, "/v1/jobs/"+sub.Job.ID)
	if got := hdr.Get(shardHeader); got == c.rt.cfg.Shards[owner].Name || got == "" {
		t.Fatalf("post-failover job read served by %q", got)
	}
}

// TestRouterHealthFanIn exercises /healthz, /readyz and shard recovery:
// a dead shard degrades the fan-in but not readiness; a revived shard
// rejoins after one probe.
func TestRouterHealthFanIn(t *testing.T) {
	c := startCluster(t, 3, nil)

	code, _, body := get(t, c.ts.URL, "/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz: %d %s", code, body)
	}
	var h struct {
		Status string `json:"status"`
		Shards []struct {
			Name      string `json:"name"`
			Healthy   bool   `json:"healthy"`
			Reachable bool   `json:"reachable"`
		} `json:"shards"`
	}
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatalf("decode healthz: %v", err)
	}
	if h.Status != "ok" || len(h.Shards) != 3 {
		t.Fatalf("healthz fan-in: %+v", h)
	}
	for _, s := range h.Shards {
		if !s.Healthy || !s.Reachable {
			t.Fatalf("shard %s not healthy/reachable in %+v", s.Name, h)
		}
	}

	// Kill shard 1; the router must stay ready and report the loss.
	c.shardTS[1].Close()
	c.rt.Probe()
	code, _, body = get(t, c.ts.URL, "/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz with one dead shard: %d %s", code, body)
	}
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatalf("decode healthz: %v", err)
	}
	if h.Shards[1].Healthy || h.Shards[1].Reachable {
		t.Fatalf("dead shard still reported healthy: %+v", h.Shards[1])
	}
	if code, _, _ := get(t, c.ts.URL, "/readyz"); code != http.StatusOK {
		t.Fatalf("readyz went %d with 2 of 3 shards alive", code)
	}

	// Revive it on the same handler; one probe sweep re-admits it.
	revived := httptest.NewServer(c.servers[1].Handler())
	t.Cleanup(revived.Close)
	c.rt.cfg.Shards[1].URL = revived.URL
	c.rt.Probe()
	if !c.rt.healthy[1].Load() {
		t.Fatal("revived shard not re-admitted after probe")
	}
}

// TestRouterMetricsAggregate drives traffic through the cluster and
// checks the /metrics fan-in: router-own series present, shard series
// summed across shards.
func TestRouterMetricsAggregate(t *testing.T) {
	c := startCluster(t, 3, nil)
	for seed := int64(0); seed < 6; seed++ {
		_, _, raw := post(t, c.ts.URL, simBody(seed))
		var sub serve.SubmitResponse
		if err := json.Unmarshal(raw, &sub); err != nil {
			t.Fatalf("decode submit: %v", err)
		}
		waitDone(t, c.ts.URL, sub.Job.ID)
	}
	code, _, body := get(t, c.ts.URL, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	text := string(body)
	for _, want := range []string{
		"neofog_router_requests_total ",
		"neofog_router_shards_scraped 3",
		"neofog_router_shard_healthy{shard=\"shard-0\"} 1",
		"neofog_router_request_seconds_count ",
		"neofog_serve_jobs_submitted_total 6",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	// The aggregated submitted counter must be the sum over shards.
	var perShard int
	for _, sts := range c.shardTS {
		_, _, sb := get(t, sts.URL, "/metrics")
		for _, line := range strings.Split(string(sb), "\n") {
			if strings.HasPrefix(line, "neofog_serve_jobs_submitted_total ") {
				var v int
				fmt.Sscanf(line, "neofog_serve_jobs_submitted_total %d", &v)
				perShard += v
			}
		}
	}
	if perShard != 6 {
		t.Fatalf("shards saw %d submissions in total, want 6", perShard)
	}
}
