package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"neofog"
)

// fixedTime is the fake clock used throughout the tests: every timestamp
// and latency the server records becomes deterministic.
var fixedTime = time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)

// newTestServer builds a Server plus an httptest frontend and arranges a
// clean drain at test end.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Clock == nil {
		cfg.Clock = func() time.Time { return fixedTime }
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Drain(ctx) // error ignored: the drain tests drain first themselves
		ts.Close()
	})
	return srv, ts
}

// gateServer is newTestServer plus a gate that parks every worker right
// after its job turns running, so tests can hold the pool at a
// deterministic point. The returned release opens the gate (idempotent)
// and is also registered as a cleanup so a failing test cannot hang the
// drain.
func gateServer(t *testing.T, cfg Config) (*Server, *httptest.Server, func()) {
	t.Helper()
	srv, ts := newTestServer(t, cfg)
	gate := make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(gate) }) }
	t.Cleanup(release)
	srv.mu.Lock()
	srv.cfg.ExecHook = func(string) { <-gate }
	srv.mu.Unlock()
	return srv, ts, release
}

// doPost posts a raw JSON body to /v1/jobs and returns status plus body.
func doPost(ts *httptest.Server, body string) (int, []byte, error) {
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// postJob submits and decodes the SubmitResponse, failing the test on
// transport errors. Only call from the test goroutine.
func postJob(t *testing.T, ts *httptest.Server, body string) (int, SubmitResponse) {
	t.Helper()
	code, raw, err := doPost(ts, body)
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	var sub SubmitResponse
	if code == http.StatusOK || code == http.StatusAccepted {
		if err := json.Unmarshal(raw, &sub); err != nil {
			t.Fatalf("decode submit response %q: %v", raw, err)
		}
	}
	return code, sub
}

// getBody fetches a path and returns status plus body.
func getBody(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return resp.StatusCode, b
}

// waitStatus polls a job until it reaches want (or any terminal status,
// which fails the test if it is not the wanted one).
func waitStatus(t *testing.T, ts *httptest.Server, id, want string) Job {
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
		if j.Status == want {
			return j
		}
		if j.Status == StatusDone || j.Status == StatusFailed || j.Status == StatusCancelled {
			t.Fatalf("job %s reached terminal status %q (error %q) while waiting for %q", id, j.Status, j.Error, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q waiting for %q", id, j.Status, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

const smallSim = `{"config":{"nodes":4,"rounds":40,"seed":7}}`

// TestSubmitPollResult is the end-to-end happy path: submit → poll →
// fetch the result, and the served bytes must equal a direct facade call
// marshaled the same way, byte for byte.
func TestSubmitPollResult(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	code, sub := postJob(t, ts, smallSim)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d, want 202", code)
	}
	if sub.Cached || sub.Deduped {
		t.Fatalf("first submit reported cached=%v deduped=%v", sub.Cached, sub.Deduped)
	}
	if sub.Job.Status != StatusQueued {
		t.Fatalf("fresh job status %q, want queued", sub.Job.Status)
	}
	waitStatus(t, ts, sub.Job.ID, StatusDone)

	code, body := getBody(t, ts, "/v1/jobs/"+sub.Job.ID+"/result")
	if code != http.StatusOK {
		t.Fatalf("result: status %d body %s", code, body)
	}
	direct, err := neofog.Simulate(neofog.SimulationConfig{Nodes: 4, Rounds: 40, Seed: 7})
	if err != nil {
		t.Fatalf("direct Simulate: %v", err)
	}
	want, err := json.Marshal(direct)
	if err != nil {
		t.Fatalf("marshal direct result: %v", err)
	}
	if got := bytes.TrimSuffix(body, []byte("\n")); !bytes.Equal(got, want) {
		t.Fatalf("served result differs from direct Simulate:\n got %s\nwant %s", got, want)
	}
}

// TestCachedResubmit re-posts an identical request after completion and
// must get a 200 cache hit carrying the identical result bytes.
func TestCachedResubmit(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 2})
	_, first := postJob(t, ts, smallSim)
	done := waitStatus(t, ts, first.Job.ID, StatusDone)

	code, second := postJob(t, ts, smallSim)
	if code != http.StatusOK || !second.Cached {
		t.Fatalf("resubmit: status %d cached %v, want 200 cached", code, second.Cached)
	}
	if second.Job.ID != first.Job.ID {
		t.Fatalf("cache hit changed job ID: %s vs %s", second.Job.ID, first.Job.ID)
	}
	if !bytes.Equal(second.Job.Result, done.Result) {
		t.Fatalf("cached result differs from first run")
	}
	if second.Job.Hits != 1 {
		t.Fatalf("hits = %d, want 1", second.Job.Hits)
	}
	if got := srv.metrics.counter("cache_hits_total"); got != 1 {
		t.Fatalf("cache_hits_total = %d, want 1", got)
	}
	if got := srv.metrics.counter("jobs_executed_total"); got != 1 {
		t.Fatalf("jobs_executed_total = %d, want 1", got)
	}
}

// TestSingleFlight holds the only worker busy, fires two identical
// concurrent submissions, and proves they collapse onto one job — and so
// exactly one simulation run.
func TestSingleFlight(t *testing.T) {
	srv, ts, release := gateServer(t, Config{Workers: 1, QueueDepth: 8})

	// Occupy the lone worker so the identical pair stays in flight.
	_, blocker := postJob(t, ts, `{"config":{"nodes":3,"rounds":30,"seed":99}}`)
	waitStatus(t, ts, blocker.Job.ID, StatusRunning)

	var wg sync.WaitGroup
	codes := make([]int, 2)
	bodies := make([][]byte, 2)
	errs := make([]error, 2)
	for i := range codes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i], bodies[i], errs[i] = doPost(ts, smallSim)
		}(i)
	}
	wg.Wait()
	release()

	subs := make([]SubmitResponse, 2)
	for i := range subs {
		if errs[i] != nil {
			t.Fatalf("concurrent POST %d: %v", i, errs[i])
		}
		if codes[i] != http.StatusAccepted {
			t.Fatalf("concurrent POST %d: status %d body %s", i, codes[i], bodies[i])
		}
		if err := json.Unmarshal(bodies[i], &subs[i]); err != nil {
			t.Fatalf("decode concurrent POST %d: %v", i, err)
		}
	}
	if subs[0].Job.ID != subs[1].Job.ID {
		t.Fatalf("identical submissions got different jobs: %s vs %s", subs[0].Job.ID, subs[1].Job.ID)
	}
	if subs[0].Deduped == subs[1].Deduped {
		t.Fatalf("want exactly one deduped submission, got %v and %v", subs[0].Deduped, subs[1].Deduped)
	}

	waitStatus(t, ts, subs[0].Job.ID, StatusDone)
	if got := srv.metrics.counter("dedup_hits_total"); got != 1 {
		t.Fatalf("dedup_hits_total = %d, want 1", got)
	}
	// Blocker plus exactly one run for the identical pair.
	if got := srv.metrics.counter("jobs_executed_total"); got != 2 {
		t.Fatalf("jobs_executed_total = %d, want 2 (blocker + single-flight run)", got)
	}
}

// TestQueueFullRejects fills a depth-1 queue behind a held worker and
// expects 429 for the overflow submission.
func TestQueueFullRejects(t *testing.T) {
	srv, ts, release := gateServer(t, Config{Workers: 1, QueueDepth: 1})

	_, blocker := postJob(t, ts, `{"config":{"nodes":3,"rounds":30,"seed":1}}`)
	waitStatus(t, ts, blocker.Job.ID, StatusRunning)

	code, queued := postJob(t, ts, `{"config":{"nodes":3,"rounds":30,"seed":2}}`)
	if code != http.StatusAccepted {
		t.Fatalf("second submit: status %d, want 202", code)
	}
	code, raw, err := doPost(ts, `{"config":{"nodes":3,"rounds":30,"seed":3}}`)
	if err != nil {
		t.Fatalf("overflow POST: %v", err)
	}
	if code != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: status %d body %s, want 429", code, raw)
	}
	if got := srv.metrics.counter("submit_rejected_full_total"); got != 1 {
		t.Fatalf("submit_rejected_full_total = %d, want 1", got)
	}

	release()
	waitStatus(t, ts, queued.Job.ID, StatusDone)
	// The rejected config can be resubmitted once the queue clears.
	code, retry := postJob(t, ts, `{"config":{"nodes":3,"rounds":30,"seed":3}}`)
	if code != http.StatusAccepted {
		t.Fatalf("retry after 429: status %d, want 202", code)
	}
	waitStatus(t, ts, retry.Job.ID, StatusDone)
}

// TestCancelQueuedJob strikes a queued job before it runs, then proves a
// resubmission replaces the cancelled run under the same job ID.
func TestCancelQueuedJob(t *testing.T) {
	_, ts, release := gateServer(t, Config{Workers: 1, QueueDepth: 8})

	_, blocker := postJob(t, ts, `{"config":{"nodes":3,"rounds":30,"seed":1}}`)
	waitStatus(t, ts, blocker.Job.ID, StatusRunning)
	const body = `{"config":{"nodes":3,"rounds":30,"seed":5}}`
	_, queued := postJob(t, ts, body)

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+queued.Job.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE: %v", err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: status %d body %s", resp.StatusCode, raw)
	}
	var snap Job
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("decode cancel response: %v", err)
	}
	if snap.Status != StatusCancelled {
		t.Fatalf("cancelled job status %q", snap.Status)
	}
	if code, _ := getBody(t, ts, "/v1/jobs/"+queued.Job.ID+"/result"); code != http.StatusConflict {
		t.Fatalf("result of cancelled job: status %d, want 409", code)
	}

	release()
	waitStatus(t, ts, blocker.Job.ID, StatusDone)

	// A cancelled job does not poison its key: resubmitting runs fresh.
	code, again := postJob(t, ts, body)
	if code != http.StatusAccepted || again.Cached || again.Deduped {
		t.Fatalf("resubmit after cancel: status %d cached %v deduped %v", code, again.Cached, again.Deduped)
	}
	if again.Job.ID != queued.Job.ID {
		t.Fatalf("resubmission changed job ID: %s vs %s", again.Job.ID, queued.Job.ID)
	}
	waitStatus(t, ts, again.Job.ID, StatusDone)
}

// TestListingInSubmissionOrder lists jobs oldest submission first, and
// a key retried after its job was cancelled lists at its retry, not at
// its first submission.
func TestListingInSubmissionOrder(t *testing.T) {
	clk := newAdjustableClock()
	srv, ts, release := gateServer(t, Config{Workers: 1, QueueDepth: 8, Clock: clk.Now})
	defer release()
	ids := map[string]string{}
	for _, name := range []string{"parked", "a", "b", "c"} {
		_, sub := postJob(t, ts, fmt.Sprintf(`{"config":{"nodes":3,"rounds":30,"seed":%d}}`, 70+len(ids)))
		ids[name] = sub.Job.ID
		if name == "parked" {
			waitStatus(t, ts, sub.Job.ID, StatusRunning)
		}
		clk.Advance(time.Second)
	}
	if _, ok := srv.cancelJob(ids["a"]); !ok {
		t.Fatal("cancel a: not found")
	}
	if code, _ := postJob(t, ts, `{"config":{"nodes":3,"rounds":30,"seed":71}}`); code != http.StatusAccepted {
		t.Fatalf("retry a: status %d", code)
	}

	code, raw := getBody(t, ts, "/v1/jobs")
	var list struct {
		Jobs []Job `json:"jobs"`
	}
	if err := json.Unmarshal(raw, &list); code != http.StatusOK || err != nil {
		t.Fatalf("list: status %d, %v", code, err)
	}
	var got []string
	for i, j := range list.Jobs {
		got = append(got, j.ID)
		if i > 0 && !j.SubmittedAt.After(list.Jobs[i-1].SubmittedAt) {
			t.Fatalf("job %s submitted at %s lists after one submitted at %s", j.ID, j.SubmittedAt, list.Jobs[i-1].SubmittedAt)
		}
	}
	want := []string{ids["parked"], ids["b"], ids["c"], ids["a"]}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("listing order %v, want %v (parked, b, c, then a at its retry)", got, want)
	}
}

// TestExperimentJob serves a table artifact and compares its output to
// the direct facade call.
func TestExperimentJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	// Uppercase ID exercises normalization.
	code, sub := postJob(t, ts, `{"experiment":"TABLE1"}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit experiment: status %d", code)
	}
	if sub.Job.Kind != KindExperiment {
		t.Fatalf("kind %q, want experiment", sub.Job.Kind)
	}
	done := waitStatus(t, ts, sub.Job.ID, StatusDone)

	var res experimentResult
	if err := json.Unmarshal(done.Result, &res); err != nil {
		t.Fatalf("decode experiment result: %v", err)
	}
	if res.Experiment != "table1" || res.Format != "table" {
		t.Fatalf("result meta = %q/%q, want table1/table", res.Experiment, res.Format)
	}
	want, err := neofog.RunExperiment("table1", neofog.ExperimentOptions{})
	if err != nil {
		t.Fatalf("direct RunExperiment: %v", err)
	}
	if res.Output != want {
		t.Fatalf("served experiment output differs from direct call:\n got %q\nwant %q", res.Output, want)
	}
}

// TestFleetJob round-trips a fleet run against the direct facade call.
func TestFleetJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	code, sub := postJob(t, ts, `{"kind":"fleet","chains":2,"config":{"nodes":3,"rounds":30,"seed":4}}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit fleet: status %d", code)
	}
	done := waitStatus(t, ts, sub.Job.ID, StatusDone)
	direct, err := neofog.SimulateFleet(neofog.SimulationConfig{Nodes: 3, Rounds: 30, Seed: 4}, 2)
	if err != nil {
		t.Fatalf("direct SimulateFleet: %v", err)
	}
	want, _ := json.Marshal(direct)
	if !bytes.Equal(done.Result, want) {
		t.Fatalf("fleet result differs from direct call:\n got %s\nwant %s", done.Result, want)
	}
}

// manyIntensities asks a campaign for one fault intensity more than a
// sweep may list.
var manyIntensities = `{"experiment":"chaos","options":{"fault_intensities":[0` + strings.Repeat(",1", 101) + `]}}`

// TestRequestValidation checks the 400 paths of request decoding and
// normalization; each body must be refused for the reason its row names.
func TestRequestValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	for _, bad := range []struct{ body, want string }{
		{`{"kind":"nope"}`, "unknown kind"},
		{`{"experiment":"no-such-artifact"}`, "unknown experiment"},
		{`{"kind":"fleet","config":{}}`, "chains ≥ 1"},
		{`{"config":{},"chains":2}`, "chains is only valid for fleet jobs"},
		{`{"experiment":"table1","format":"xml"}`, "unknown format"},
		{`{"experiment":"table1","config":{}}`, "not valid for experiment jobs"},
		{`{"config":{"nodes":-1}}`, "invalid deployment shape"},
		{`{"config":{"fog_insts_per_byte":10000000000000000}}`, "overflows the instruction count"},
		{`{"config":{"solar_peak_mw":-1}}`, "solar peak -1 mW"},
		{`{"config":{"slot_seconds":1e13}}`, "slot 1e+13 s is out of range"},
		{`{"config":{"slot_seconds":0.000001}}`, "income of 10 physical nodes over 18000000000 slots of 1µs is 1440000000000 B, over the 67108864 B cap"},
		{`{"config":{"slot_seconds":0.001,"rounds":1000000000000}}`, "over 18000000 slots of 1ms"},
		{`{"config":{"nodes":1000000}}`, "nodes 1000000 × multiplexing 1 is over the 8192 physical-node cap"},
		{`{"config":{"nodez":4}}`, `unknown field \"nodez\"`},
		{`{"kinds":"simulate"}`, `unknown field \"kinds\"`},
		{`{"config":{"SlotSeconds":8}}`, `unknown field \"SlotSeconds\"`}, // the Go names of multi-word keys
		{`{"config":{"SolarPeakMilliwatts":1.2}}`, `unknown field \"SolarPeakMilliwatts\"`},
		{`{"config":{"FogInstsPerByte":800}}`, `unknown field \"FogInstsPerByte\"`},
		{`{"config":{"WakeupRadio":true}}`, `unknown field \"WakeupRadio\"`},
		{`{"config":{"Journal":null}}`, `unknown field \"Journal\"`}, // observers are not on the wire
		{`{"experiment":"table1","options":{"Telemetry":null}}`, `unknown field \"Telemetry\"`},
		{`{"config":{"nodes":4}} x`, "after the JSON value"},
		{`{"config":{}}{}`, "after the JSON value"},
		{`{"kind":"simulate","options":{"rounds":10}}`, "experiment fields are not valid"},
		{`{"config":{"nodes":1,"multiplexing":2}}`, "needs at least 2 nodes"},
		{`{"kind":"fleet","config":{"nodes":1,"multiplexing":2},"chains":2}`, "needs at least 2 nodes"},
		{`{"kind":"fleet","chains":1000000000,"config":{}}`, "chains 1000000000 × 10 physical nodes is over the 8192 physical-node cap"},
		{`{"experiment":"fig10","options":{"nodes":10000000}}`, "fig10 nodes 10000000 × multiplexing 1 is over the 8192 physical-node cap"},
		{manyIntensities, "fault_intensities lists 102 points, over the 101-point cap"},
		{`{"experiment":"fig12","options":{"nodes":-3}}`, "nodes ≥ 0"},
		{`not json`, "bad request body"},
	} {
		code, raw, err := doPost(ts, bad.body)
		if err != nil {
			t.Fatalf("POST %q: %v", bad.body, err)
		}
		if code != http.StatusBadRequest || !strings.Contains(string(raw), bad.want) {
			t.Errorf("POST %q: status %d body %s, want 400 with %q", bad.body, code, raw, bad.want)
		}
	}
	if code, _ := getBody(t, ts, "/v1/jobs/j-missing"); code != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", code)
	}
}

// TestExperimentTooSmallFails runs an artifact on fewer nodes than it
// records, across parallel sweep workers. The job must end failed with
// the artifact's error, and the server must keep answering.
func TestExperimentTooSmallFails(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	code, sub := postJob(t, ts, `{"experiment":"fig9","options":{"nodes":3,"rounds":5,"parallel":2}}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d, want 202", code)
	}
	j := waitStatus(t, ts, sub.Job.ID, StatusFailed)
	if !strings.Contains(j.Error, "needs at least 6 nodes") {
		t.Fatalf("failed job error = %q, want fig9's node minimum", j.Error)
	}
	code, sub = postJob(t, ts, smallSim)
	if code != http.StatusAccepted {
		t.Fatalf("submit after the failure: status %d, want 202", code)
	}
	waitStatus(t, ts, sub.Job.ID, StatusDone)
}

// TestExperimentsEndpoint lists the servable artifact IDs.
func TestExperimentsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	code, raw := getBody(t, ts, "/v1/experiments")
	if code != http.StatusOK {
		t.Fatalf("experiments: status %d", code)
	}
	var body struct {
		Experiments []string `json:"experiments"`
	}
	if err := json.Unmarshal(raw, &body); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(body.Experiments) != len(neofog.ExperimentIDs()) {
		t.Fatalf("listed %d experiments, facade has %d", len(body.Experiments), len(neofog.ExperimentIDs()))
	}
}

// TestStreamReplaysFinishedJob subscribes after completion and must still
// receive the terminal result event before the stream closes.
func TestStreamReplaysFinishedJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	_, sub := postJob(t, ts, smallSim)
	waitStatus(t, ts, sub.Job.ID, StatusDone)

	code, raw := getBody(t, ts, "/v1/jobs/"+sub.Job.ID+"/stream")
	if code != http.StatusOK {
		t.Fatalf("stream: status %d", code)
	}
	text := string(raw)
	if !strings.Contains(text, "event: status\n") {
		t.Fatalf("stream missing opening status frame:\n%s", text)
	}
	if got := strings.Count(text, "event: result\n"); got != 1 {
		t.Fatalf("stream carried %d result events, want exactly 1:\n%s", got, text)
	}
}

// TestStreamLiveEvents opens the stream while the job is gated, releases
// it, and expects live telemetry frames plus exactly one terminal result.
func TestStreamLiveEvents(t *testing.T) {
	srv, ts, release := gateServer(t, Config{Workers: 1})
	_, sub := postJob(t, ts, smallSim)
	waitStatus(t, ts, sub.Job.ID, StatusRunning)

	type streamRead struct {
		body []byte
		err  error
	}
	got := make(chan streamRead, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + sub.Job.ID + "/stream")
		if err != nil {
			got <- streamRead{nil, err}
			return
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		got <- streamRead{b, err}
	}()

	// Wait for the subscription to land before releasing the worker, so
	// at least the first buffered telemetry frames are observed live.
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
	release()

	read := <-got
	if read.err != nil {
		t.Fatalf("stream read: %v", read.err)
	}
	text := string(read.body)
	if !strings.Contains(text, "event: span\n") && !strings.Contains(text, "event: sample\n") {
		t.Fatalf("live stream carried no telemetry frames:\n%.2000s", text)
	}
	if got := strings.Count(text, "event: result\n"); got != 1 {
		t.Fatalf("live stream carried %d result events, want exactly 1", got)
	}
}

// TestDrain proves the graceful-shutdown contract: in-flight work
// completes, new submissions get 503, /healthz flips to draining, and
// the cache index lands on disk.
func TestDrain(t *testing.T) {
	idxPath := filepath.Join(t.TempDir(), "cache-index.json")
	srv, ts, release := gateServer(t, Config{Workers: 1, CacheIndexPath: idxPath})

	_, running := postJob(t, ts, smallSim)
	waitStatus(t, ts, running.Job.ID, StatusRunning)

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		drained <- srv.Drain(ctx)
	}()

	// The draining flag flips before Drain blocks on the workers.
	deadline := time.Now().Add(30 * time.Second)
	for {
		code, _ := getBody(t, ts, "/healthz")
		if code == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("healthz never reported draining")
		}
		time.Sleep(time.Millisecond)
	}

	code, raw, err := doPost(ts, `{"config":{"nodes":3,"rounds":30,"seed":8}}`)
	if err != nil {
		t.Fatalf("POST during drain: %v", err)
	}
	if code != http.StatusServiceUnavailable {
		t.Fatalf("submit during drain: status %d body %s, want 503", code, raw)
	}
	if got := srv.metrics.counter("submit_rejected_draining_total"); got != 1 {
		t.Fatalf("submit_rejected_draining_total = %d, want 1", got)
	}

	release()
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	// The in-flight job finished rather than being dropped.
	if j := waitStatus(t, ts, running.Job.ID, StatusDone); len(j.Result) == 0 {
		t.Fatal("drained job has no result")
	}

	b, err := os.ReadFile(idxPath)
	if err != nil {
		t.Fatalf("cache index not flushed: %v", err)
	}
	// The audit dump shares the disk tier's codec, so it must decode and
	// validate through the same path the warm boot trusts.
	idx, err := decodeIndex(b)
	if err != nil {
		t.Fatalf("decode cache index: %v", err)
	}
	e := idx.Entries
	if len(e) != 1 || e[0].Status != StatusDone || e[0].ID != running.Job.ID {
		t.Fatalf("unexpected cache index: %+v", e)
	}
	if e[0].Size == 0 || !isHexKey(e[0].BodySHA256) {
		t.Fatalf("audit entry missing body accounting: %+v", e[0])
	}
	if _, err := os.Stat(idxPath + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("audit dump left temp debris: %v", err)
	}
}

// TestEviction bounds the store: with CacheEntries=2, finishing a third
// job evicts the least recently used one, here the oldest.
func TestEviction(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1, CacheEntries: 2})
	ids := make([]string, 3)
	for i := range ids {
		_, sub := postJob(t, ts, fmt.Sprintf(`{"config":{"nodes":3,"rounds":30,"seed":%d}}`, 20+i))
		ids[i] = sub.Job.ID
		waitStatus(t, ts, sub.Job.ID, StatusDone)
	}
	if code, _ := getBody(t, ts, "/v1/jobs/"+ids[0]); code != http.StatusNotFound {
		t.Fatalf("oldest job survived eviction: status %d, want 404", code)
	}
	for _, id := range ids[1:] {
		if code, _ := getBody(t, ts, "/v1/jobs/"+id); code != http.StatusOK {
			t.Fatalf("job %s evicted too eagerly: status %d", id, code)
		}
	}
	if got := srv.metrics.counter("cache_evictions_total"); got != 1 {
		t.Fatalf("cache_evictions_total = %d, want 1", got)
	}
}

// TestEvictionKeepsHotResult pins the retention policy of a daemon
// without a disk tier: with CacheEntries=2, a result hit three times
// outlives one never hit, because eviction goes least recently used
// first, not in submission order.
func TestEvictionKeepsHotResult(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1, CacheEntries: 2})
	body := func(seed int) string { return fmt.Sprintf(`{"config":{"nodes":3,"rounds":30,"seed":%d}}`, seed) }
	ids := make([]string, 3)
	for i := range ids[:2] {
		_, sub := postJob(t, ts, body(60+i))
		ids[i] = sub.Job.ID
		waitStatus(t, ts, sub.Job.ID, StatusDone)
	}
	for i := 0; i < 3; i++ {
		if code, resp := postJob(t, ts, body(60)); code != http.StatusOK || !resp.Cached {
			t.Fatalf("hit %d on A: status %d cached %v", i, code, resp.Cached)
		}
	}
	_, sub := postJob(t, ts, body(62))
	ids[2] = sub.Job.ID
	waitStatus(t, ts, sub.Job.ID, StatusDone)

	if code, _ := getBody(t, ts, "/v1/jobs/"+ids[0]); code != http.StatusOK {
		t.Fatalf("hot job A evicted: status %d, want 200", code)
	}
	if code, _ := getBody(t, ts, "/v1/jobs/"+ids[1]); code != http.StatusNotFound {
		t.Fatalf("cold job B kept: status %d, want 404", code)
	}
	if got := srv.metrics.counter("cache_evictions_total"); got != 1 {
		t.Fatalf("cache_evictions_total = %d, want 1", got)
	}
	checkJobMaps(t, srv)
}

// TestHealthz sanity-checks the health body fields.
func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 3, QueueDepth: 7})
	code, raw := getBody(t, ts, "/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz: status %d", code)
	}
	var h healthBody
	if err := json.Unmarshal(raw, &h); err != nil {
		t.Fatalf("decode healthz: %v", err)
	}
	if h.Status != "ok" || h.Workers != 3 || h.Queue.Capacity != 7 || h.Version == "" {
		t.Fatalf("unexpected health body: %+v", h)
	}
}
