package router

import (
	"bytes"
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"neofog/internal/serve"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestRouterMetricsGolden pins the router's whole /metrics body: its own
// neofog_router_* section and the shard fan-in. Twelve shards put
// shard-10 and shard-11 among the names. Requests to the router run
// through its handler in process, so each one's counters and latency are
// recorded before the next starts. Jobs are awaited on their owning
// shard, so polling moves no router counter.
func TestRouterMetricsGolden(t *testing.T) {
	c := startCluster(t, 12, nil)
	h := c.rt.Handler()
	shardURL := map[string]string{}
	for i, s := range c.rt.cfg.Shards {
		shardURL[s.Name] = c.shardTS[i].URL
	}
	submit := func(body string, want int) {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(body)))
		if rec.Code != want {
			t.Fatalf("submit %s: status %d, want %d: %s", body, rec.Code, want, rec.Body)
		}
		var sub serve.SubmitResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &sub); err != nil {
			t.Fatalf("decode submit: %v", err)
		}
		waitDone(t, shardURL[rec.Header().Get(shardHeader)], sub.Job.ID)
	}
	for seed := int64(1); seed <= 16; seed++ {
		submit(simBody(seed), http.StatusAccepted)
	}
	for seed := int64(1); seed <= 4; seed++ {
		submit(simBody(seed), http.StatusOK)
	}

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics: status %d", rec.Code)
	}
	checkGolden(t, "metrics.golden", rec.Body.Bytes())
}

// checkGolden compares got with testdata/<name>, rewriting it under
// -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatalf("mkdir testdata: %v", err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatalf("write %s: %v", path, err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s (run with -update to create): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s drifted from golden.\n got: %s\nwant: %s\nRun `go test ./internal/router -run TestRouterMetricsGolden -update` if the change is intended.", name, got, want)
	}
}
