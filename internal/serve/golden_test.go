package serve

import (
	"bytes"
	"encoding/json"
	"flag"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"neofog/internal/qos"
)

var update = flag.Bool("update", false, "rewrite golden files")

// checkGolden compares got with testdata/<name>, rewriting it under
// -update (same contract as internal/experiments' goldens).
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
		t.Fatalf("%s drifted from golden.\n got: %s\nwant: %s\nRun `go test ./internal/serve -run TestGolden -update` if the change is intended.", name, got, want)
	}
}

// TestGoldenAPIBodies pins the public JSON schema: the cached submit
// response, the job snapshot, the raw result body, and the full metrics
// exposition after a fixed request sequence. The fake clock, the
// deterministic simulator, and content-derived job IDs make every byte
// reproducible.
func TestGoldenAPIBodies(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8})

	code, sub := postJob(t, ts, smallSim)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	waitStatus(t, ts, sub.Job.ID, StatusDone)

	code, cached, err := doPost(ts, smallSim)
	if err != nil || code != http.StatusOK {
		t.Fatalf("cached resubmit: status %d err %v", code, err)
	}
	checkGolden(t, "submit_cached.golden", cached)

	code, jobBody := getBody(t, ts, "/v1/jobs/"+sub.Job.ID)
	if code != http.StatusOK {
		t.Fatalf("job: status %d", code)
	}
	checkGolden(t, "job.golden", jobBody)

	code, result := getBody(t, ts, "/v1/jobs/"+sub.Job.ID+"/result")
	if code != http.StatusOK {
		t.Fatalf("result: status %d", code)
	}
	checkGolden(t, "result.golden", result)

	code, metricsBody := getBody(t, ts, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: status %d", code)
	}
	checkGolden(t, "metrics.golden", metricsBody)
}

// TestGoldenWarmRestart proves the indistinguishability requirement at
// the byte level: a disk-tier hit after a full restart must produce the
// SAME golden bodies as a memory hit in a single process — the existing
// goldens, unchanged, with no recomputation (enforced by the execution
// hook).
func TestGoldenWarmRestart(t *testing.T) {
	dir := t.TempDir()

	srv1, ts1 := newTestServer(t, Config{Workers: 1, QueueDepth: 8, CacheDir: dir})
	code, sub := postJob(t, ts1, smallSim)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	waitStatus(t, ts1, sub.Job.ID, StatusDone)
	drainNow(t, srv1)
	ts1.Close()

	srv2, ts2 := newTestServer(t, Config{Workers: 1, QueueDepth: 8, CacheDir: dir})
	forbidExecution(t, srv2)

	// The first resubmit after the restart takes hits 0→1, exactly the
	// state the in-process golden was captured in.
	code, cached, err := doPost(ts2, smallSim)
	if err != nil || code != http.StatusOK {
		t.Fatalf("warm resubmit: status %d err %v", code, err)
	}
	checkGolden(t, "submit_cached.golden", cached)

	code, jobBody := getBody(t, ts2, "/v1/jobs/"+sub.Job.ID)
	if code != http.StatusOK {
		t.Fatalf("warm job: status %d", code)
	}
	checkGolden(t, "job.golden", jobBody)

	code, result := getBody(t, ts2, "/v1/jobs/"+sub.Job.ID+"/result")
	if code != http.StatusOK {
		t.Fatalf("warm result: status %d", code)
	}
	checkGolden(t, "result.golden", result)
}

// TestGoldenTenantMetrics pins the /metrics exposition of a multi-tenant
// daemon: three configured tenants plus the default, two job kinds and
// a cached hit attributed to a tenant that never ran anything, so every
// neofog_tenant_* family prints several rows and job_seconds two kinds.
func TestGoldenTenantMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8, Tenants: []qos.TenantConfig{
		{Name: "gold", Weight: 3}, {Name: "bronze", Weight: 1}, {Name: "alpha", Weight: 2},
	}})
	for _, step := range []struct {
		tenant, body string
		code         int
	}{
		{"gold", smallSim, http.StatusAccepted},
		{"bronze", `{"experiment":"table1"}`, http.StatusAccepted},
		{"alpha", smallSim, http.StatusOK},
	} {
		resp, raw := postRaw(t, ts, "/v1/jobs?tenant="+step.tenant, step.body)
		if resp.StatusCode != step.code {
			t.Fatalf("%s submit: status %d, want %d: %s", step.tenant, resp.StatusCode, step.code, raw)
		}
		var sub SubmitResponse
		if err := json.Unmarshal(raw, &sub); err != nil {
			t.Fatalf("decode submit: %v", err)
		}
		waitStatus(t, ts, sub.Job.ID, StatusDone)
	}
	code, body := getBody(t, ts, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: status %d", code)
	}
	checkGolden(t, "metrics_tenants.golden", body)
}
