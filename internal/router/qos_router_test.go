package router

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"neofog/internal/qos"
	"neofog/internal/serve"
)

// postTenant submits a body through baseURL with an X-Neofog-Tenant
// label and returns the response whole.
func postTenant(t *testing.T, baseURL, tenant, body string) (int, http.Header, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, baseURL+"/v1/jobs", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(serve.TenantHeader, tenant)
	resp, err := http.DefaultClient.Do(req)
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

// TestRoutedTenantMatchesDirect extends the byte-equality battery to
// the QoS surface: a tenant-labelled submission through the router must
// behave exactly like one against a bare daemon — same acceptance, same
// tenant echo, and byte-identical differentiated 429s with the same
// per-tenant Retry-After when the tenant's bucket runs dry.
func TestRoutedTenantMatchesDirect(t *testing.T) {
	tenants := []qos.TenantConfig{{Name: "metered", Weight: 2, Rate: 1}}
	direct, err := serve.New(serve.Config{
		Workers: 2,
		Tenants: tenants,
		Clock:   func() time.Time { return fixedTime },
	})
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
	// One shard so the routed tenant hits the same bucket every time —
	// per-tenant state is per shard, and this test is about equivalence,
	// not placement.
	c := startCluster(t, 1, func(int) serve.Config {
		return serve.Config{Workers: 2, Tenants: tenants}
	})

	// First submission spends the burst token on both surfaces and must
	// echo the tenant back through the proxy.
	dCode, dHdr, dRaw := postTenant(t, dts.URL, "metered", simBody(31))
	rCode, rHdr, rRaw := postTenant(t, c.ts.URL, "metered", simBody(31))
	if dCode != http.StatusAccepted || rCode != http.StatusAccepted {
		t.Fatalf("burst submit: direct %d routed %d", dCode, rCode)
	}
	if !bytes.Equal(dRaw, rRaw) {
		t.Fatalf("accepted bodies differ\ndirect: %s\nrouted: %s", dRaw, rRaw)
	}
	if got := rHdr.Get(serve.TenantHeader); got != "metered" {
		t.Fatalf("routed submit echoed tenant %q, want metered", got)
	}
	if d, r := dHdr.Get(serve.TenantHeader), rHdr.Get(serve.TenantHeader); d != r {
		t.Fatalf("tenant echo differs: direct %q routed %q", d, r)
	}

	// The bucket is dry: a second distinct submission is the tenant-rate
	// 429, and the router must relay it verbatim — body, tenant header,
	// and Retry-After all matching the bare daemon's.
	dCode, dHdr, dRaw = postTenant(t, dts.URL, "metered", simBody(32))
	rCode, rHdr, rRaw = postTenant(t, c.ts.URL, "metered", simBody(32))
	if dCode != http.StatusTooManyRequests || rCode != http.StatusTooManyRequests {
		t.Fatalf("over-rate submit: direct %d routed %d", dCode, rCode)
	}
	if !bytes.Equal(dRaw, rRaw) {
		t.Fatalf("rejection bodies differ\ndirect: %s\nrouted: %s", dRaw, rRaw)
	}
	for _, h := range []string{serve.TenantHeader, "Retry-After"} {
		if d, r := dHdr.Get(h), rHdr.Get(h); d != r || d == "" {
			t.Fatalf("rejection header %s: direct %q routed %q", h, d, r)
		}
	}

	// Tenant state is admission state, not identity: an unlabelled
	// submission still flows while metered is throttled, on both
	// surfaces.
	dCode, _, _ = post(t, dts.URL, simBody(33))
	rCode, _, _ = post(t, c.ts.URL, simBody(33))
	if dCode != http.StatusAccepted || rCode != http.StatusAccepted {
		t.Fatalf("default-tenant submit: direct %d routed %d", dCode, rCode)
	}
}

// TestRouterTenantMetricsFanIn drives tenant-labelled traffic through
// the cluster and checks the scrape fan-in keeps the tenant label:
// neofog_tenant_* series with the same {tenant=...} labels sum across
// shards, exactly like the unlabelled families.
func TestRouterTenantMetricsFanIn(t *testing.T) {
	c := startCluster(t, 3, func(int) serve.Config {
		return serve.Config{
			Workers: 2,
			Tenants: []qos.TenantConfig{{Name: "gold", Weight: 3}},
		}
	})
	for seed := int64(40); seed < 46; seed++ {
		code, _, raw := postTenant(t, c.ts.URL, "gold", simBody(seed))
		if code != http.StatusAccepted {
			t.Fatalf("seed %d: status %d: %s", seed, code, raw)
		}
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
		// All 6 gold submissions, summed across however many shards the
		// ring spread them over.
		`neofog_tenant_jobs_submitted_total{tenant="gold"} 6`,
		`neofog_tenant_jobs_executed_total{tenant="gold"} 6`,
		// The per-shard weight gauge sums like everything else: 3 shards
		// × weight 3. A sum is the honest aggregate for counters and a
		// quirk for config gauges; asserting it documents the semantics.
		`neofog_tenant_weight{tenant="gold"} 9`,
		// The default tenant always exists alongside configured ones.
		`neofog_tenant_jobs_submitted_total{tenant="default"} 0`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("aggregated metrics missing %q", want)
		}
	}
}
