package loadgen

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"neofog/internal/qos"
	"neofog/internal/router"
	"neofog/internal/serve"
)

// TestTenantMixPreservesSchedule is the digest-preservation contract:
// adding a tenant mix to a spec relabels the identical arrival
// sequence — same offsets, same keys, same temperatures — because the
// tenant draws spend a separate RNG. Only the digest moves (it now
// covers the labels).
func TestTenantMixPreservesSchedule(t *testing.T) {
	spec := TraceSpec{Seed: 7, QPS: 200, Duration: 2 * time.Second}
	plain, err := BuildSchedule(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Tenants = []TenantShare{{Name: "gold", Share: 3}, {Name: "bronze", Share: 1, Class: "bulk"}}
	mixed, err := BuildSchedule(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) != len(mixed) {
		t.Fatalf("mix changed arrival count: %d vs %d", len(plain), len(mixed))
	}
	for i := range plain {
		if plain[i].At != mixed[i].At || plain[i].Key != mixed[i].Key || plain[i].Hot != mixed[i].Hot {
			t.Fatalf("arrival %d moved: %+v vs %+v", i, plain[i], mixed[i])
		}
	}
	counts := map[string]int{}
	for _, sr := range mixed {
		counts[sr.Tenant]++
		if sr.Tenant == "bronze" && sr.Class != "bulk" {
			t.Fatalf("bronze arrival lost its class: %+v", sr)
		}
	}
	if counts[""] != 0 {
		t.Fatalf("%d arrivals left unlabelled under a full mix", counts[""])
	}
	// 3:1 shares over ~400 arrivals: gold must clearly dominate without
	// demanding exact proportions of a finite sample.
	if counts["gold"] <= 2*counts["bronze"] {
		t.Fatalf("gold drew %d, bronze %d — not close to 3:1", counts["gold"], counts["bronze"])
	}
	// Same spec, same labels, bit for bit.
	again, err := BuildSchedule(spec)
	if err != nil {
		t.Fatal(err)
	}
	if ScheduleDigest(mixed) != ScheduleDigest(again) {
		t.Fatal("tenanted schedule is not deterministic")
	}
	if ScheduleDigest(mixed) == ScheduleDigest(plain) {
		t.Fatal("digest does not cover tenant labels")
	}
}

// TestUntenantedDigestUnchanged pins the historical digest of a fixed
// spec: pre-tenancy reports and committed baselines must keep verifying
// against schedules built by this code.
func TestUntenantedDigestUnchanged(t *testing.T) {
	schedule, err := BuildSchedule(TraceSpec{Seed: 1, QPS: 300, Duration: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	// The digest recorded in BENCH_SERVE_BASELINE.json for this exact
	// spec (seed 1, 300 qps, 10s, default mix).
	const want = "02860941aa74f1c068d78ab6f728a1f641c7e6639f8527de6031c534b389e662"
	if got := ScheduleDigest(schedule); got != want {
		t.Fatalf("untenanted digest changed: %s, want %s", got, want)
	}
}

// TestHotFractionNegativeMeansAllCold covers the new all-cold knob: -1
// builds a trace where every request is unique work (no cache hits
// possible), which is what a fairness smoke needs — hits complete
// instantly and would decouple served shares from scheduler shares.
func TestHotFractionNegativeMeansAllCold(t *testing.T) {
	schedule, err := BuildSchedule(TraceSpec{Seed: 3, QPS: 100, Duration: time.Second, HotFraction: -1})
	if err != nil {
		t.Fatal(err)
	}
	keys := map[string]bool{}
	for _, sr := range schedule {
		if sr.Hot {
			t.Fatalf("hot arrival in an all-cold trace: %+v", sr)
		}
		if keys[sr.Key] {
			t.Fatalf("repeated key %s in an all-cold trace", sr.Key)
		}
		keys[sr.Key] = true
	}
	if len(schedule) == 0 {
		t.Fatal("empty schedule")
	}
}

func TestParseTenantMix(t *testing.T) {
	mix, err := ParseTenantMix(" gold:3, bronze:1:bulk ,plain")
	if err != nil {
		t.Fatal(err)
	}
	want := []TenantShare{{Name: "gold", Share: 3}, {Name: "bronze", Share: 1, Class: "bulk"}, {Name: "plain", Share: 1}}
	if len(mix) != len(want) {
		t.Fatalf("got %+v, want %+v", mix, want)
	}
	for i := range want {
		if mix[i] != want[i] {
			t.Fatalf("entry %d: got %+v, want %+v", i, mix[i], want[i])
		}
	}
	if got, err := ParseTenantMix(""); err != nil || got != nil {
		t.Fatalf("empty mix: %v, %v", got, err)
	}
	for _, bad := range []string{":3", "gold:-1", "gold:zero", "gold:1:bulk:extra", "gold:1:bogus", "gold:1:Interactive"} {
		if _, err := ParseTenantMix(bad); err == nil {
			t.Errorf("ParseTenantMix(%q) accepted", bad)
		}
	}
	// A trailing empty class part is tolerated like an empty share part.
	if mix, err := ParseTenantMix("gold:2:"); err != nil || len(mix) != 1 || mix[0].Class != "" {
		t.Fatalf("ParseTenantMix(gold:2:) = %+v, %v", mix, err)
	}
}

// TestGateTenantZeroBaseline pins the zero-baseline convention: a
// baseline without tenant fields gates nothing per-tenant, and a
// tenanted baseline gates exactly the tenants it names.
func TestGateTenantZeroBaseline(t *testing.T) {
	current := Summary{Measured: Measured{
		JobsPerSec: 100, P99Ms: 10,
		Tenants: map[string]TenantMeasured{"gold": {JobsPerSec: 1, P99Ms: 500}},
	}}
	// Pre-tenancy baseline: tenant collapse is invisible to the gate.
	baseline := Summary{Measured: Measured{JobsPerSec: 100, P99Ms: 10}}
	if v := Gate(current, baseline, 0.1); len(v) != 0 {
		t.Fatalf("untenanted baseline produced tenant violations: %v", v)
	}
	// Tenanted baseline: the same collapse now fails both bounds.
	baseline.Measured.Tenants = map[string]TenantMeasured{"gold": {JobsPerSec: 50, P99Ms: 10}}
	v := Gate(current, baseline, 0.1)
	if len(v) != 2 {
		t.Fatalf("want 2 tenant violations, got %v", v)
	}
	for _, msg := range v {
		if !strings.Contains(msg, "tenant gold") {
			t.Fatalf("violation does not name the tenant: %q", msg)
		}
	}
}

func TestFairnessCheck(t *testing.T) {
	weights := map[string]float64{"gold": 3, "bronze": 1}
	fair := Measured{Tenants: map[string]TenantMeasured{
		"gold": {Completed: 74}, "bronze": {Completed: 26},
	}}
	if v := FairnessCheck(fair, weights, 0.05); len(v) != 0 {
		t.Fatalf("fair shares flagged: %v", v)
	}
	starved := Measured{Tenants: map[string]TenantMeasured{
		"gold": {Completed: 50}, "bronze": {Completed: 50},
	}}
	v := FairnessCheck(starved, weights, 0.05)
	if len(v) != 2 {
		t.Fatalf("want 2 share violations, got %v", v)
	}
	if v := FairnessCheck(Measured{}, weights, 0.05); len(v) != 1 {
		t.Fatalf("empty run should fail fairness outright, got %v", v)
	}
}

// TestRunTenantBreakdown replays a small tenanted trace through the
// router to a shard whose policy rate-limits bronze to one new job a
// second, and checks the report and the shard. Bronze's cold arrivals
// are new work the bucket refuses, so its 429s come back through the
// client as *APIError and are counted, never retried; the per-tenant
// counts sum to the totals; and the shard attributes exactly the
// schedule's arrivals to each tenant, so every label reached it.
func TestRunTenantBreakdown(t *testing.T) {
	spec := TraceSpec{
		Seed: 11, QPS: 150, Duration: time.Second,
		Tenants: []TenantShare{{Name: "gold", Share: 1}, {Name: "bronze", Share: 1}},
	}
	schedule, err := BuildSchedule(spec)
	if err != nil {
		t.Fatal(err)
	}
	tenants := []qos.TenantConfig{{Name: "gold"}, {Name: "bronze", Rate: 1}}
	cluster, err := StartCluster(1, serve.Config{Workers: 2, QueueDepth: 256, Tenants: tenants}, router.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	sum, err := Run(ctx, cluster.RouterURL, spec, schedule, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Measured.Errors > 0 || sum.Measured.Dropped > 0 {
		t.Fatalf("errors=%d dropped=%d", sum.Measured.Errors, sum.Measured.Dropped)
	}
	if len(sum.Measured.Tenants) != 2 {
		t.Fatalf("want 2 tenant entries, got %+v", sum.Measured.Tenants)
	}
	var completed, rejected int
	for name, tm := range sum.Measured.Tenants {
		completed += tm.Completed
		rejected += tm.Rejected429
		if tm.Completed == 0 {
			t.Errorf("tenant %s completed nothing", name)
		}
	}
	if completed != sum.Measured.Completed || rejected != sum.Measured.Rejected429 {
		t.Fatalf("tenant breakdown (completed %d, rejected %d) does not sum to totals (%d, %d)",
			completed, rejected, sum.Measured.Completed, sum.Measured.Rejected429)
	}
	if got := sum.Measured.Tenants["bronze"].Rejected429; got == 0 {
		t.Fatal("the rate-limited tenant saw no 429")
	}
	if got := sum.Measured.Tenants["gold"].Rejected429; got != 0 {
		t.Fatalf("the unlimited tenant saw %d 429s", got)
	}
	if !strings.Contains(FormatSummary(sum), "tenant gold:") {
		t.Fatal("FormatSummary dropped the tenant lines")
	}

	scheduled := map[string]int{}
	for _, sr := range schedule {
		scheduled[sr.Tenant]++
	}
	resp, err := http.Get(cluster.ShardURLs[0] + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for name, n := range scheduled {
		line := fmt.Sprintf("neofog_tenant_jobs_submitted_total{tenant=%q} %d\n", name, n)
		if !strings.Contains(string(metrics), line) {
			t.Errorf("shard metrics lack %q", strings.TrimSpace(line))
		}
	}
}
