// Package loadgen is the serve layer's open-loop load harness: it
// builds a deterministic request schedule from a seeded trace spec —
// Poisson arrivals at a configured QPS, a hot/cold key mix over small
// simulation configs — and replays it against a neofog-serve daemon or
// a neofog-router cluster, recording throughput, cache behavior, and
// exact latency quantiles into the BENCH_SERVE.json report that CI
// gates.
//
// Open-loop means the schedule is fixed before the run and requests fire
// at their appointed offsets whether or not earlier ones have completed
// — the arrival process never slows down to match a struggling server,
// which is what exposes queueing collapse (a closed-loop generator
// self-throttles and hides it). The schedule (arrival times, requests,
// content keys) is a pure function of the spec, so two runs with the
// same seed replay identical request sequences and their reports differ
// only in measured wall-clock fields — that separation is what makes
// BENCH_SERVE diffs trustworthy.
//
// Requests go through the serve API's one client, internal/serve/client,
// with its retries off: a 429 is counted, never retried, so the open loop
// never backs off.
package loadgen

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"neofog"
	"neofog/internal/qos"
	"neofog/internal/serve"
	"neofog/internal/serve/client"
)

// TenantShare is one tenant's slice of a multi-tenant trace: requests
// are labelled with Name (and optionally Class) in proportion to Share,
// normalized over the whole mix.
type TenantShare struct {
	Name string `json:"name"`
	// Share is the tenant's relative draw weight; 2:1 shares mean twice
	// the arrivals, whatever the absolute numbers are.
	Share float64 `json:"share"`
	// Class, when non-empty, labels the tenant's submissions with
	// X-Neofog-Class ("interactive" or "bulk").
	Class string `json:"class,omitempty"`
}

// ParseTenantMix parses a "name:share[:class]" comma-separated traffic
// mix, e.g. "gold:3,bronze:1" or "batch:1:bulk,ui:4:interactive".
func ParseTenantMix(s string) ([]TenantShare, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	var mix []TenantShare
	for _, entry := range strings.Split(s, ",") {
		parts := strings.Split(strings.TrimSpace(entry), ":")
		if parts[0] == "" {
			return nil, fmt.Errorf("loadgen: tenant mix entry %q has no name", entry)
		}
		ts := TenantShare{Name: parts[0], Share: 1}
		if len(parts) > 1 && parts[1] != "" {
			if _, err := fmt.Sscanf(parts[1], "%g", &ts.Share); err != nil || !(ts.Share > 0) {
				return nil, fmt.Errorf("loadgen: tenant mix entry %q: share must be a positive number", entry)
			}
		}
		if len(parts) > 2 && parts[2] != "" {
			// Validate eagerly: an unknown class would otherwise 400 every
			// one of the tenant's submissions at run time — a typo in the
			// mix flag must fail at parse, not poison the whole run.
			if _, err := qos.ParseClass(parts[2]); err != nil {
				return nil, fmt.Errorf("loadgen: tenant mix entry %q: %v", entry, err)
			}
			ts.Class = parts[2]
		}
		if len(parts) > 3 {
			return nil, fmt.Errorf("loadgen: tenant mix entry %q: want name:share[:class]", entry)
		}
		mix = append(mix, ts)
	}
	return mix, nil
}

// TraceSpec is the seeded recipe for one load trace. The zero value is
// not useful; Seed, QPS and Duration are required, the mix fields
// default to a cache-friendly 80/20 hot/cold blend over small
// simulations.
type TraceSpec struct {
	// Seed drives every random choice (arrival gaps, hot/cold draws, key
	// picks). Same seed ⇒ identical schedule, bit for bit.
	Seed int64 `json:"seed"`
	// QPS is the mean arrival rate; gaps are exponential (Poisson
	// arrivals), so instantaneous load is bursty like real traffic.
	QPS float64 `json:"qps"`
	// Duration is the span arrivals are scheduled over. The run itself
	// lasts until the last scheduled request completes.
	Duration time.Duration `json:"-"`
	// HotKeys is the size of the hot working set (default 8): hot
	// requests draw uniformly from this many distinct configurations.
	HotKeys int `json:"hot_keys"`
	// HotFraction is the probability a request draws from the hot set
	// (default 0.8; negative means 0 — an all-cold trace where every
	// request is unique work); the rest are cold — unique,
	// never-repeated configs that can only miss.
	HotFraction float64 `json:"hot_fraction"`
	// Tenants, when non-empty, labels each arrival with a tenant drawn
	// in proportion to the shares (and the tenant's class, if any). The
	// draws come from their own seeded RNG, so adding a mix to an
	// existing spec relabels the identical arrival sequence — offsets
	// and keys do not move.
	Tenants []TenantShare `json:"tenants,omitempty"`
	// Nodes and Rounds size each simulated job (defaults 4 and 30 —
	// small enough that the serve layer, not the simulator, is what is
	// being measured).
	Nodes  int `json:"nodes"`
	Rounds int `json:"rounds"`
}

func (s TraceSpec) withDefaults() TraceSpec {
	if s.HotKeys <= 0 {
		s.HotKeys = 8
	}
	if s.HotFraction == 0 {
		s.HotFraction = 0.8
	} else if s.HotFraction < 0 {
		s.HotFraction = 0
	}
	if s.Nodes <= 0 {
		s.Nodes = 4
	}
	if s.Rounds <= 0 {
		s.Rounds = 30
	}
	return s
}

// coldSeedBase offsets cold-key simulation seeds far above any hot seed
// so the two populations can never collide on a content key.
const coldSeedBase = 1_000_000

// ScheduledRequest is one arrival in a trace: when to fire (offset from
// run start), what to send, and the content identity it will have on the
// server.
type ScheduledRequest struct {
	At      time.Duration
	Request serve.Request // what the client submits
	Key     string        // canonical content address (what the cluster shards on)
	Hot     bool
	Tenant  string // X-Neofog-Tenant label ("" = unlabelled, the default tenant)
	Class   string // X-Neofog-Class label ("" = the endpoint default)
}

// BuildSchedule expands a spec into its full arrival schedule. The
// result is a pure function of the spec: arrival gaps and key draws come
// from one seeded PRNG consumed in a fixed order.
func BuildSchedule(spec TraceSpec) ([]ScheduledRequest, error) {
	spec = spec.withDefaults()
	if spec.QPS <= 0 || spec.Duration <= 0 {
		return nil, fmt.Errorf("loadgen: trace needs positive QPS and duration (got %v, %v)", spec.QPS, spec.Duration)
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	// Tenant draws spend their own RNG: the arrival/key stream above
	// consumes the main one in the exact pre-tenancy order, so the same
	// seed keeps producing the same offsets and keys whether or not a
	// mix is configured.
	trng := rand.New(rand.NewSource(spec.Seed ^ tenantDrawSalt))
	var shareSum float64
	for _, ts := range spec.Tenants {
		if ts.Name == "" || !(ts.Share > 0) {
			return nil, fmt.Errorf("loadgen: tenant mix entries need a name and a positive share (got %+v)", ts)
		}
		shareSum += ts.Share
	}
	drawTenant := func() (string, string) {
		if len(spec.Tenants) == 0 {
			return "", ""
		}
		d := trng.Float64() * shareSum
		for _, ts := range spec.Tenants {
			if d -= ts.Share; d < 0 {
				return ts.Name, ts.Class
			}
		}
		last := spec.Tenants[len(spec.Tenants)-1]
		return last.Name, last.Class
	}
	var out []ScheduledRequest
	at := time.Duration(0)
	cold := int64(0)
	for {
		gap := time.Duration(rng.ExpFloat64() / spec.QPS * float64(time.Second))
		at += gap
		if at > spec.Duration {
			return out, nil
		}
		hot := rng.Float64() < spec.HotFraction
		var seed int64
		if hot {
			seed = 1 + int64(rng.Intn(spec.HotKeys))
		} else {
			cold++
			seed = coldSeedBase + cold
		}
		req := serve.Request{
			Kind:   serve.KindSimulate,
			Config: &neofog.SimulationConfig{Seed: seed, Nodes: spec.Nodes, Rounds: spec.Rounds},
		}
		_, key, err := serve.Normalize(req)
		if err != nil {
			return nil, fmt.Errorf("loadgen: normalizing scheduled request: %w", err)
		}
		tenant, class := drawTenant()
		out = append(out, ScheduledRequest{
			At:      at,
			Request: req,
			Key:     key,
			Hot:     hot,
			Tenant:  tenant,
			Class:   class,
		})
	}
}

// tenantDrawSalt decorrelates the tenant-draw RNG from the arrival/key
// RNG (both are seeded from Seed).
const tenantDrawSalt = 0x7e64a27f19c3b5d1

// ScheduleDigest fingerprints a schedule: the SHA-256 over every
// arrival's offset, key, and temperature. Two runs replaying the same
// trace carry the same digest in their reports, which is how a
// BENCH_SERVE diff proves it compared like against like.
func ScheduleDigest(schedule []ScheduledRequest) string {
	h := sha256.New()
	for _, sr := range schedule {
		// Untenanted lines keep the historical format, so digests of
		// pre-tenancy traces (and committed baselines) are unchanged.
		if sr.Tenant == "" && sr.Class == "" {
			fmt.Fprintf(h, "%d %s %t\n", sr.At.Nanoseconds(), sr.Key, sr.Hot)
		} else {
			fmt.Fprintf(h, "%d %s %t %s %s\n", sr.At.Nanoseconds(), sr.Key, sr.Hot, sr.Tenant, sr.Class)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TraceSummary is the deterministic half of a report: everything here is
// a pure function of the spec and must be identical across runs with the
// same seed.
type TraceSummary struct {
	TraceSpec
	DurationS      float64 `json:"duration_s"`
	Requests       int     `json:"requests"`
	HotRequests    int     `json:"hot_requests"`
	UniqueKeys     int     `json:"unique_keys"`
	ScheduleSHA256 string  `json:"schedule_sha256"`
}

// Measured is the wall-clock half of a report: outcome counts,
// throughput, and exact latency quantiles (computed from the full sorted
// latency set, not bucket interpolation — a bench artifact should not
// estimate).
type Measured struct {
	Completed   int     `json:"completed"`
	CacheHits   int     `json:"cache_hits"`
	Deduped     int     `json:"deduped"`
	Rejected429 int     `json:"rejected_429"`
	Errors      int     `json:"errors"`
	Dropped     int     `json:"dropped"`
	ElapsedS    float64 `json:"elapsed_s"`
	JobsPerSec  float64 `json:"jobs_per_sec"`
	HitRatio    float64 `json:"hit_ratio"`
	P50Ms       float64 `json:"p50_ms"`
	P99Ms       float64 `json:"p99_ms"`
	P999Ms      float64 `json:"p999_ms"`
	// AllocsPerRequest is the whole-process heap allocation count per
	// scheduled request over the run (runtime Mallocs delta). With the
	// in-process bench cluster this spans client and server side both, so
	// a leaner request path shows up no matter which side it saves on.
	AllocsPerRequest float64 `json:"allocs_per_request"`
	// Tenants breaks the envelope down per tenant label when the trace
	// carried a mix; absent (omitted) on untenanted runs, so pre-tenancy
	// reports and baselines keep their exact shape.
	Tenants map[string]TenantMeasured `json:"tenants,omitempty"`
}

// TenantMeasured is one tenant's slice of the measured envelope.
type TenantMeasured struct {
	Completed   int     `json:"completed"`
	Rejected429 int     `json:"rejected_429"`
	JobsPerSec  float64 `json:"jobs_per_sec"`
	P99Ms       float64 `json:"p99_ms"`
}

// Summary is the BENCH_SERVE.json schema: the deterministic trace
// identity, the measured envelope, and the topology it ran against.
type Summary struct {
	Target   string       `json:"target"`   // "router" or "daemon"
	Shards   int          `json:"shards"`   // 0 when targeting a bare daemon
	Trace    TraceSummary `json:"trace"`    // identical across same-seed runs
	Measured Measured     `json:"measured"` // wall-clock; differs run to run
}

// pollInterval paces job-status polling for accepted (non-cached)
// submissions: the harness must observe completions promptly or it
// measures its own polling, not the server.
const pollInterval = 5 * time.Millisecond

// Opts tunes a run. The zero value works.
type Opts struct {
	// MaxInFlight caps concurrently outstanding requests (default 1024).
	// An open-loop generator must not block the schedule, so arrivals
	// past the cap are counted as dropped instead of waiting — a nonzero
	// dropped count in a report means the harness, not the server, was
	// the bottleneck, and the run should be retaken with a bigger cap.
	MaxInFlight int
}

func (o Opts) withDefaults() Opts {
	if o.MaxInFlight <= 0 {
		o.MaxInFlight = 1024
	}
	return o
}

// outcome is one request's fate.
type outcome struct {
	completed bool
	cached    bool
	deduped   bool
	rejected  bool
	dropped   bool
	err       bool
	latencyMs float64
}

// Run replays a schedule against baseURL (a daemon or a router — the
// API is identical by construction) and summarizes. Arrivals fire at
// their scheduled offsets regardless of earlier requests' progress;
// ctx cancels the whole run (its error is returned after accounting).
// Each tenant/class label gets one client, since a client stamps its
// labels on every request; the label's arrivals share it.
func Run(ctx context.Context, baseURL string, spec TraceSpec, schedule []ScheduledRequest, opts Opts) (Summary, error) {
	spec = spec.withDefaults()
	opts = opts.withDefaults()
	clients := map[[2]string]*client.Client{}
	for _, sr := range schedule {
		label := [2]string{sr.Tenant, sr.Class}
		if clients[label] == nil {
			clients[label] = &client.Client{
				BaseURL:      baseURL,
				MaxAttempts:  1, // a 429 comes back as an *APIError: count it, never back off
				PollInterval: pollInterval,
				Tenant:       sr.Tenant,
				Class:        sr.Class,
			}
		}
	}
	outcomes := make([]outcome, len(schedule))
	sem := make(chan struct{}, opts.MaxInFlight)
	var wg sync.WaitGroup
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()

	var lastDone struct {
		sync.Mutex
		t time.Time
	}
	markDone := func() {
		lastDone.Lock()
		lastDone.t = time.Now()
		lastDone.Unlock()
	}

	runErr := error(nil)
dispatch:
	for i, sr := range schedule {
		if wait := sr.At - time.Since(start); wait > 0 {
			t := time.NewTimer(wait)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				runErr = ctx.Err()
				break dispatch
			}
		}
		select {
		case sem <- struct{}{}:
		default:
			outcomes[i].dropped = true // open-loop: never block the schedule
			continue
		}
		wg.Add(1)
		go func(i int, c *client.Client, req serve.Request) {
			defer wg.Done()
			defer func() { <-sem }()
			outcomes[i] = doOne(ctx, c, req)
			if outcomes[i].completed {
				markDone()
			}
		}(i, clients[[2]string{sr.Tenant, sr.Class}], sr.Request)
	}
	wg.Wait()
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)

	sum := Summary{Trace: summarizeTrace(spec, schedule)}
	if len(schedule) > 0 {
		sum.Measured.AllocsPerRequest = float64(ms1.Mallocs-ms0.Mallocs) / float64(len(schedule))
	}
	var latencies []float64
	tenantLat := map[string][]float64{}
	tenants := map[string]TenantMeasured{}
	for i, o := range outcomes {
		tenant := schedule[i].Tenant
		tm := tenants[tenant]
		switch {
		case o.dropped:
			sum.Measured.Dropped++
		case o.rejected:
			sum.Measured.Rejected429++
			tm.Rejected429++
		case o.err:
			sum.Measured.Errors++
		case o.completed:
			sum.Measured.Completed++
			tm.Completed++
			latencies = append(latencies, o.latencyMs)
			tenantLat[tenant] = append(tenantLat[tenant], o.latencyMs)
			if o.cached {
				sum.Measured.CacheHits++
			}
			if o.deduped {
				sum.Measured.Deduped++
			}
		}
		if tenant != "" {
			tenants[tenant] = tm
		}
	}
	elapsed := time.Since(start)
	lastDone.Lock()
	if !lastDone.t.IsZero() {
		elapsed = lastDone.t.Sub(start)
	}
	lastDone.Unlock()
	sum.Measured.ElapsedS = elapsed.Seconds()
	if sum.Measured.ElapsedS > 0 {
		sum.Measured.JobsPerSec = float64(sum.Measured.Completed) / sum.Measured.ElapsedS
	}
	if sum.Measured.Completed > 0 {
		sum.Measured.HitRatio = float64(sum.Measured.CacheHits) / float64(sum.Measured.Completed)
	}
	sort.Float64s(latencies)
	sum.Measured.P50Ms = quantile(latencies, 0.50)
	sum.Measured.P99Ms = quantile(latencies, 0.99)
	sum.Measured.P999Ms = quantile(latencies, 0.999)
	if len(tenants) > 0 {
		for name, tm := range tenants {
			if sum.Measured.ElapsedS > 0 {
				tm.JobsPerSec = float64(tm.Completed) / sum.Measured.ElapsedS
			}
			lat := tenantLat[name]
			sort.Float64s(lat)
			tm.P99Ms = quantile(lat, 0.99)
			tenants[name] = tm
		}
		sum.Measured.Tenants = tenants
	}
	return sum, runErr
}

func summarizeTrace(spec TraceSpec, schedule []ScheduledRequest) TraceSummary {
	ts := TraceSummary{
		TraceSpec:      spec,
		DurationS:      spec.Duration.Seconds(),
		Requests:       len(schedule),
		ScheduleSHA256: ScheduleDigest(schedule),
	}
	keys := map[string]bool{}
	for _, sr := range schedule {
		if sr.Hot {
			ts.HotRequests++
		}
		keys[sr.Key] = true
	}
	ts.UniqueKeys = len(keys)
	return ts
}

// quantile returns the exact q-quantile of a sorted sample (nearest-rank
// method); 0 for an empty sample.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(q*float64(len(sorted))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// doOne runs one scheduled request end to end: submit, and for accepted
// jobs poll to a terminal state. Latency spans send to observed
// completion — it includes queue wait and poll granularity, exactly what
// a real client experiences.
func doOne(ctx context.Context, c *client.Client, req serve.Request) outcome {
	sendStart := time.Now()
	sub, err := c.Submit(ctx, req)
	var ae *client.APIError
	if errors.As(err, &ae) && ae.Status == http.StatusTooManyRequests {
		return outcome{rejected: true}
	}
	if err != nil {
		return outcome{err: true}
	}
	if !sub.Cached {
		if _, err := c.Wait(ctx, sub.Job.ID); err != nil {
			return outcome{err: true}
		}
	}
	return outcome{completed: true, cached: sub.Cached, deduped: sub.Deduped, latencyMs: msSince(sendStart)}
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

// WriteJSON renders a summary with stable formatting (indented, one
// trailing newline) — the BENCH_SERVE.json on-disk form.
func WriteJSON(w io.Writer, sum Summary) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(sum)
}

// ReadJSON loads a summary file.
func ReadJSON(path string) (Summary, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Summary{}, err
	}
	var sum Summary
	if err := json.Unmarshal(data, &sum); err != nil {
		return Summary{}, fmt.Errorf("loadgen: parsing %s: %w", path, err)
	}
	return sum, nil
}

// Gate compares a fresh summary against a baseline: jobs/s may not fall
// more than tol below it, and p99 latency may not rise more than tol
// above it. It returns one message per violation (empty = within
// tolerance), mirroring bench.Compare's contract so CI treats both
// gates identically.
func Gate(current, baseline Summary, tol float64) []string {
	var violations []string
	if base := baseline.Measured.JobsPerSec; base > 0 {
		if cur := current.Measured.JobsPerSec; cur < base*(1-tol) {
			violations = append(violations, fmt.Sprintf(
				"jobs/s %.1f fell more than %.0f%% below baseline %.1f", cur, tol*100, base))
		}
	}
	if base := baseline.Measured.P99Ms; base > 0 {
		if cur := current.Measured.P99Ms; cur > base*(1+tol) {
			violations = append(violations, fmt.Sprintf(
				"p99 %.2fms exceeds baseline %.2fms by more than %.0f%%", cur, base, tol*100))
		}
	}
	// Per-tenant gates follow the zero-baseline convention: a baseline
	// without tenant fields (every report committed before multi-tenant
	// QoS existed) gates nothing here, and a zero value in the baseline
	// skips that bound — so adding a mix never fails CI until a tenanted
	// baseline is deliberately committed.
	var names []string
	for name := range baseline.Measured.Tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		base := baseline.Measured.Tenants[name]
		cur := current.Measured.Tenants[name]
		if base.JobsPerSec > 0 && cur.JobsPerSec < base.JobsPerSec*(1-tol) {
			violations = append(violations, fmt.Sprintf(
				"tenant %s: jobs/s %.1f fell more than %.0f%% below baseline %.1f",
				name, cur.JobsPerSec, tol*100, base.JobsPerSec))
		}
		if base.P99Ms > 0 && cur.P99Ms > base.P99Ms*(1+tol) {
			violations = append(violations, fmt.Sprintf(
				"tenant %s: p99 %.2fms exceeds baseline %.2fms by more than %.0f%%",
				name, cur.P99Ms, base.P99Ms, tol*100))
		}
	}
	return violations
}

// FairnessCheck compares each tenant's share of completed jobs against
// its configured weight share, returning one message per tenant whose
// served share strays more than tol (an absolute share fraction) from
// the weighted-fair target. It only speaks to saturated runs: under
// light load every tenant is served at its arrival rate and shares
// track the mix, not the weights.
func FairnessCheck(m Measured, weights map[string]float64, tol float64) []string {
	var total int
	var weightSum float64
	var names []string
	for name, w := range weights {
		names = append(names, name)
		weightSum += w
		total += m.Tenants[name].Completed
	}
	if total == 0 || weightSum <= 0 {
		return []string{"fairness: no completed jobs for the weighted tenants"}
	}
	sort.Strings(names)
	var violations []string
	for _, name := range names {
		got := float64(m.Tenants[name].Completed) / float64(total)
		want := weights[name] / weightSum
		if diff := got - want; diff > tol || diff < -tol {
			violations = append(violations, fmt.Sprintf(
				"fairness: tenant %s served share %.3f, want %.3f ± %.3f (weight %g of %g)",
				name, got, want, tol, weights[name], weightSum))
		}
	}
	return violations
}

// FormatSummary renders the human-facing run report printed by
// `neofog-bench`.
func FormatSummary(sum Summary) string {
	m := sum.Measured
	out := fmt.Sprintf(
		"target=%s shards=%d seed=%d qps=%g duration=%.0fs\n"+
			"requests=%d completed=%d hits=%d (ratio %.3f) deduped=%d rejected429=%d errors=%d dropped=%d\n"+
			"jobs/s=%.1f p50=%.2fms p99=%.2fms p999=%.2fms elapsed=%.2fs\n"+
			"allocs/req=%.0f\n",
		sum.Target, sum.Shards, sum.Trace.Seed, sum.Trace.QPS, sum.Trace.DurationS,
		sum.Trace.Requests, m.Completed, m.CacheHits, m.HitRatio, m.Deduped, m.Rejected429, m.Errors, m.Dropped,
		m.JobsPerSec, m.P50Ms, m.P99Ms, m.P999Ms, m.ElapsedS,
		m.AllocsPerRequest)
	if len(m.Tenants) > 0 {
		var names []string
		for name := range m.Tenants {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			tm := m.Tenants[name]
			out += fmt.Sprintf("tenant %s: completed=%d rejected429=%d jobs/s=%.1f p99=%.2fms\n",
				name, tm.Completed, tm.Rejected429, tm.JobsPerSec, tm.P99Ms)
		}
	}
	return out + fmt.Sprintf("schedule=%s\n", sum.Trace.ScheduleSHA256[:16])
}
