package serve

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"

	"neofog/internal/telemetry"
)

// metricsRegistry is the server's thread-safe metrics store, exported at
// /metrics in Prometheus text format. Counters and gauges are plain
// maps; latency distributions reuse internal/telemetry's fixed-bucket
// Histogram so the simulator and the service share one histogram
// implementation (and its deterministic merge/export semantics).
type metricsRegistry struct {
	mu       sync.Mutex
	counters map[string]int64
	hists    map[string]*telemetry.Histogram
	// tenants holds the per-tenant QoS counters, exported as the
	// neofog_tenant_* families with a tenant label. Unknown tenant names
	// fold into the default tenant at admission, so this map's keys are
	// exactly the configured tenant set — bounded label cardinality.
	tenants map[string]*tenantCounters
	// queueWait tracks time spent queued before a worker picked the job
	// up — the admission predictor's ground truth. Created eagerly so the
	// /metrics exposition is deterministic from the first scrape.
	queueWait *telemetry.Histogram
}

// tenantCounters is one tenant's QoS counter set.
type tenantCounters struct {
	submitted     int64
	executed      int64
	rejectedDepth int64
	rejectedRate  int64
}

// jobSecondsBounds are the latency buckets (seconds) for per-kind job
// duration histograms: simulations run milliseconds to minutes.
var jobSecondsBounds = []float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10, 30, 60, 300}

func newMetrics() *metricsRegistry {
	r := telemetry.New()
	return &metricsRegistry{
		counters:  map[string]int64{},
		hists:     map[string]*telemetry.Histogram{},
		tenants:   map[string]*tenantCounters{},
		queueWait: r.RegisterHistogram("queue_wait_seconds", jobSecondsBounds),
	}
}

// registerTenant materializes a tenant's counter set eagerly so its
// series appear (at zero) from the first scrape.
func (m *metricsRegistry) registerTenant(name string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.tenantLocked(name)
}

func (m *metricsRegistry) tenantLocked(name string) *tenantCounters {
	tc, ok := m.tenants[name]
	if !ok {
		tc = &tenantCounters{}
		m.tenants[name] = tc
	}
	return tc
}

func (m *metricsRegistry) incTenantSubmitted(name string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.tenantLocked(name).submitted++
}

func (m *metricsRegistry) incTenantExecuted(name string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.tenantLocked(name).executed++
}

func (m *metricsRegistry) incTenantRejected(name, reason string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	tc := m.tenantLocked(name)
	if reason == "depth" {
		tc.rejectedDepth++
	} else {
		tc.rejectedRate++
	}
}

func (m *metricsRegistry) inc(name string, delta int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.counters[name] += delta
}

func (m *metricsRegistry) counter(name string) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.counters[name]
}

// observeJobSeconds records one finished job's latency under its kind.
func (m *metricsRegistry) observeJobSeconds(kind string, seconds float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	h, ok := m.hists[kind]
	if !ok {
		h = newJobHistogram()
		m.hists[kind] = h
	}
	h.Observe(seconds)
}

func newJobHistogram() *telemetry.Histogram {
	r := telemetry.New()
	return r.RegisterHistogram("job_seconds", jobSecondsBounds)
}

// observeQueueWait records how long one job sat queued before running.
func (m *metricsRegistry) observeQueueWait(seconds float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.queueWait.Observe(seconds)
}

// meanJobSeconds is the observed mean execution latency across all kinds
// (0 before any job finishes) — the service-time estimate behind
// deadline admission's predicted queue wait.
func (m *metricsRegistry) meanJobSeconds() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var sum float64
	var n int64
	for _, h := range m.hists {
		sum += h.Sum
		n += h.N
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// counterHelp documents the exported counters; keep in sorted name order
// with the writer below.
var counterHelp = map[string]string{
	"breaker_probes_total":               "Half-open probes attempted against a tripped disk tier.",
	"breaker_recoveries_total":           "Times a successful probe closed the disk breaker and write-through resumed.",
	"breaker_skipped_total":              "Disk-tier operations skipped outright because the breaker was open.",
	"breaker_trips_total":                "Times repeated I/O errors tripped the disk breaker open (degraded to memory-only).",
	"cache_evictions_total":              "Entries evicted entirely from the result cache (count bound or byte budget).",
	"cache_hits_total":                   "Submissions answered entirely from the result cache (either tier).",
	"cache_misses_total":                 "Submissions that started a new run.",
	"dedup_hits_total":                   "Submissions that attached to an identical in-flight job (single-flight).",
	"disk_corrupt_total":                 "Persisted results discarded because read-back verification failed.",
	"disk_write_errors_total":            "Disk-tier writes (bodies or index) that failed; affected entries stayed memory-only.",
	"index_resets_total":                 "Boot-time index loads that failed and reset the disk tier.",
	"jobs_cancelled_total":               "Jobs that ended cancelled.",
	"jobs_deadline_expired_total":        "Jobs whose deadline expired before or during execution (counted within cancelled).",
	"jobs_executed_total":                "Runs actually executed by the worker pool.",
	"jobs_failed_total":                  "Jobs that ended in an error.",
	"jobs_poisoned_total":                "Runs that panicked; the key was quarantined.",
	"jobs_submitted_total":               "Submissions accepted (including cache and dedup hits).",
	"matrix_cells_total":                 "Matrix cells fanned out into content-addressed jobs.",
	"matrix_requests_total":              "Batch matrix submissions accepted (either flavor).",
	"submit_rejected_deadline_total":     "Submissions rejected with 429 because the predicted queue wait exceeded the deadline.",
	"submit_rejected_draining_total":     "Submissions rejected with 503 during drain.",
	"submit_rejected_full_total":         "Submissions rejected with 429 because the queue was full.",
	"submit_rejected_poisoned_total":     "Submissions rejected with 422 because the key was quarantined after repeated panics.",
	"submit_rejected_tenant_depth_total": "Submissions rejected with 429 because the tenant's queue-depth cap was full.",
	"submit_rejected_tenant_rate_total":  "Submissions rejected with 429 because the tenant's rate-limit bucket was empty.",
	"tier_demotions_total":               "Memory-tier bodies demoted to disk-only to fit the resident bound.",
	"tier_hits_disk_total":               "Cache hits served by promoting a demoted entry from the disk tier.",
	"tier_hits_memory_total":             "Cache hits served from the memory tier.",
	"tier_misses_disk_total":             "Disk-tier reads that found no servable entry (missing or corrupt) and forced a recompute.",
	"tier_promotions_total":              "Disk entries promoted back into the memory tier.",
}

// gauge is one live value the server computes at scrape time.
type gauge struct {
	name string
	help string
	val  float64
}

// tenantRow is one tenant's scrape-time state: its configured weight
// and live queue depth, read from the scheduler under the server mutex.
// Rows arrive in tenant-name order, which keeps the neofog_tenant_*
// exposition deterministic.
type tenantRow struct {
	name   string
	weight float64
	queued int
}

// writePrometheus renders the registry plus the given live gauges and
// per-tenant rows in Prometheus text exposition format. Output is
// deterministic: metrics appear in sorted name order, histogram kinds
// and tenant labels in sorted label order.
func (m *metricsRegistry) writePrometheus(w io.Writer, gauges []gauge, tenants []tenantRow) error {
	m.mu.Lock()
	defer m.mu.Unlock()

	names := make([]string, 0, len(counterHelp))
	for name := range counterHelp {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		full := "neofog_serve_" + name
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n",
			full, counterHelp[name], full, full, m.counters[name]); err != nil {
			return err
		}
	}

	for _, g := range gauges {
		full := "neofog_serve_" + g.name
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %s\n",
			full, g.help, full, full, formatFloat(g.val)); err != nil {
			return err
		}
	}

	kinds := make([]string, 0, len(m.hists))
	for kind := range m.hists {
		kinds = append(kinds, kind)
	}
	sort.Strings(kinds)
	if len(kinds) > 0 {
		const full = "neofog_serve_job_seconds"
		if _, err := fmt.Fprintf(w, "# HELP %s Job execution latency in seconds, by kind.\n# TYPE %s histogram\n",
			full, full); err != nil {
			return err
		}
		for _, kind := range kinds {
			h := m.hists[kind]
			cum := int64(0)
			for i, bound := range h.Bounds {
				cum += h.Counts[i]
				if _, err := fmt.Fprintf(w, "%s_bucket{kind=%q,le=%q} %d\n",
					full, kind, formatFloat(bound), cum); err != nil {
					return err
				}
			}
			cum += h.Counts[len(h.Bounds)]
			if _, err := fmt.Fprintf(w, "%s_bucket{kind=%q,le=\"+Inf\"} %d\n", full, kind, cum); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_sum{kind=%q} %s\n%s_count{kind=%q} %d\n",
				full, kind, formatFloat(h.Sum), full, kind, h.N); err != nil {
				return err
			}
		}
	}

	const qw = "neofog_serve_queue_wait_seconds"
	if _, err := fmt.Fprintf(w, "# HELP %s Time jobs spent queued before a worker picked them up.\n# TYPE %s histogram\n",
		qw, qw); err != nil {
		return err
	}
	h := m.queueWait
	cum := int64(0)
	for i, bound := range h.Bounds {
		cum += h.Counts[i]
		if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", qw, formatFloat(bound), cum); err != nil {
			return err
		}
	}
	cum += h.Counts[len(h.Bounds)]
	if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %s\n%s_count %d\n",
		qw, cum, qw, formatFloat(h.Sum), qw, h.N); err != nil {
		return err
	}
	return m.writeTenantsLocked(w, tenants)
}

// writeTenantsLocked renders the neofog_tenant_* families — note the
// distinct prefix: these are per-tenant QoS series, labelled by tenant,
// that the router's metrics fan-in aggregates across shards like any
// other labelled series. Callers hold m.mu.
func (m *metricsRegistry) writeTenantsLocked(w io.Writer, tenants []tenantRow) error {
	if len(tenants) == 0 {
		return nil
	}
	counters := func(name string) tenantCounters {
		if tc, ok := m.tenants[name]; ok {
			return *tc
		}
		return tenantCounters{}
	}
	families := []struct {
		name, typ, help string
		write           func(full string, row tenantRow) string
	}{
		{"jobs_submitted_total", "counter", "Submissions attributed to the tenant (including cache and dedup hits).",
			func(full string, row tenantRow) string {
				return fmt.Sprintf("%s{tenant=%q} %d\n", full, row.name, counters(row.name).submitted)
			}},
		{"jobs_executed_total", "counter", "Runs the worker pool executed for the tenant.",
			func(full string, row tenantRow) string {
				return fmt.Sprintf("%s{tenant=%q} %d\n", full, row.name, counters(row.name).executed)
			}},
		{"rejected_total", "counter", "Submissions rejected by the tenant's own admission control, by reason (depth or rate).",
			func(full string, row tenantRow) string {
				tc := counters(row.name)
				return fmt.Sprintf("%s{reason=\"depth\",tenant=%q} %d\n%s{reason=\"rate\",tenant=%q} %d\n",
					full, row.name, tc.rejectedDepth, full, row.name, tc.rejectedRate)
			}},
		{"queue_depth", "gauge", "Jobs the tenant has waiting for a worker.",
			func(full string, row tenantRow) string {
				return fmt.Sprintf("%s{tenant=%q} %d\n", full, row.name, row.queued)
			}},
		{"weight", "gauge", "The tenant's configured weighted-fair scheduling share.",
			func(full string, row tenantRow) string {
				return fmt.Sprintf("%s{tenant=%q} %s\n", full, row.name, formatFloat(row.weight))
			}},
	}
	for _, fam := range families {
		full := "neofog_tenant_" + fam.name
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", full, fam.help, full, fam.typ); err != nil {
			return err
		}
		for _, row := range tenants {
			if _, err := io.WriteString(w, fam.write(full, row)); err != nil {
				return err
			}
		}
	}
	return nil
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
