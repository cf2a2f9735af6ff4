package serve

import (
	"neofog/internal/qos"
	"neofog/internal/telemetry"
)

// jobSecondsBounds are the latency buckets (seconds) for per-kind job
// duration histograms: simulations run milliseconds to minutes.
var jobSecondsBounds = []float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10, 30, 60, 300}

// metrics is the server's /metrics surface: one registry and a handle per
// family, registered in exposition order — the neofog_serve_* counters
// in name order, the gauges handleMetrics sets at scrape time, the two
// latency histograms, then the per-tenant neofog_tenant_* families.
type metrics struct {
	reg telemetry.Registry

	breakerProbes, breakerRecoveries, breakerSkipped, breakerTrips  telemetry.CounterVec
	cacheEvictions, cacheHits, cacheMisses, dedupHits               telemetry.CounterVec
	diskCorrupt, diskWriteErrors, indexResets                       telemetry.CounterVec
	jobsCancelled, jobsDeadlineExpired, jobsExecuted, jobsFailed    telemetry.CounterVec
	jobsPoisoned, jobsSubmitted, matrixCells, matrixRequests        telemetry.CounterVec
	rejectedDeadline, rejectedDraining, rejectedFull                telemetry.CounterVec
	rejectedPoisoned, rejectedTenantDepth, rejectedTenantRate       telemetry.CounterVec
	tierDemotions, tierHitsDisk, tierHitsMemory, tierMissesDisk     telemetry.CounterVec
	tierPromotions                                                  telemetry.CounterVec
	queueDepth, queueCapacity, jobsRunning, workers, cacheEntries   telemetry.GaugeVec
	cacheBytesMemory, cacheBytesDisk, cacheBudgetBytes, diskEntries telemetry.GaugeVec
	breakerState, poisonedKeys, draining                            telemetry.GaugeVec
	jobSeconds, queueWait                                           telemetry.HistogramVec
	tenantSubmitted, tenantExecuted, tenantRejected                 telemetry.CounterVec
	tenantQueueDepth, tenantWeight                                  telemetry.GaugeVec
}

// newMetrics registers every family. The configuration gauges are set
// here once, and each tenant's series start at zero, so a tenant that
// has not submitted anything still prints from the first scrape.
// Unknown tenant names fold into the default tenant at admission, so the
// tenant label takes only the configured names.
func newMetrics(cfg Config, tenants []qos.TenantConfig) *metrics {
	m := &metrics{}
	r := &m.reg
	counter := func(name, help string) telemetry.CounterVec { return r.Counter("neofog_serve_"+name, help) }
	gauge := func(name, help string) telemetry.GaugeVec { return r.Gauge("neofog_serve_"+name, help) }

	m.breakerProbes = counter("breaker_probes_total", "Half-open probes attempted against a tripped disk tier.")
	m.breakerRecoveries = counter("breaker_recoveries_total", "Times a successful probe closed the disk breaker and write-through resumed.")
	m.breakerSkipped = counter("breaker_skipped_total", "Disk-tier operations skipped outright because the breaker was open.")
	m.breakerTrips = counter("breaker_trips_total", "Times repeated I/O errors tripped the disk breaker open (degraded to memory-only).")
	m.cacheEvictions = counter("cache_evictions_total", "Entries evicted entirely from the result cache (count bound or byte budget).")
	m.cacheHits = counter("cache_hits_total", "Submissions answered entirely from the result cache (either tier).")
	m.cacheMisses = counter("cache_misses_total", "Submissions that started a new run.")
	m.dedupHits = counter("dedup_hits_total", "Submissions that attached to an identical in-flight job (single-flight).")
	m.diskCorrupt = counter("disk_corrupt_total", "Persisted results discarded because read-back verification failed.")
	m.diskWriteErrors = counter("disk_write_errors_total", "Disk-tier writes (bodies or index) that failed; affected entries stayed memory-only.")
	m.indexResets = counter("index_resets_total", "Boot-time index loads that failed and reset the disk tier.")
	m.jobsCancelled = counter("jobs_cancelled_total", "Jobs that ended cancelled.")
	m.jobsDeadlineExpired = counter("jobs_deadline_expired_total", "Jobs whose deadline expired before or during execution (counted within cancelled).")
	m.jobsExecuted = counter("jobs_executed_total", "Runs actually executed by the worker pool.")
	m.jobsFailed = counter("jobs_failed_total", "Jobs that ended in an error.")
	m.jobsPoisoned = counter("jobs_poisoned_total", "Runs that panicked; the key was quarantined.")
	m.jobsSubmitted = counter("jobs_submitted_total", "Submissions accepted (including cache and dedup hits).")
	m.matrixCells = counter("matrix_cells_total", "Matrix cells fanned out into content-addressed jobs.")
	m.matrixRequests = counter("matrix_requests_total", "Batch matrix submissions received with an accepted Content-Type, counted before the body is decoded.")
	m.rejectedDeadline = counter("submit_rejected_deadline_total", "Submissions rejected with 429 because the predicted queue wait exceeded the deadline.")
	m.rejectedDraining = counter("submit_rejected_draining_total", "Submissions rejected with 503 during drain.")
	m.rejectedFull = counter("submit_rejected_full_total", "Submissions rejected with 429 because the queue was full.")
	m.rejectedPoisoned = counter("submit_rejected_poisoned_total", "Submissions rejected with 422 because the key was quarantined after repeated panics.")
	m.rejectedTenantDepth = counter("submit_rejected_tenant_depth_total", "Submissions rejected with 429 because the tenant's queue-depth cap was full.")
	m.rejectedTenantRate = counter("submit_rejected_tenant_rate_total", "Submissions rejected with 429 because the tenant's rate-limit bucket was empty.")
	m.tierDemotions = counter("tier_demotions_total", "Memory-tier bodies demoted to disk-only to fit the resident bound.")
	m.tierHitsDisk = counter("tier_hits_disk_total", "Cache hits served by promoting a demoted entry from the disk tier.")
	m.tierHitsMemory = counter("tier_hits_memory_total", "Cache hits served from the memory tier.")
	m.tierMissesDisk = counter("tier_misses_disk_total", "Disk-tier reads that found no servable entry (missing or corrupt) and forced a recompute.")
	m.tierPromotions = counter("tier_promotions_total", "Disk entries promoted back into the memory tier.")

	m.queueDepth = gauge("queue_depth", "Jobs waiting for a worker.")
	m.queueCapacity = gauge("queue_capacity", "Queue depth bound; submissions beyond it get 429.")
	m.jobsRunning = gauge("jobs_running", "Jobs currently executing.")
	m.workers = gauge("workers", "Worker-pool width.")
	m.cacheEntries = gauge("cache_entries", "Jobs retained in the content-addressed store.")
	m.cacheBytesMemory = gauge("cache_bytes_memory", "Result bytes resident in the memory tier.")
	m.cacheBytesDisk = gauge("cache_bytes_disk", "Result bytes persisted in the disk tier.")
	m.cacheBudgetBytes = gauge("cache_budget_bytes", "Byte budget across both tiers; 0 = unlimited.")
	m.diskEntries = gauge("disk_entries", "Entries persisted in the disk tier.")
	m.breakerState = gauge("breaker_state", "Disk breaker state: 0 closed, 1 half-open, 2 open (degraded).")
	m.poisonedKeys = gauge("poisoned_keys", "Job keys currently quarantined after panics.")
	m.draining = gauge("draining", "1 while draining (new submissions rejected).")

	m.jobSeconds = r.Histogram("neofog_serve_job_seconds", "Job execution latency in seconds, by kind.", jobSecondsBounds, "kind")
	// Queue wait is the admission predictor's ground truth.
	m.queueWait = r.Histogram("neofog_serve_queue_wait_seconds", "Time jobs spent queued before a worker picked them up.", jobSecondsBounds)

	m.tenantSubmitted = r.Counter("neofog_tenant_jobs_submitted_total", "Submissions attributed to the tenant (including cache and dedup hits).", "tenant")
	m.tenantExecuted = r.Counter("neofog_tenant_jobs_executed_total", "Runs the worker pool executed for the tenant.", "tenant")
	m.tenantRejected = r.Counter("neofog_tenant_rejected_total", "Submissions rejected by the tenant's own admission control, by reason (depth or rate).", "reason", "tenant")
	m.tenantQueueDepth = r.Gauge("neofog_tenant_queue_depth", "Jobs the tenant has waiting for a worker.", "tenant")
	m.tenantWeight = r.Gauge("neofog_tenant_weight", "The tenant's configured weighted-fair scheduling share.", "tenant")

	m.queueCapacity.Set(float64(cfg.QueueDepth))
	m.workers.Set(float64(cfg.Workers))
	m.cacheBudgetBytes.Set(float64(cfg.CacheBudget))
	for _, tc := range tenants {
		m.tenantSubmitted.Add(0, tc.Name)
		m.tenantExecuted.Add(0, tc.Name)
		m.tenantRejected.Add(0, "depth", tc.Name)
		m.tenantRejected.Add(0, "rate", tc.Name)
		m.tenantQueueDepth.Set(0, tc.Name)
		m.tenantWeight.Set(tc.Weight, tc.Name)
	}
	return m
}
