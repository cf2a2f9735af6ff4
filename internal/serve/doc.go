// Package serve is the simulation-as-a-service daemon: a long-running
// HTTP server over the public facade (Simulate, SimulateFleet,
// RunExperiment) that turns the repo's batch evaluation into a fog
// service — POST a configuration, get a content-addressed job, poll or
// stream its progress, read its result.
//
// The design leans entirely on the determinism the earlier layers
// proved. Every run is a pure function of its canonical configuration
// (PR1), byte-identical under parallelism (PR4) and under observation
// (PR3), so the service can:
//
//   - content-address results: the normalized request is its own
//     canonical form — the cache key is the SHA-256 of its JSON
//     encoding (the envelope with neofog.CanonicalConfig's bytes as
//     its config, and options.parallel left out), and a job's ID is
//     derived from that key, which makes submission idempotent —
//     resubmitting a configuration returns the cached result, byte for
//     byte the same body a fresh run would produce. Bodies are decoded
//     strictly (DecodeBody): an unknown key or trailing data is a 400
//     that names the fault, and the router decodes through the same
//     function. A body already answered from the cache skips the
//     decode through a Memo, and a done job's answer is spliced from
//     its JSON prefix, marshalled once, and its stored result;
//   - single-flight deduplicate: identical requests that arrive while a
//     matching job is queued or running attach to that job instead of
//     spawning another run;
//   - bound its work: a fixed worker pool drains a fixed-depth queue,
//     and submissions beyond the queue's depth are rejected with 429
//     rather than buffered without bound;
//   - stream progress: each job carries a stream-only telemetry
//     collector (neofog.NewStreamingTelemetry) whose spans and per-node
//     samples are broadcast to SSE subscribers as the simulation records
//     them, with the final result as the terminal event; nothing is kept
//     once forwarded (a finished job's stream replays the job itself);
//   - persist results across restarts: with Config.CacheDir the result
//     store's disk tier is on — bodies are written through crash-safely
//     (temp + fsync + rename, one self-describing file per result whose
//     header carries its catalog record) as jobs complete, warm lazily
//     on the next boot, drained or killed, and are verified against
//     their recorded SHA-256 before a byte is re-served. The catalog
//     file (index.json, hit counts and LRU order) is written only at
//     boot and drain; boot adopts files it does not list from their
//     headers. A disk hit is byte-indistinguishable from a memory hit
//     at the HTTP surface; corrupt, truncated, or crash-torn files are
//     discarded and recomputed, never served. Config.CacheEntries
//     bounds the memory-resident bodies (LRU demotion to disk beyond
//     it) and Config.CacheBudget bounds total retained bytes across
//     both tiers (LRU eviction beyond it). Without CacheDir it is the
//     same store with its disk tier off: past either bound the least
//     recently used result is evicted with its job, so every daemon
//     retains by one rule.
//
// The containment layer (PR7) bounds what failure can cost:
//
//   - deadlines: a submission may carry a budget (?deadline= or the
//     X-Neofog-Deadline header; Config.DefaultDeadline/MaxDeadline set
//     policy) that a timer holds the job's context to. A job runs until
//     the last budget among the submissions deduped onto it lapses, and
//     a submission with none clears it. When the context ends (a lapsed
//     budget, a DELETE, a drain past its deadline) a queued job leaves
//     the queue cancelled at once. Admission is
//     deadline-aware — when the predicted queue wait (from the live
//     latency histograms) already exceeds the budget, the submit is
//     rejected with 429 and a Retry-After hint instead of queuing
//     doomed work;
//   - panic quarantine: a panicking job is recovered on the worker
//     (one job lost, never a goroutine), finalized with the distinct
//     terminal status "poisoned", and its key quarantined after
//     Config.PoisonRetries strikes for Config.PoisonTTL — submissions
//     meanwhile get 422 with the remaining TTL as Retry-After;
//   - disk circuit breaker: the store's filesystem ops go through the
//     injectable FS interface, and Config.BreakerThreshold consecutive
//     I/O errors trip a breaker that degrades the daemon to
//     memory-only serving (writes skipped, results still computed and
//     exact); half-open probes every Config.BreakerProbe detect
//     recovery, which re-persists the backlog automatically. A daemon
//     that boots on an unusable cache dir degrades instead of dying;
//   - one client: the internal/serve/client package pairs with the
//     server — capped full-jitter backoff floored by Retry-After,
//     typed errors (APIError, JobError), and idempotent resubmission
//     across restarts by content address. The load harness submits and
//     polls through it with retries off. TestChaosCampaign exercises
//     all of the above at once under a fixed seed.
//
// Operations: /healthz reports build version, live job counts, and the
// disk tier's state; /readyz is the routing signal (503 while draining,
// and while degraded under Config.RequireDisk);
// /metrics exposes Prometheus text-format counters, gauges and latency
// histograms (reusing internal/telemetry's fixed-bucket histograms), and
// Drain implements graceful shutdown — new submissions are rejected with
// 503 while queued and running jobs complete, then the cache index is
// flushed to disk for the operator.
//
// API summary (all request and response bodies are JSON):
//
//	POST   /v1/jobs              submit {kind, config|experiment, ...}
//	GET    /v1/jobs              list jobs, oldest submitted_at first
//	GET    /v1/jobs/{id}         one job's status (result inline when done)
//	GET    /v1/jobs/{id}/result  the raw result body alone
//	GET    /v1/jobs/{id}/stream  SSE: status, span, sample, ..., result
//	DELETE /v1/jobs/{id}         best-effort cancel
//	GET    /v1/experiments       servable experiment IDs
//	GET    /healthz              liveness, version, job counts, disk state
//	GET    /readyz               readiness (503: draining, or degraded
//	                             disk under Config.RequireDisk)
//	GET    /metrics              Prometheus text format
package serve
