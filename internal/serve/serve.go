package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"neofog"
	"neofog/internal/qos"
)

// Config tunes a Server. The zero value is serviceable: GOMAXPROCS
// workers, a 64-deep queue, a 1024-entry result cache, the wall clock.
type Config struct {
	// Workers is the worker-pool width (default GOMAXPROCS). Each worker
	// runs one job at a time; jobs themselves may fan out further via
	// the experiments' Parallel option, which stays GOMAXPROCS-bounded.
	Workers int
	// QueueDepth bounds the number of jobs waiting for a worker; a full
	// queue rejects new submissions with 429 (default 64).
	QueueDepth int
	// Tenants is the multi-tenant QoS policy: per-tenant weighted-fair
	// scheduling shares, queue-depth caps, and token-bucket rate limits.
	// Empty means one unlimited default tenant, which degenerates to
	// plain FIFO — the pre-QoS behavior, byte for byte.
	Tenants []qos.TenantConfig
	// AssumedJobSeconds is deadline admission's cold-start prior: the
	// service-time estimate used before any job has finished. 0 keeps
	// the historical behavior (no latency signal → never reject).
	AssumedJobSeconds float64
	// CacheEntries bounds how many finished jobs (and so cached results)
	// are retained; the oldest finished job is evicted first. Queued and
	// running jobs are never evicted (default 1024).
	CacheEntries int
	// CacheIndexPath, when non-empty, receives a JSON index of the cache
	// (key, job ID, kind, status, hit counts) when Drain completes, so an
	// operator can audit what the daemon served. It uses the same codec
	// as the disk tier's persistent index and is written atomically.
	CacheIndexPath string
	// CacheDir, when non-empty, enables the disk tier: result bodies are
	// persisted crash-safely at CacheDir/<canonical-key> as they
	// complete, each file carrying its own catalog record, and warmed
	// lazily on boot — a restarted daemon, drained or killed, serves
	// previously computed results byte-identically, with "cached":true,
	// without recomputing. CacheDir/index.json keeps hit counts and LRU
	// order; it is written at boot and at drain. Empty disables the tier
	// (memory-only, the pre-disk behavior).
	CacheDir string
	// CacheBudget bounds the total retained result bytes across both
	// tiers (each entry counted once). Least-recently-used entries are
	// evicted entirely when it is exceeded. 0 means unlimited. Only
	// meaningful with CacheDir set.
	CacheBudget int64
	// Clock injects time for tests (default time.Now). All job
	// timestamps and latency observations go through it.
	Clock func() time.Time
	// FS is the filesystem the disk tier runs on (default the real one).
	// Tests wrap it in a FaultFS to inject deterministic I/O errors.
	FS FS

	// DefaultDeadline, when positive, applies to submissions that carry
	// no explicit deadline. Zero means no default — such jobs run
	// unbounded, the pre-deadline behavior.
	DefaultDeadline time.Duration
	// MaxDeadline, when positive, caps client-requested deadlines;
	// longer requests are silently clamped rather than rejected.
	MaxDeadline time.Duration

	// PoisonRetries is how many panicked runs a key is allowed before
	// submissions for it are rejected outright (default 3).
	PoisonRetries int
	// PoisonTTL is how long a quarantine lasts after its latest panic;
	// past it the key gets a clean slate (default 5m).
	PoisonTTL time.Duration

	// BreakerThreshold is the consecutive disk-I/O-error streak that
	// trips the disk tier's circuit breaker open (default 3).
	BreakerThreshold int
	// BreakerProbe is how long the breaker stays open before the next
	// disk operation runs as a half-open probe (default 5s).
	BreakerProbe time.Duration
	// RequireDisk makes /readyz report 503 while the disk breaker is
	// open, for deployments where memory-only serving should shed load
	// to healthier replicas instead of absorbing it.
	RequireDisk bool

	// AccessLog, when non-nil, receives one structured line per HTTP
	// request (method, path, job key prefix, status, latency, deadline
	// remaining).
	AccessLog io.Writer
	// ErrorLog, when non-nil, receives operational noise worth paging
	// on: per-job panic stacks and disk-breaker transitions.
	ErrorLog *log.Logger

	// ExecHook, when non-nil, runs on the worker goroutine (keyed by the
	// job's canonical key) after a job turns running and before its facade
	// call. It exists for tests, which park jobs at a deterministic point
	// or inject panics with it; a running server reads it under its mutex,
	// so tests in this package may also swap it there. Production leaves
	// it nil.
	ExecHook func(key string)
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 1024
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	if c.FS == nil {
		c.FS = OSFS()
	}
	if c.PoisonRetries <= 0 {
		c.PoisonRetries = 3
	}
	if c.PoisonTTL <= 0 {
		c.PoisonTTL = 5 * time.Minute
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerProbe <= 0 {
		c.BreakerProbe = 5 * time.Second
	}
	return c
}

// Server is the simulation service: a content-addressed job store, a
// bounded worker pool, and the HTTP API over them. Create with New,
// mount Handler, and call Drain to shut down gracefully.
type Server struct {
	cfg     Config
	metrics *metrics

	mu       sync.Mutex
	store    *resultStore // disk tier bookkeeping; nil when CacheDir is empty
	poisoned map[string]*poisonRecord
	byKey    map[string]*job
	byID     map[string]*job // the same jobs by public ID, for O(1) lookups
	order    []string        // submission order of keys, for listing and eviction
	sched    *qos.Scheduler[*job]
	notEmpty *sync.Cond // signals workers on push and on drain start
	running  int
	draining bool

	workers sync.WaitGroup
}

// New builds a Server and starts its worker pool. With CacheDir set it
// also opens the disk tier: stale temp files are swept, the index is
// loaded (a mangled one resets the tier), files it does not list are
// adopted from their headers (or removed when those do not parse), every
// such result reappears as a done job whose body stays on disk until its
// first hit, and the reconciled catalog is written back.
func New(cfg Config) (*Server, error) {
	s := &Server{
		cfg:      cfg.withDefaults(),
		byKey:    map[string]*job{},
		byID:     map[string]*job{},
		poisoned: map[string]*poisonRecord{},
	}
	sched, err := qos.NewScheduler[*job](s.cfg.Tenants)
	if err != nil {
		return nil, err
	}
	s.sched = sched
	s.metrics = newMetrics(s.cfg, sched.Tenants())
	s.notEmpty = sync.NewCond(&s.mu)
	if s.cfg.CacheDir != "" {
		brk := newBreaker(s.cfg.BreakerThreshold, s.cfg.BreakerProbe, s.cfg.Clock, s.metrics)
		store, warm := newResultStore(s.cfg.CacheDir, s.cfg.CacheBudget, s.cfg.CacheEntries, s.cfg.FS, brk, s.metrics)
		s.store = store
		if brk.degraded() && s.cfg.ErrorLog != nil {
			s.cfg.ErrorLog.Printf("serve: cache dir %s unusable at boot; disk tier degraded (memory-only)", s.cfg.CacheDir)
		}
		for _, e := range warm {
			j := warmJob(e)
			s.addJobLocked(j)
			s.store.adopt(j, e)
		}
		// The budget may have shrunk since the catalog was written:
		// trim the warm set LRU-first before serving anything.
		for s.store.budget > 0 && s.store.total > s.store.budget {
			victim := s.store.lru(nil, false)
			if victim == nil {
				break
			}
			s.store.dropEntry(victim)
			s.metrics.cacheEvictions.Add(1)
			s.removeJobLocked(victim.j)
		}
		s.store.flushIndex()
	}
	for i := 0; i < s.cfg.Workers; i++ {
		s.workers.Add(1)
		go s.worker()
	}
	return s, nil
}

// submitOutcome reports how a submission was satisfied.
type submitOutcome int

const (
	outcomeNew submitOutcome = iota
	outcomeCached
	outcomeDeduped
	outcomeQueueFull
	outcomeDraining
	outcomeDeadline    // predicted queue wait already exceeds the deadline
	outcomePoisoned    // key quarantined after repeated panics
	outcomeTenantDepth // the tenant's own queue-depth cap is full
	outcomeTenantRate  // the tenant's token bucket is empty
)

// submit resolves one normalized request against the job store: answer
// from cache, attach to an identical in-flight job, or enqueue a fresh
// run. The whole decision is one critical section, which is what makes
// the deduplication single-flight — two identical concurrent
// submissions cannot both observe "no such job". deadline is the
// client's time budget (0 = none); tenant is the submission's resolved
// QoS identity and class its scheduling class; the retryAfter return,
// when positive, is the server's hint for when a rejected submission is
// worth retrying. The returned *job is what callers that must wait on
// completion select on (the matrix fan-out holds it and waits on
// job.done); it is nil on every rejection outcome.
func (s *Server) submit(req Request, key string, deadline time.Duration, tenant string, class qos.Class) (*job, Job, submitOutcome, time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()

	if s.draining {
		s.metrics.rejectedDraining.Add(1)
		return nil, Job{}, outcomeDraining, 0
	}
	tenant = s.sched.Resolve(tenant)
	s.metrics.jobsSubmitted.Add(1)
	s.metrics.tenantSubmitted.Add(1, tenant)
	now := s.cfg.Clock()

	// Quarantine gate: a key whose runs keep panicking is rejected until
	// its TTL lapses; below the retry cap a resubmission re-runs it (the
	// panic may have been environmental).
	if rec, ok := s.poisoned[key]; ok {
		if !now.Before(rec.until) {
			delete(s.poisoned, key) // quarantine lapsed: clean slate
		} else if rec.count >= s.cfg.PoisonRetries {
			s.metrics.rejectedPoisoned.Add(1)
			var snap Job
			if j, ok := s.byKey[key]; ok {
				snap = j.snapshot()
			}
			return nil, snap, outcomePoisoned, rec.until.Sub(now)
		}
	}

	if j, ok := s.byKey[key]; ok {
		switch {
		case j.status == StatusDone:
			fromDisk := s.store != nil && j.result == nil
			if s.promoteLocked(j) {
				if fromDisk {
					s.metrics.tierHitsDisk.Add(1)
				} else {
					s.metrics.tierHitsMemory.Add(1)
				}
				j.hits++
				s.metrics.cacheHits.Add(1)
				return j, j.snapshot(), outcomeCached, 0
			}
			// The persisted result failed verification and was discarded
			// (promoteLocked already removed the job): recompute under the
			// same key — a corrupt entry must never serve bad bytes.
		case !j.terminal():
			j.hits++
			s.metrics.dedupHits.Add(1)
			return j, j.snapshot(), outcomeDeduped, 0
		}
		// failed, cancelled, or poisoned-below-cap: fall through and retry
		// with a fresh run, reusing the key's slot (and so its
		// deterministic job ID).
	}

	// Deadline-aware admission: enqueueing a job whose predicted queue
	// wait already exceeds its budget would burn a worker on a result
	// nobody can use — reject now and tell the client when to retry.
	wait := s.predictedWaitLocked()
	if deadline > 0 && wait > deadline {
		s.metrics.rejectedDeadline.Add(1)
		return nil, Job{}, outcomeDeadline, wait
	}

	// The global queue-full check runs before tenant admission: both it
	// and the depth cap are side-effect free, so a submission turned
	// away because the shared queue (or the tenant's slice of it) is
	// full never burns a rate token — resubmitting after a full
	// rejection costs the tenant nothing, which the matrix retry loop
	// relies on. Only a genuinely enqueueable submission reaches the
	// rate bucket.
	if s.sched.Len() >= s.cfg.QueueDepth {
		s.metrics.rejectedFull.Add(1)
		return nil, Job{}, outcomeQueueFull, wait
	}

	// Tenant admission runs only for genuinely new work — cache and
	// dedup hits above cost no queue slot and spend no rate token. A
	// depth rejection's retry hint is the predicted drain time of the
	// tenant's own subqueue (the global estimate would charge it for
	// unrelated tenants' backlogs); a rate rejection's is the bucket
	// refill.
	switch res, retry := s.sched.Admit(tenant, now); res {
	case qos.RejectedDepth:
		s.metrics.rejectedTenantDepth.Add(1)
		s.metrics.tenantRejected.Add(1, "depth", tenant)
		return nil, Job{}, outcomeTenantDepth, s.queuedWaitLocked(s.sched.TenantLen(tenant))
	case qos.RejectedRate:
		s.metrics.rejectedTenantRate.Add(1)
		s.metrics.tenantRejected.Add(1, "rate", tenant)
		return nil, Job{}, outcomeTenantRate, retry
	}

	ctx, cancel := context.WithCancel(context.Background())
	var dl time.Time
	if deadline > 0 {
		dl = now.Add(deadline)
		ctx, cancel = context.WithDeadline(context.Background(), dl)
	}
	j := &job{
		id:          jobID(key),
		key:         key,
		kind:        req.Kind,
		req:         req,
		tenant:      tenant,
		class:       class,
		status:      StatusQueued,
		submittedAt: now,
		deadline:    dl,
		ctx:         ctx,
		cancel:      cancel,
		done:        make(chan struct{}),
		bcast:       newBroadcaster(),
	}
	s.sched.Push(tenant, class, j)
	s.notEmpty.Signal()
	s.addJobLocked(j)
	s.metrics.cacheMisses.Add(1)
	s.evictLocked()
	return j, j.snapshot(), outcomeNew, 0
}

// predictedWaitLocked estimates how long a job enqueued now would wait
// for a worker: queue-ahead batches times the observed mean job
// latency. Before any job has finished, the configured cold-start prior
// (AssumedJobSeconds) stands in for the mean; with neither signal nor
// prior — or with a free worker and an empty queue — the estimate is
// zero, and admission never rejects on a guess it has no data for.
// Callers hold s.mu.
func (s *Server) predictedWaitLocked() time.Duration {
	return s.queuedWaitLocked(s.sched.Len())
}

// queuedWaitLocked is predictedWaitLocked generalized to an arbitrary
// queued-item count — used with a tenant's own queue length to scope a
// depth-rejection Retry-After to that tenant's backlog rather than the
// whole shared queue. Callers hold s.mu.
func (s *Server) queuedWaitLocked(queued int) time.Duration {
	mean := s.metrics.jobSeconds.Mean()
	if mean == 0 {
		mean = s.cfg.AssumedJobSeconds
	}
	if mean == 0 {
		return 0
	}
	if queued == 0 && s.running < s.cfg.Workers {
		return 0
	}
	batches := 1 + queued/s.cfg.Workers
	return time.Duration(float64(batches) * mean * float64(time.Second))
}

// poisonLocked records one panicked run against a key. Callers hold
// s.mu.
func (s *Server) poisonLocked(key string) {
	rec, ok := s.poisoned[key]
	if !ok {
		rec = &poisonRecord{}
		s.poisoned[key] = rec
	}
	rec.count++
	rec.until = s.cfg.Clock().Add(s.cfg.PoisonTTL)
}

// promoteLocked ensures a done job's result bytes are in memory,
// promoting from the disk tier when demoted. It reports false when the
// result is lost — the disk copy missing or failing verification — in
// which case the job is removed from the store entirely (like an
// eviction) and the caller recomputes or 404s. Without a disk tier a
// done job's bytes are always resident and this is a no-op. Callers
// hold s.mu.
func (s *Server) promoteLocked(j *job) bool {
	if s.store == nil || j.result != nil {
		if s.store != nil {
			s.store.touch(j.key)
		}
		return true
	}
	if s.store.promote(j) {
		return true
	}
	s.removeJobLocked(j)
	return false
}

// addJobLocked files j under its key and ID, replacing any earlier job
// for the same key in place (the key keeps its submission-order slot).
// Callers hold s.mu.
func (s *Server) addJobLocked(j *job) {
	if _, existed := s.byKey[j.key]; !existed {
		s.order = append(s.order, j.key)
	}
	s.byKey[j.key] = j
	s.byID[j.id] = j
}

// removeJobLocked forgets a job entirely. Callers hold s.mu.
func (s *Server) removeJobLocked(j *job) {
	delete(s.byKey, j.key)
	delete(s.byID, j.id)
	for i, key := range s.order {
		if key == j.key {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
}

// evictLocked drops the oldest finished jobs until the store fits the
// configured bound; in-flight jobs are never evicted. With the disk
// tier enabled, done jobs are exempt — their retention is the result
// store's business (CacheEntries bounds resident bodies via demotion,
// CacheBudget bounds total bytes via LRU eviction) — so only failed and
// cancelled husks are reaped here. Callers hold s.mu.
func (s *Server) evictLocked() {
	excess := len(s.byKey) - s.cfg.CacheEntries
	if excess <= 0 {
		return
	}
	kept := s.order[:0]
	for _, key := range s.order {
		j := s.byKey[key]
		evictable := j != nil && j.terminal() && (s.store == nil || j.status != StatusDone)
		if excess > 0 && evictable {
			delete(s.byKey, key)
			delete(s.byID, j.id)
			s.metrics.cacheEvictions.Add(1)
			excess--
			continue
		}
		kept = append(kept, key)
	}
	s.order = kept
}

// worker pops scheduler dispatches until Drain empties the queue. The
// scheduler replaces the old queue channel: workers pull the next job
// under the server mutex — which is what makes dispatch order exactly
// the scheduler's WFQ order — and park on the condition variable when
// nothing is queued.
func (s *Server) worker() {
	defer s.workers.Done()
	s.mu.Lock()
	for {
		j, ok := s.sched.Pop()
		if !ok {
			if s.draining {
				s.mu.Unlock()
				return
			}
			s.notEmpty.Wait()
			continue
		}
		s.mu.Unlock()
		s.runJob(j)
		s.mu.Lock()
	}
}

// runJob executes one job end to end: mark running, run the facade call
// with a streaming telemetry attached, store the marshaled result, and
// broadcast the terminal event. The result bytes are marshaled exactly
// once and served verbatim afterwards, which is what makes cached and
// fresh responses byte-identical.
func (s *Server) runJob(j *job) {
	s.mu.Lock()
	if j.status != StatusQueued { // cancelled while queued
		s.mu.Unlock()
		return
	}
	now := s.cfg.Clock()
	s.metrics.queueWait.Observe(now.Sub(j.submittedAt).Seconds())
	// A job whose deadline expired (or that was cancelled) while it sat
	// in the queue skips execution — don't burn a worker on a result
	// nobody can use — and goes straight to the terminal switch with its
	// context error.
	var result json.RawMessage
	err := j.ctx.Err()
	if err == nil {
		j.status = StatusRunning
		j.startedAt = now
		s.running++
		hook := s.cfg.ExecHook
		s.mu.Unlock()
		s.metrics.jobsExecuted.Add(1)
		s.metrics.tenantExecuted.Add(1, j.tenant)
		j.bcast.publish("status", Job{ID: j.id, Key: j.key, Kind: j.kind, Status: StatusRunning})

		result, err = s.executeGuarded(j, hook)

		s.mu.Lock()
		now = s.cfg.Clock()
		s.running--
		s.metrics.jobSeconds.Observe(now.Sub(j.startedAt).Seconds(), j.kind)
	}
	j.finishedAt = now
	var pe *panicError
	switch {
	case err == nil:
		j.status = StatusDone
		if s.store != nil {
			// Write-through: the body lands on disk (crash-safely) in the
			// same critical section that flips the status, so any client
			// that observes "done" can rely on the entry surviving a
			// crash. The byte budget may evict older entries entirely.
			for _, ej := range s.store.put(j, result) {
				s.removeJobLocked(ej)
			}
		} else {
			j.result = result
		}
	case errors.As(err, &pe):
		// A panic is quarantined, not just failed: the key is marked
		// poisoned so a config that reliably crashes the worker can only
		// retry a capped number of times before it is rejected outright.
		j.status = StatusPoisoned
		j.err = err
		s.poisonLocked(j.key)
		s.metrics.jobsPoisoned.Add(1)
		if s.cfg.ErrorLog != nil {
			s.cfg.ErrorLog.Printf("serve: job %s (key %s) panicked: %v\n%s", j.id, j.key, pe.val, pe.stack)
		}
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		j.status = StatusCancelled
		j.err = err
		s.metrics.jobsCancelled.Add(1)
		if errors.Is(err, context.DeadlineExceeded) {
			s.metrics.jobsDeadlineExpired.Add(1)
		}
	default:
		j.status = StatusFailed
		j.err = err
		s.metrics.jobsFailed.Add(1)
	}
	snap := j.snapshot()
	s.mu.Unlock()

	j.cancel()
	close(j.done)
	if snap.Status == StatusDone {
		j.bcast.finish("result", snap)
	} else {
		j.bcast.finish("error", snap)
	}
}

// executeGuarded runs the test hook and the facade call under a panic
// recovery: a panicking job must cost the service exactly one job, not a
// worker goroutine (an unrecovered panic would kill the process). The
// recovered value and stack come back as a *panicError for the terminal
// switch to quarantine.
func (s *Server) executeGuarded(j *job, hook func(key string)) (result json.RawMessage, err error) {
	defer func() {
		if r := recover(); r != nil {
			result, err = nil, &panicError{val: r, stack: debug.Stack()}
		}
	}()
	if hook != nil {
		hook(j.key)
	}
	if cerr := j.ctx.Err(); cerr != nil {
		return nil, cerr // deadline expired between pickup and execution
	}
	return s.execute(j)
}

// execute dispatches to the facade. Each job gets a stream-only
// telemetry collector wired to its SSE broadcaster: records go straight
// to any subscribers and nothing is kept, since serve never reads a
// job's telemetry back. Telemetry is proven non-perturbing, so observed
// results equal unobserved ones.
func (s *Server) execute(j *job) (json.RawMessage, error) {
	tel := neofog.NewStreamingTelemetry(jobStreamer{j.bcast})
	switch j.kind {
	case KindSimulate:
		cfg := *j.req.Config
		cfg.Telemetry = tel
		res, err := neofog.Simulate(cfg)
		if err != nil {
			return nil, err
		}
		return json.Marshal(res)

	case KindFleet:
		cfg := *j.req.Config
		cfg.Telemetry = tel
		res, err := neofog.SimulateFleet(cfg, j.req.Chains)
		if err != nil {
			return nil, err
		}
		return json.Marshal(res)

	case KindExperiment:
		opts := *j.req.Options
		opts.Context = j.ctx
		opts.Telemetry = tel
		var output string
		if j.req.Format == "csv" {
			var buf bytes.Buffer
			if err := neofog.RunExperimentCSV(j.req.Experiment, opts, &buf); err != nil {
				return nil, err
			}
			output = buf.String()
		} else {
			var err error
			output, err = neofog.RunExperiment(j.req.Experiment, opts)
			if err != nil {
				return nil, err
			}
		}
		return json.Marshal(experimentResult{
			Experiment: j.req.Experiment,
			Format:     j.req.Format,
			Output:     output,
		})
	}
	return nil, fmt.Errorf("unknown job kind %q", j.kind)
}

// lookup returns the job with the given public ID.
func (s *Server) lookup(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.byID[id]
	return j, ok
}

// snapshotByID returns the public snapshot of the job with the given
// ID, promoting its result from the disk tier first when demoted — a
// disk hit must be indistinguishable from a memory hit at the HTTP
// surface. A done job whose persisted result fails verification is
// discarded (reported as not found, exactly like an eviction); the next
// submission of its configuration recomputes it.
func (s *Server) snapshotByID(id string) (Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.byID[id]
	if !ok || (j.status == StatusDone && !s.promoteLocked(j)) {
		return Job{}, false
	}
	return j.snapshot(), true
}

// cancelJob cancels a job by ID, best-effort: a queued job is struck
// before it runs; a running experiment stops at its next sweep point; a
// running simulation completes (single runs are not interruptible) and
// still caches its result.
func (s *Server) cancelJob(id string) (Job, bool) {
	s.mu.Lock()
	target, ok := s.byID[id]
	if !ok {
		s.mu.Unlock()
		return Job{}, false
	}
	if target.status == StatusQueued {
		target.status = StatusCancelled
		target.finishedAt = s.cfg.Clock()
		target.err = context.Canceled
		s.metrics.jobsCancelled.Add(1)
		snap := target.snapshot()
		s.mu.Unlock()
		target.cancel()
		close(target.done)
		target.bcast.finish("error", snap)
		return snap, true
	}
	snap := target.snapshot()
	s.mu.Unlock()
	target.cancel() // running: the job finishes on its own schedule
	return snap, true
}

// jobs lists snapshots in submission order. Snapshots carry result
// bodies inline, so demoted entries are promoted on the way out (and
// entries that fail verification vanish from the listing, like
// evictions); listing is deliberately a full read of the cache.
func (s *Server) jobs() []Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := append([]string(nil), s.order...) // promotion failures mutate s.order
	out := make([]Job, 0, len(keys))
	for _, key := range keys {
		j, ok := s.byKey[key]
		if !ok {
			continue
		}
		if j.status == StatusDone && !s.promoteLocked(j) {
			continue
		}
		out = append(out, j.snapshot())
	}
	return out
}

// diskStateLocked reports the disk tier's health for /healthz and
// /readyz: "off" (no tier configured), "ok", or "degraded" (breaker
// open, memory-only). Callers hold s.mu.
func (s *Server) diskStateLocked() string {
	switch {
	case s.store == nil:
		return "off"
	case s.store.brk.degraded():
		return "degraded"
	default:
		return "ok"
	}
}

// counts tallies jobs by status; callers hold s.mu.
func (s *Server) countsLocked() map[string]int {
	c := map[string]int{}
	for _, j := range s.byKey {
		c[j.status]++
	}
	return c
}

// Drain gracefully shuts the service down: new submissions are rejected
// with 503 immediately, queued and running jobs complete, workers exit,
// and the disk tier's catalog and the audit index (when configured) are
// flushed. If ctx expires first, every remaining job's context is
// cancelled — experiments then stop at their next sweep point — and
// Drain still waits for the workers before returning ctx's error.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return errors.New("serve: already draining")
	}
	s.draining = true
	s.notEmpty.Broadcast() // wake parked workers so they observe draining
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.workers.Wait()
		close(done)
	}()

	var drainErr error
	select {
	case <-done:
	case <-ctx.Done():
		drainErr = ctx.Err()
		s.mu.Lock()
		for _, j := range s.byKey {
			j.cancel()
		}
		s.mu.Unlock()
		<-done
	}

	if err := s.flushCacheIndex(); err != nil && drainErr == nil {
		drainErr = err
	}
	return drainErr
}

// flushCacheIndex flushes the persistent disk-tier catalog (refreshing
// hit counts and LRU positions) and, when configured, the drain-time
// audit dump. Both go through the same codec and the same atomic write
// path — there is exactly one way an index reaches disk.
func (s *Server) flushCacheIndex() error {
	s.mu.Lock()
	if s.store != nil {
		s.store.flushIndex()
	}
	if s.cfg.CacheIndexPath == "" {
		s.mu.Unlock()
		return nil
	}
	f := indexFile{Version: indexVersion}
	for _, key := range s.order {
		j, ok := s.byKey[key]
		if !ok {
			continue
		}
		var e *storeEntry
		if s.store != nil {
			e = s.store.entries[key]
		}
		f.Entries = append(f.Entries, auditEntry(j, e))
	}
	s.mu.Unlock()
	b, err := encodeIndex(f)
	if err != nil {
		return err
	}
	return atomicWriteFile(s.cfg.FS, s.cfg.CacheIndexPath, b)
}
