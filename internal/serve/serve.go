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
	"slices"
	"strings"
	"sync"
	"time"

	"neofog"
	"neofog/internal/qos"
)

// DefaultCacheEntries is Config.CacheEntries when it is left at zero.
const DefaultCacheEntries = 1024

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
	// CacheEntries bounds how many finished results are held in memory
	// (default 1024). Past it the least recently used one is demoted to
	// the disk tier or, without one, evicted with its job. It also bounds
	// the job table: failed, cancelled and poisoned jobs are reaped,
	// oldest submission first, once it holds more jobs than this. Queued
	// and running jobs are never evicted.
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
	// order; it is written at boot and at drain. Empty turns the tier
	// off: the same store keeps results in memory only.
	CacheDir string
	// CacheBudget bounds the total retained result bytes across both
	// tiers (each entry counted once). Least-recently-used entries are
	// evicted entirely when it is exceeded. 0 means unlimited.
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
		c.CacheEntries = DefaultCacheEntries
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
	// memo skips the decode of bodies already answered from the cache.
	// The cache keeps at most CacheEntries results in memory, and the
	// memo at most that many bodies.
	memo *Memo

	mu       sync.Mutex
	store    *resultStore // the only retention policy for done results
	poisoned map[string]*poisonRecord
	// table files every job the daemon answers for under its public ID.
	// The store shares it: a done job in it is a retained result, and
	// dropping the result drops the job.
	table    map[string]*job
	husks    int // the failed, cancelled and poisoned jobs table files
	sched    *qos.Scheduler[*job]
	notEmpty *sync.Cond // signals workers on push and on drain start
	running  int
	draining bool

	workers sync.WaitGroup
}

// New builds a Server, opens its result store and starts its worker
// pool. With CacheDir set the store's disk tier opens too: stale temp
// files are swept, the index is loaded (a mangled one resets the tier),
// files it does not list are adopted from their headers (or removed when
// those do not parse), every such result reappears as a done job whose
// body stays on disk until its first hit, and the reconciled catalog is
// written back.
func New(cfg Config) (*Server, error) {
	s := &Server{
		cfg:      cfg.withDefaults(),
		table:    map[string]*job{},
		poisoned: map[string]*poisonRecord{},
	}
	s.memo = NewMemo(s.cfg.CacheEntries)
	sched, err := qos.NewScheduler[*job](s.cfg.Tenants)
	if err != nil {
		return nil, err
	}
	s.sched = sched
	s.metrics = newMetrics(s.cfg, sched.Tenants())
	s.notEmpty = sync.NewCond(&s.mu)
	brk := newBreaker(s.cfg.BreakerThreshold, s.cfg.BreakerProbe, s.cfg.Clock, s.metrics)
	store, warm := newResultStore(s.cfg.CacheDir, s.cfg.CacheBudget, s.cfg.CacheEntries, s.table, s.cfg.FS, brk, s.metrics)
	s.store = store
	if brk.degraded() && s.cfg.ErrorLog != nil {
		s.cfg.ErrorLog.Printf("serve: cache dir %s unusable at boot; disk tier degraded (memory-only)", s.cfg.CacheDir)
	}
	for _, e := range warm {
		s.store.adopt(warmJob(e), e)
	}
	// The budget may have shrunk since the catalog was written: trim the
	// warm set LRU-first before serving anything.
	s.store.evictOverflow(nil)
	s.store.flushIndex()
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
// submissions cannot both observe "no such job". A cache answer returns
// the job's done body for the handler to splice and a snapshot holding
// only the job's ID; every other answer returns the job's whole snapshot,
// if it has one, and no done body. deadline is the
// client's time budget (0 = none); tenant is the submission's resolved
// QoS identity and class its scheduling class; the retryAfter return,
// when positive, is the server's hint for when a rejected submission is
// worth retrying. The returned *job is what callers that must wait on
// completion select on (the matrix fan-out holds it and waits on
// job.done); it is nil on every rejection outcome.
func (s *Server) submit(req Request, key string, deadline time.Duration, tenant string, class qos.Class) (*job, Job, doneBody, submitOutcome, time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()

	if s.draining {
		s.metrics.rejectedDraining.Add(1)
		return nil, Job{}, doneBody{}, outcomeDraining, 0
	}
	tenant = s.sched.Resolve(tenant)
	s.metrics.jobsSubmitted.Add(1)
	s.metrics.tenantSubmitted.Add(1, tenant)
	now := s.cfg.Clock()

	j, filed := s.byKeyLocked(key)

	// Quarantine gate: a key whose runs keep panicking is rejected until
	// its TTL lapses; below the retry cap a resubmission re-runs it (the
	// panic may have been environmental).
	if rec, ok := s.poisoned[key]; ok {
		if !now.Before(rec.until) {
			delete(s.poisoned, key) // quarantine lapsed: clean slate
		} else if rec.count >= s.cfg.PoisonRetries {
			s.metrics.rejectedPoisoned.Add(1)
			var snap Job
			if filed {
				snap = j.snapshot()
			}
			return nil, snap, doneBody{}, outcomePoisoned, rec.until.Sub(now)
		}
	}

	if filed {
		switch {
		case j.status == StatusDone:
			fromDisk := j.result == nil
			if s.store.promote(j) {
				if fromDisk {
					s.metrics.tierHitsDisk.Add(1)
				} else {
					s.metrics.tierHitsMemory.Add(1)
				}
				j.hits++
				s.metrics.cacheHits.Add(1)
				return j, Job{ID: j.id}, j.doneBodyLocked(), outcomeCached, 0
			}
			// The persisted result failed verification and was discarded
			// with its job: recompute under the same key — a corrupt entry
			// must never serve bad bytes.
		case !j.terminal():
			j.hits++
			s.metrics.dedupHits.Add(1)
			return j, j.snapshot(), doneBody{}, outcomeDeduped, 0
		}
		// failed, cancelled, or poisoned-below-cap: fall through and retry
		// with a fresh run under the same deterministic job ID.
	}

	// Deadline-aware admission: enqueueing a job whose predicted queue
	// wait already exceeds its budget would burn a worker on a result
	// nobody can use — reject now and tell the client when to retry.
	wait := s.predictedWaitLocked()
	if deadline > 0 && wait > deadline {
		s.metrics.rejectedDeadline.Add(1)
		return nil, Job{}, doneBody{}, outcomeDeadline, wait
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
		return nil, Job{}, doneBody{}, outcomeQueueFull, wait
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
		return nil, Job{}, doneBody{}, outcomeTenantDepth, s.queuedWaitLocked(s.sched.TenantLen(tenant))
	case qos.RejectedRate:
		s.metrics.rejectedTenantRate.Add(1)
		s.metrics.tenantRejected.Add(1, "rate", tenant)
		return nil, Job{}, doneBody{}, outcomeTenantRate, retry
	}

	// The context times out on the wall clock; the displayed deadline is
	// on Config.Clock, like every timestamp a job carries.
	ctx, cancel := context.WithCancel(context.Background())
	var dl time.Time
	if deadline > 0 {
		dl = now.Add(deadline)
		ctx, cancel = context.WithTimeout(context.Background(), deadline)
	}
	j = &job{
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
	j.stop = context.AfterFunc(ctx, func() { s.strike(j) })
	s.sched.Push(tenant, class, j)
	s.notEmpty.Signal()
	if old := s.table[j.id]; old != nil && old.husk() {
		s.husks-- // the retry replaces its husk
	}
	s.table[j.id] = j
	s.metrics.cacheMisses.Add(1)
	s.evictLocked()
	return j, j.snapshot(), doneBody{}, outcomeNew, 0
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

// poisonLocked records one panicked run against a key and forgets lapsed
// quarantines. Callers hold s.mu.
func (s *Server) poisonLocked(key string) {
	s.forgetLapsedLocked()
	rec, ok := s.poisoned[key]
	if !ok {
		rec = &poisonRecord{}
		s.poisoned[key] = rec
	}
	rec.count++
	rec.until = s.cfg.Clock().Add(s.cfg.PoisonTTL)
}

// forgetLapsedLocked drops the quarantine records whose TTL has lapsed, so
// s.poisoned and its gauge hold live quarantines only. Callers hold s.mu.
func (s *Server) forgetLapsedLocked() {
	now := s.cfg.Clock()
	for key, rec := range s.poisoned {
		if !now.Before(rec.until) {
			delete(s.poisoned, key)
		}
	}
}

// byKeyLocked returns the job filed for key: the one the table files
// under key's job ID, if it is key's. The ID is built on the stack, so a
// lookup allocates nothing. Callers hold s.mu.
func (s *Server) byKeyLocked(key string) (*job, bool) {
	var id [18]byte
	copy(id[:], "j-")
	copy(id[2:], key)
	j, ok := s.table[string(id[:])]
	return j, ok && j.key == key
}

// submittedLocked returns the table's jobs that match (every job when
// match is nil), oldest submission first, the key breaking ties. Callers
// hold s.mu.
func (s *Server) submittedLocked(match func(*job) bool) []*job {
	out := make([]*job, 0, len(s.table))
	for _, j := range s.table {
		if match == nil || match(j) {
			out = append(out, j)
		}
	}
	slices.SortFunc(out, func(a, b *job) int {
		if c := a.submittedAt.Compare(b.submittedAt); c != 0 {
			return c
		}
		return strings.Compare(a.key, b.key)
	})
	return out
}

// evictLocked reaps husks — failed, cancelled and poisoned jobs — oldest
// submission first, until the job table fits CacheEntries or none is
// left. With no husk it returns at once. Done jobs are exempt: their
// retention is the result store's alone (CacheEntries bounds resident
// bodies, CacheBudget total bytes, both least recently used first).
// In-flight jobs are never evicted. Callers hold s.mu.
func (s *Server) evictLocked() {
	excess := len(s.table) - s.cfg.CacheEntries
	if excess <= 0 || s.husks == 0 {
		return
	}
	husks := s.submittedLocked((*job).husk)
	for _, j := range husks[:min(excess, len(husks))] {
		delete(s.table, j.id)
		s.husks--
		s.metrics.cacheEvictions.Add(1)
	}
}

// worker pops scheduler dispatches until Drain empties the queue. The
// scheduler replaces the old queue channel: workers pull the next job
// under the server mutex — which is what makes dispatch order exactly
// the scheduler's WFQ order — start it in that same critical section,
// and park on the condition variable when nothing is queued.
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
		s.runJob(j)
		s.mu.Lock()
	}
}

// runJob executes one job end to end: mark running, run the facade call
// with a streaming telemetry attached, and finish it with the marshaled
// result, which is served verbatim ever after, so cached and fresh
// answers are byte-identical. The worker calls it holding s.mu, in the
// critical section that popped j, so j is still queued; runJob releases it.
func (s *Server) runJob(j *job) {
	now := s.cfg.Clock()
	s.metrics.queueWait.Observe(now.Sub(j.submittedAt).Seconds())
	// A context can end before its strike has taken s.mu: such a job skips
	// execution — don't burn a worker on a result nobody can use — and
	// ends with its context error.
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
	s.finishLocked(j, now, result, err)
}

// strike ends j with its context's error if j is still queued, taking it
// out of the scheduler so its queue slot, its tenant's depth and its share
// of the predicted wait free at once. The end of j's context calls it;
// DELETE also calls it directly, so its answer shows the strike.
func (s *Server) strike(j *job) {
	s.mu.Lock()
	if j.status != StatusQueued {
		s.mu.Unlock()
		return
	}
	s.sched.Remove(j.tenant, j.class, j)
	s.finishLocked(j, s.cfg.Clock(), nil, j.ctx.Err())
}

// finishLocked ends j at now with its result or the error that ended it,
// the one place a job turns done, failed, cancelled or poisoned. It
// releases s.mu, which the caller holds, then disarms j's strike, cancels
// its context, closes done and sends its stream the terminal event.
func (s *Server) finishLocked(j *job, now time.Time, result json.RawMessage, err error) {
	j.finishedAt = now
	var pe *panicError
	switch {
	case err == nil:
		j.status = StatusDone
		// Write-through: with a disk tier the body lands on disk
		// (crash-safely) in the same critical section that flips the
		// status, so any client that observes "done" can rely on the
		// entry surviving a crash. The bounds may evict older entries
		// entirely.
		s.store.put(j, result)
		j.doneBodyLocked() // marshal the prefix now, not on the first poll
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
	if j.husk() && s.table[j.id] == j {
		s.husks++
	}
	snap := j.snapshot()
	s.mu.Unlock()

	j.stop()
	j.cancel()
	close(j.done)
	j.bcast.finish(terminalEvent(snap.Status), snap)
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

// snapshotByID returns the public snapshot of the job with the given
// ID, promoting its result from the disk tier first when demoted — a
// disk hit must be indistinguishable from a memory hit at the HTTP
// surface. A done job whose persisted result fails verification is
// discarded (reported as not found, exactly like an eviction); the next
// submission of its configuration recomputes it.
func (s *Server) snapshotByID(id string) (Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.findLocked(id)
	if !ok {
		return Job{}, false
	}
	return j.snapshot(), true
}

// pollByID is snapshotByID for a poll: a done job comes back as its done
// body, any other job as its snapshot.
func (s *Server) pollByID(id string) (Job, doneBody, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.findLocked(id)
	if !ok {
		return Job{}, doneBody{}, false
	}
	if j.status == StatusDone {
		return Job{}, j.doneBodyLocked(), true
	}
	return j.snapshot(), doneBody{}, true
}

// findLocked returns the job with the given ID, its result promoted from
// the disk tier when it is done; a done job whose result is lost is
// discarded and not found. Callers hold s.mu.
func (s *Server) findLocked(id string) (*job, bool) {
	j, ok := s.table[id]
	if !ok || (j.status == StatusDone && !s.store.promote(j)) {
		return nil, false
	}
	return j, true
}

// cancelJob cancels a job by ID, best-effort: a queued job is struck
// before it runs and gives its queue slot back at once; a running
// experiment stops at its next sweep point; a running simulation
// completes (single runs are not interruptible) and still caches its
// result.
func (s *Server) cancelJob(id string) (Job, bool) {
	s.mu.Lock()
	target, ok := s.table[id]
	s.mu.Unlock()
	if !ok {
		return Job{}, false
	}
	target.cancel()
	s.strike(target)
	s.mu.Lock()
	defer s.mu.Unlock()
	return target.snapshot(), true
}

// jobs lists snapshots in submission order. Snapshots carry result
// bodies inline, so demoted bodies are read back for the listing without
// being made resident, and resident ones keep their LRU position: a
// listing leaves the memory tier as it found it. Entries that fail
// verification vanish from the listing, like evictions; listing is
// deliberately a full read of the cache.
func (s *Server) jobs() []Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	all := s.submittedLocked(nil)
	out := make([]Job, 0, len(all))
	for _, j := range all {
		snap := j.snapshot()
		if j.status == StatusDone {
			if snap.Result = s.store.peek(j); snap.Result == nil {
				continue // lost: peek dropped it with its job
			}
		}
		out = append(out, snap)
	}
	return out
}

// diskStateLocked reports the disk tier's health for /healthz and
// /readyz: "off" (no tier configured), "ok", or "degraded" (breaker
// open, memory-only). Callers hold s.mu.
func (s *Server) diskStateLocked() string {
	switch {
	case s.store.dir == "":
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
	for _, j := range s.table {
		c[j.status]++
	}
	return c
}

// Drain gracefully shuts the service down: new submissions are rejected
// with 503 immediately, queued and running jobs complete, workers exit,
// and the disk tier's catalog and the audit index (when configured) are
// flushed. If ctx expires first, every job's context is cancelled —
// queued jobs are struck, experiments stop at their next sweep point —
// and Drain still waits for the workers before returning ctx's error.
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
		for _, j := range s.table {
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
	s.store.flushIndex()
	if s.cfg.CacheIndexPath == "" {
		s.mu.Unlock()
		return nil
	}
	f := indexFile{Version: indexVersion}
	for _, j := range s.submittedLocked(nil) {
		f.Entries = append(f.Entries, auditEntry(j))
	}
	s.mu.Unlock()
	b, err := encodeIndex(f)
	if err != nil {
		return err
	}
	return atomicWriteFile(s.cfg.FS, s.cfg.CacheIndexPath, b)
}
