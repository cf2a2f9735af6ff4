// Command neofog-serve runs the simulation-as-a-service daemon: an HTTP
// JSON API over Simulate/SimulateFleet/RunExperiment with a
// content-addressed result cache, single-flight deduplication, a bounded
// worker pool with 429 backpressure, SSE progress streaming, and
// Prometheus metrics. See internal/serve for the API.
//
// POST /v1/experiments/matrix accepts a systems × weathers × intensities
// batch, fanned into content-addressed jobs and streamed back as ndjson,
// cell by cell as they complete.
//
// Usage:
//
//	neofog-serve                        # listen on :8080
//	neofog-serve -addr :9090 -workers 4 -queue 128
//	neofog-serve -cache-dir cache          # persist results; warm restarts
//	neofog-serve -cache-dir cache -cache-budget 268435456
//	neofog-serve -cache-index cache.json   # flush an audit index on drain
//
// With -cache-dir the daemon persists every computed result crash-safely
// under <dir>/<canonical-key> and warms them lazily on the next boot: a
// restarted daemon — even after kill -9 — serves previously computed
// results byte-identically, with "cached":true, without recomputing.
//
// SIGINT/SIGTERM drain gracefully: new submissions get 503 while queued
// and running jobs finish (bounded by -drain-timeout), then the cache
// index is flushed and the process exits.
//
// Failure containment (see DESIGN.md):
//
//	neofog-serve -default-deadline 60s -max-deadline 5m   # deadline-aware admission
//	neofog-serve -require-disk                            # /readyz 503s while disk degraded
//	neofog-serve -access-log                              # structured request log on stderr
//
// Multi-tenant QoS (see DESIGN.md "Multi-tenant QoS"):
//
//	neofog-serve -tenants "gold:3:64:10,bronze:1:16:2"    # weighted-fair shares + admission caps
//	neofog-serve -assumed-job-seconds 0.5                 # cold-start prior for deadline admission
//
// Each -tenants entry is name:weight:depth:rate (weight, depth, and
// rate optional right to left). Requests pick their tenant with
// X-Neofog-Tenant or ?tenant= and their class (interactive or bulk)
// with X-Neofog-Class or ?class=; unknown tenants fold into "default".
// Tenants over their depth cap or rate limit get a 429 carrying
// X-Neofog-Tenant and a per-tenant Retry-After.
//
// A dying disk under -cache-dir trips a circuit breaker: the daemon
// degrades to memory-only serving (still byte-identical results) and
// auto-recovers when probes succeed, instead of failing requests or
// exiting. Panicking jobs are quarantined per key with a capped retry
// count and TTL. /readyz (distinct from /healthz) turns 503 the moment a
// drain begins so load balancers stop routing before connections drop.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"neofog/internal/qos"
	"neofog/internal/serve"
	"neofog/internal/version"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "neofog-serve:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		workers      = flag.Int("workers", 0, "worker-pool width (0 = GOMAXPROCS)")
		queue        = flag.Int("queue", 64, "queue depth; beyond it submissions get 429")
		cacheEntries = flag.Int("cache", 1024, "result bodies retained in memory (disk tier demotes beyond this)")
		cacheDir     = flag.String("cache-dir", "", "persist results here for warm restarts (empty = memory only)")
		cacheBudget  = flag.Int64("cache-budget", 0, "total result bytes retained across both tiers (0 = unlimited)")
		cacheIndex   = flag.String("cache-index", "", "write a JSON audit index here on drain")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "how long to wait for in-flight jobs on shutdown")
		showVer      = flag.Bool("version", false, "print build version and exit")

		defaultDeadline = flag.Duration("default-deadline", 0, "deadline applied to submissions that carry none (0 = unbounded)")
		maxDeadline     = flag.Duration("max-deadline", 0, "cap on client-requested deadlines (0 = uncapped)")
		poisonRetries   = flag.Int("poison-retries", 3, "panicked runs allowed per job key before submissions are rejected")
		poisonTTL       = flag.Duration("poison-ttl", 5*time.Minute, "how long a panic quarantine lasts")
		breakerThresh   = flag.Int("breaker-threshold", 3, "consecutive disk I/O errors that trip the breaker to memory-only")
		breakerProbe    = flag.Duration("breaker-probe", 5*time.Second, "how long the breaker stays open before probing the disk again")
		requireDisk     = flag.Bool("require-disk", false, "report not-ready on /readyz while the disk breaker is open")
		accessLog       = flag.Bool("access-log", false, "log one structured line per request on stderr")
		tenants         = flag.String("tenants", "", `multi-tenant QoS policy: comma-separated "name:weight:depth:rate" entries (weight/depth/rate optional; empty = single unlimited default tenant)`)
		assumedJob      = flag.Float64("assumed-job-seconds", 0, "deadline admission's cold-start service-time prior, before any job has finished (0 = never reject cold)")

		readHeaderTimeout = flag.Duration("read-header-timeout", 5*time.Second, "http server ReadHeaderTimeout (slowloris guard)")
		readTimeout       = flag.Duration("read-timeout", 60*time.Second, "http server ReadTimeout")
		writeTimeout      = flag.Duration("write-timeout", 60*time.Second, "http server WriteTimeout (SSE streams are exempted per response)")
		idleTimeout       = flag.Duration("idle-timeout", 120*time.Second, "http server IdleTimeout for keep-alive connections")
	)
	flag.Parse()

	if *showVer {
		fmt.Println("neofog-serve", version.String())
		return nil
	}

	logger := log.New(os.Stderr, "neofog-serve: ", log.LstdFlags)
	tenantCfg, err := qos.ParseTenants(*tenants)
	if err != nil {
		return err
	}
	cfg := serve.Config{
		Workers:           *workers,
		QueueDepth:        *queue,
		Tenants:           tenantCfg,
		AssumedJobSeconds: *assumedJob,
		CacheEntries:      *cacheEntries,
		CacheIndexPath:    *cacheIndex,
		CacheDir:          *cacheDir,
		CacheBudget:       *cacheBudget,
		DefaultDeadline:   *defaultDeadline,
		MaxDeadline:       *maxDeadline,
		PoisonRetries:     *poisonRetries,
		PoisonTTL:         *poisonTTL,
		BreakerThreshold:  *breakerThresh,
		BreakerProbe:      *breakerProbe,
		RequireDisk:       *requireDisk,
		ErrorLog:          logger,
	}
	if *accessLog {
		cfg.AccessLog = os.Stderr
	}
	srv, err := serve.New(cfg)
	if err != nil {
		return err
	}
	// Hardened against slowloris and stuck peers; handleStream lifts the
	// write deadline per SSE response via http.ResponseController.
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: *readHeaderTimeout,
		ReadTimeout:       *readTimeout,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       *idleTimeout,
		ErrorLog:          logger,
	}

	errCh := make(chan error, 1)
	go func() {
		logger.Printf("listening on %s (%s)", *addr, version.String())
		errCh <- httpSrv.ListenAndServe()
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		return err
	case got := <-sig:
		logger.Printf("received %v, draining (timeout %s)", got, *drainTimeout)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	// Drain the job engine first (finishes in-flight work, rejects new
	// submissions with 503), then stop accepting connections entirely.
	if err := srv.Drain(ctx); err != nil {
		logger.Printf("drain: %v", err)
	}
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	logger.Printf("drained cleanly")
	return nil
}
