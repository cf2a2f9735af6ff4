// Command neofog-router fronts N neofog-serve daemons as one sharded
// cluster: requests are consistent-hashed on their canonical content
// address (the same key the daemons cache on) so every configuration —
// and every job ID derived from one — lands on the shard that already
// holds its result. Submit, job, result, SSE stream and cancel are
// forwarded verbatim; /metrics aggregates all shards' series with the
// router's own; /healthz fans in every shard's health body. Degraded
// shards (failed /readyz probes or transport errors) are skipped in ring
// order, and idempotent submissions retry on the next replica. Batch
// matrix submissions (POST /v1/experiments/matrix) route as one unit by
// their matrix key so a whole sweep keeps cache affinity on one shard.
//
// Usage:
//
//	neofog-router -shards http://10.0.0.1:8080,http://10.0.0.2:8080
//	neofog-router -addr :8000 -shards ... -probe-interval 1s
//
// Shard names default to their position (shard-0, shard-1, ...). Names
// key the hash ring, so keep the -shards list order stable across
// restarts and append new shards at the end — reordering renames every
// shard and reshuffles the whole keyspace, where an append moves only
// ≈1/N of it. See DESIGN.md "Scaling out".
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
	"strings"
	"syscall"
	"time"

	"neofog/internal/router"
	"neofog/internal/version"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "neofog-router:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr          = flag.String("addr", ":8000", "listen address")
		shardList     = flag.String("shards", "", "comma-separated shard base URLs (required), e.g. http://127.0.0.1:8081,http://127.0.0.1:8082")
		replicas      = flag.Int("vnodes", 64, "virtual points per shard on the hash ring (pick once per cluster)")
		probeInterval = flag.Duration("probe-interval", 2*time.Second, "health-probe sweep interval")
		probeTimeout  = flag.Duration("probe-timeout", 2*time.Second, "per-shard /readyz probe timeout")
		showVer       = flag.Bool("version", false, "print build version and exit")

		readHeaderTimeout = flag.Duration("read-header-timeout", 5*time.Second, "http server ReadHeaderTimeout (slowloris guard)")
		readTimeout       = flag.Duration("read-timeout", 60*time.Second, "http server ReadTimeout")
		writeTimeout      = flag.Duration("write-timeout", 60*time.Second, "http server WriteTimeout (proxied SSE streams are exempted per response)")
		idleTimeout       = flag.Duration("idle-timeout", 120*time.Second, "http server IdleTimeout for keep-alive connections")
	)
	flag.Parse()

	if *showVer {
		fmt.Println("neofog-router", version.String())
		return nil
	}
	if *shardList == "" {
		return fmt.Errorf("-shards is required (comma-separated base URLs)")
	}

	var shards []router.Shard
	for i, u := range strings.Split(*shardList, ",") {
		u = strings.TrimSpace(u)
		if u == "" {
			continue
		}
		shards = append(shards, router.Shard{Name: fmt.Sprintf("shard-%d", i), URL: strings.TrimSuffix(u, "/")})
	}

	logger := log.New(os.Stderr, "neofog-router: ", log.LstdFlags)
	rt, err := router.New(router.Config{
		Shards:        shards,
		Replicas:      *replicas,
		ProbeInterval: *probeInterval,
		ProbeTimeout:  *probeTimeout,
		ErrorLog:      logger,
	})
	if err != nil {
		return err
	}
	defer rt.Close()

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           rt.Handler(),
		ReadHeaderTimeout: *readHeaderTimeout,
		ReadTimeout:       *readTimeout,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       *idleTimeout,
		ErrorLog:          logger,
	}

	errCh := make(chan error, 1)
	go func() {
		logger.Printf("routing %d shards on %s (%s)", len(shards), *addr, version.String())
		errCh <- httpSrv.ListenAndServe()
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		return err
	case got := <-sig:
		logger.Printf("received %v, shutting down", got)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	logger.Printf("stopped cleanly")
	return nil
}
