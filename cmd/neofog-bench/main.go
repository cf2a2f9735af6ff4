// Command neofog-bench is the open-loop serve-layer load bench: a seeded
// hot/cold request schedule replayed at fixed QPS against a
// router-fronted in-process cluster (or -serve-target), reporting jobs/s,
// cache-hit ratio, rejection counts and exact latency quantiles into
// BENCH_SERVE.json, gated against -serve-baseline when that file exists:
//
//	neofog-bench                                     # 3 shards, 10s smoke
//	neofog-bench -serve-qps 500 -serve-duration 30s
//	neofog-bench -serve-target http://127.0.0.1:8000  # aim at a live cluster
//	neofog-bench -serve-baseline BENCH_SERVE_BASELINE.json
//
// A multi-tenant run labels the trace with a tenant mix, boots the
// cluster shards with a QoS policy, and (optionally) fails unless each
// tenant's served share of completed jobs tracks its configured weight
// share — the CI fairness smoke:
//
//	neofog-bench -serve-tenants "gold:3:48,bronze:1:48" \
//	  -serve-tenant-mix "gold:1,bronze:1" -serve-share-tolerance 0.15
//
// The allocation budgets of the simulator and the paper's artifacts are
// not measured here: they are tests beside the benchmarks, run by
// `go test`.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"neofog/internal/loadgen"
	"neofog/internal/qos"
	"neofog/internal/router"
	"neofog/internal/serve"
	"neofog/internal/version"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "neofog-bench:", err)
		os.Exit(1)
	}
}

// run builds the seeded schedule, aims it at the target (booting an
// in-process sharded cluster behind a router when none is given), writes
// BENCH_SERVE.json, and gates against the baseline when one exists.
func run() error {
	var (
		target      = flag.String("serve-target", "", "base URL of a running daemon or router; empty boots an in-process sharded cluster")
		shards      = flag.Int("serve-shards", 3, "shards in the in-process cluster (ignored with -serve-target)")
		workers     = flag.Int("serve-workers", 2, "worker-pool width per in-process shard (0 = GOMAXPROCS each)")
		queue       = flag.Int("serve-queue", 256, "queue depth per in-process shard")
		qps         = flag.Float64("serve-qps", 300, "mean arrival rate of the open-loop schedule")
		duration    = flag.Duration("serve-duration", 10*time.Second, "span arrivals are scheduled over")
		seed        = flag.Int64("serve-seed", 1, "trace seed; same seed replays the identical request schedule")
		hotKeys     = flag.Int("serve-hot", 8, "hot working-set size (distinct repeated configs)")
		hotFrac     = flag.Float64("serve-hot-frac", 0.8, "fraction of requests drawn from the hot set")
		nodes       = flag.Int("serve-nodes", 4, "simulated nodes per request")
		rounds      = flag.Int("serve-rounds", 30, "simulated rounds per request")
		inflight    = flag.Int("serve-inflight", 1024, "open-loop in-flight cap; arrivals beyond it are counted dropped, never delayed")
		out         = flag.String("serve-out", "BENCH_SERVE.json", "write the serve bench report here ('' = stdout only)")
		baseline    = flag.String("serve-baseline", "", "gate against this BENCH_SERVE baseline; a missing file skips the gate")
		tolerance   = flag.Float64("serve-tolerance", 0.10, "allowed regression fraction for jobs/s (down) and p99 (up)")
		tenants     = flag.String("serve-tenants", "", `per-shard QoS policy, "name:weight:depth:rate" entries (see neofog-serve -tenants); ignored with -serve-target`)
		tenantMix   = flag.String("serve-tenant-mix", "", `tenant traffic mix, "name:share[:class]" entries; empty keeps the trace unlabelled`)
		shareTol    = flag.Float64("serve-share-tolerance", 0, "when positive, fail unless each weighted tenant's served share is within this absolute fraction of its weight share (needs -serve-tenants and -serve-tenant-mix)")
		showVersion = flag.Bool("version", false, "print build version and exit")
	)
	flag.Parse()

	if *showVersion {
		fmt.Println("neofog-bench", version.String())
		return nil
	}
	tenantCfg, err := qos.ParseTenants(*tenants)
	if err != nil {
		return err
	}
	mix, err := loadgen.ParseTenantMix(*tenantMix)
	if err != nil {
		return err
	}
	if *shareTol > 0 && (len(mix) == 0 || len(tenantCfg) == 0) {
		return fmt.Errorf("-serve-share-tolerance needs both -serve-tenants (the policy) and -serve-tenant-mix (the traffic)")
	}
	spec := loadgen.TraceSpec{
		Seed:        *seed,
		QPS:         *qps,
		Duration:    *duration,
		HotKeys:     *hotKeys,
		HotFraction: *hotFrac,
		Nodes:       *nodes,
		Rounds:      *rounds,
		Tenants:     mix,
	}
	schedule, err := loadgen.BuildSchedule(spec)
	if err != nil {
		return err
	}
	fmt.Printf("schedule: %d requests over %s (seed %d, digest %s)\n",
		len(schedule), *duration, *seed, loadgen.ScheduleDigest(schedule)[:16])

	url := *target
	targetName := "daemon"
	booted := 0
	if url == "" {
		cluster, err := loadgen.StartCluster(*shards,
			serve.Config{Workers: *workers, QueueDepth: *queue, Tenants: tenantCfg},
			router.Config{})
		if err != nil {
			return err
		}
		defer cluster.Close()
		url = cluster.RouterURL
		targetName = "router"
		booted = *shards
		fmt.Printf("booted in-process cluster: %d shards behind %s\n", booted, url)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *duration+5*time.Minute)
	defer cancel()
	sum, err := loadgen.Run(ctx, url, spec, schedule, loadgen.Opts{MaxInFlight: *inflight})
	if err != nil {
		return err
	}
	sum.Target, sum.Shards = targetName, booted
	fmt.Print(loadgen.FormatSummary(sum))

	if *out != "" {
		file, err := os.Create(*out)
		if err != nil {
			return err
		}
		if err := loadgen.WriteJSON(file, sum); err != nil {
			file.Close()
			return err
		}
		if err := file.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *out)
	}

	// The fairness smoke runs after the report is on disk so a failing
	// run still leaves its evidence.
	if *shareTol > 0 {
		weights := map[string]float64{}
		for _, tc := range tenantCfg {
			w := tc.Weight
			if w <= 0 {
				w = 1 // the scheduler's own default for omitted weights
			}
			weights[tc.Name] = w
		}
		if violations := loadgen.FairnessCheck(sum.Measured, weights, *shareTol); len(violations) > 0 {
			for _, v := range violations {
				fmt.Fprintln(os.Stderr, v)
			}
			return fmt.Errorf("%d fairness violation(s)", len(violations))
		}
		fmt.Printf("served shares within %.2f of weight shares\n", *shareTol)
	}

	if *baseline != "" {
		base, err := loadgen.ReadJSON(*baseline)
		if os.IsNotExist(err) {
			// "Once a baseline is committed": no file means no gate yet.
			fmt.Printf("no baseline at %s; gate skipped\n", *baseline)
			return nil
		}
		if err != nil {
			return err
		}
		if base.Trace.ScheduleSHA256 != sum.Trace.ScheduleSHA256 {
			fmt.Printf("baseline %s replays a different schedule (digest %s vs %s); gate skipped\n",
				*baseline, base.Trace.ScheduleSHA256[:16], sum.Trace.ScheduleSHA256[:16])
			return nil
		}
		if violations := loadgen.Gate(sum, base, *tolerance); len(violations) > 0 {
			for _, v := range violations {
				fmt.Fprintln(os.Stderr, "regression:", v)
			}
			return fmt.Errorf("%d serve-bench regression(s) against %s", len(violations), *baseline)
		}
		fmt.Printf("within tolerance of %s\n", *baseline)
	}
	return nil
}
