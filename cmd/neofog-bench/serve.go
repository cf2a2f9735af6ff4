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
)

// serveFlags is the -serve mode's flag set, registered alongside the
// micro-bench flags so `neofog-bench -serve ...` is one binary.
type serveFlags struct {
	enabled   *bool
	target    *string
	shards    *int
	workers   *int
	queue     *int
	qps       *float64
	duration  *time.Duration
	seed      *int64
	hotKeys   *int
	hotFrac   *float64
	nodes     *int
	rounds    *int
	inflight  *int
	out       *string
	baseline  *string
	tolerance *float64
	tenants   *string
	tenantMix *string
	shareTol  *float64
}

func registerServeFlags() *serveFlags {
	return &serveFlags{
		enabled:   flag.Bool("serve", false, "run the open-loop serve-layer load bench instead of the micro-benchmarks"),
		target:    flag.String("serve-target", "", "base URL of a running daemon or router; empty boots an in-process sharded cluster"),
		shards:    flag.Int("serve-shards", 3, "shards in the in-process cluster (ignored with -serve-target)"),
		workers:   flag.Int("serve-workers", 2, "worker-pool width per in-process shard (0 = GOMAXPROCS each)"),
		queue:     flag.Int("serve-queue", 256, "queue depth per in-process shard"),
		qps:       flag.Float64("serve-qps", 300, "mean arrival rate of the open-loop schedule"),
		duration:  flag.Duration("serve-duration", 10*time.Second, "span arrivals are scheduled over"),
		seed:      flag.Int64("serve-seed", 1, "trace seed; same seed replays the identical request schedule"),
		hotKeys:   flag.Int("serve-hot", 8, "hot working-set size (distinct repeated configs)"),
		hotFrac:   flag.Float64("serve-hot-frac", 0.8, "fraction of requests drawn from the hot set"),
		nodes:     flag.Int("serve-nodes", 4, "simulated nodes per request"),
		rounds:    flag.Int("serve-rounds", 30, "simulated rounds per request"),
		inflight:  flag.Int("serve-inflight", 1024, "open-loop in-flight cap; arrivals beyond it are counted dropped, never delayed"),
		out:       flag.String("serve-out", "BENCH_SERVE.json", "write the serve bench report here ('' = stdout only)"),
		baseline:  flag.String("serve-baseline", "", "gate against this BENCH_SERVE baseline; a missing file skips the gate"),
		tolerance: flag.Float64("serve-tolerance", 0.10, "allowed regression fraction for jobs/s (down) and p99 (up)"),
		tenants:   flag.String("serve-tenants", "", `per-shard QoS policy, "name:weight:depth:rate" entries (see neofog-serve -tenants); ignored with -serve-target`),
		tenantMix: flag.String("serve-tenant-mix", "", `tenant traffic mix, "name:share[:class]" entries; empty keeps the trace unlabelled`),
		shareTol:  flag.Float64("serve-share-tolerance", 0, "when positive, fail unless each weighted tenant's served share is within this absolute fraction of its weight share (needs -serve-tenants and -serve-tenant-mix)"),
	}
}

// runServe executes the serve-layer load bench: build the seeded
// schedule, aim it at the target (booting an in-process sharded cluster
// behind a router when none is given), write BENCH_SERVE.json, and gate
// against the baseline when one exists.
func runServe(f *serveFlags) error {
	tenantCfg, err := qos.ParseTenants(*f.tenants)
	if err != nil {
		return err
	}
	mix, err := loadgen.ParseTenantMix(*f.tenantMix)
	if err != nil {
		return err
	}
	if *f.shareTol > 0 && (len(mix) == 0 || len(tenantCfg) == 0) {
		return fmt.Errorf("-serve-share-tolerance needs both -serve-tenants (the policy) and -serve-tenant-mix (the traffic)")
	}
	spec := loadgen.TraceSpec{
		Seed:        *f.seed,
		QPS:         *f.qps,
		Duration:    *f.duration,
		HotKeys:     *f.hotKeys,
		HotFraction: *f.hotFrac,
		Nodes:       *f.nodes,
		Rounds:      *f.rounds,
		Tenants:     mix,
	}
	schedule, err := loadgen.BuildSchedule(spec)
	if err != nil {
		return err
	}
	fmt.Printf("schedule: %d requests over %s (seed %d, digest %s)\n",
		len(schedule), *f.duration, *f.seed, loadgen.ScheduleDigest(schedule)[:16])

	target := *f.target
	targetName := "daemon"
	shards := 0
	if target == "" {
		cluster, err := loadgen.StartCluster(*f.shards,
			serve.Config{Workers: *f.workers, QueueDepth: *f.queue, Tenants: tenantCfg},
			router.Config{})
		if err != nil {
			return err
		}
		defer cluster.Close()
		target = cluster.RouterURL
		targetName = "router"
		shards = *f.shards
		fmt.Printf("booted in-process cluster: %d shards behind %s\n", shards, target)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *f.duration+5*time.Minute)
	defer cancel()
	sum, err := loadgen.Run(ctx, target, spec, schedule, loadgen.Opts{MaxInFlight: *f.inflight})
	if err != nil {
		return err
	}
	sum.Target, sum.Shards = targetName, shards
	fmt.Print(loadgen.FormatSummary(sum))

	if *f.out != "" {
		file, err := os.Create(*f.out)
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
		fmt.Printf("wrote %s\n", *f.out)
	}

	// The fairness smoke runs after the report is on disk so a failing
	// run still leaves its evidence.
	if *f.shareTol > 0 {
		weights := map[string]float64{}
		for _, tc := range tenantCfg {
			w := tc.Weight
			if w <= 0 {
				w = 1 // the scheduler's own default for omitted weights
			}
			weights[tc.Name] = w
		}
		if violations := loadgen.FairnessCheck(sum.Measured, weights, *f.shareTol); len(violations) > 0 {
			for _, v := range violations {
				fmt.Fprintln(os.Stderr, v)
			}
			return fmt.Errorf("%d fairness violation(s)", len(violations))
		}
		fmt.Printf("served shares within %.2f of weight shares\n", *f.shareTol)
	}

	if *f.baseline != "" {
		base, err := loadgen.ReadJSON(*f.baseline)
		if os.IsNotExist(err) {
			// "Once a baseline is committed": no file means no gate yet.
			fmt.Printf("no baseline at %s; gate skipped\n", *f.baseline)
			return nil
		}
		if err != nil {
			return err
		}
		if base.Trace.ScheduleSHA256 != sum.Trace.ScheduleSHA256 {
			fmt.Printf("baseline %s replays a different schedule (digest %s vs %s); gate skipped\n",
				*f.baseline, base.Trace.ScheduleSHA256[:16], sum.Trace.ScheduleSHA256[:16])
			return nil
		}
		if violations := loadgen.Gate(sum, base, *f.tolerance); len(violations) > 0 {
			for _, v := range violations {
				fmt.Fprintln(os.Stderr, "regression:", v)
			}
			return fmt.Errorf("%d serve-bench regression(s) against %s", len(violations), *f.baseline)
		}
		fmt.Printf("within tolerance of %s\n", *f.baseline)
	}
	return nil
}
