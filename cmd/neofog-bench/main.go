// Command neofog-bench is the regression-bench harness: it runs the
// registered headline benchmarks N times each, writes the median ns/op,
// allocs/op and B/op to a JSON report, and optionally gates the fresh
// numbers against a checked-in baseline.
//
// Usage:
//
//	neofog-bench -runs 3 -out BENCH_PR4.json
//	neofog-bench -short -baseline BENCH_PR4.json -ns-tolerance -1 -alloc-tolerance 0.1
//	neofog-bench -bench Headline -benchtime 2x
//	neofog-bench -out BENCH_PR4.json -compare BENCH_PR3.json   # before/after artifact
//
// With -serve it instead runs the open-loop serve-layer load bench: a
// seeded hot/cold request schedule replayed at fixed QPS against a
// router-fronted in-process cluster (or -serve-target), reporting jobs/s,
// cache-hit ratio, rejection counts and exact latency quantiles into
// BENCH_SERVE.json, gated against -serve-baseline when that file exists:
//
//	neofog-bench -serve                                     # 3 shards, 10s smoke
//	neofog-bench -serve -serve-qps 500 -serve-duration 30s
//	neofog-bench -serve -serve-target http://127.0.0.1:8000  # aim at a live cluster
//	neofog-bench -serve -serve-baseline BENCH_SERVE_BASELINE.json
//
// A multi-tenant run labels the trace with a tenant mix, boots the
// cluster shards with a QoS policy, and (optionally) fails unless each
// tenant's served share of completed jobs tracks its configured weight
// share — the CI fairness smoke:
//
//	neofog-bench -serve -serve-tenants "gold:3:48,bronze:1:48" \
//	  -serve-tenant-mix "gold:1,bronze:1" -serve-share-tolerance 0.15
package main

import (
	"flag"
	"fmt"
	"os"
	"regexp"
	"testing"

	"neofog/internal/bench"
	"neofog/internal/version"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "neofog-bench:", err)
		os.Exit(1)
	}
}

func run() error {
	// testing.Benchmark only works outside `go test` after testing.Init
	// registers the test.* flags; benchtime and short are then set through
	// the flag values the testing package reads.
	testing.Init()
	var (
		runs         = flag.Int("runs", 3, "measurement runs per benchmark (the report records medians)")
		benchtime    = flag.String("benchtime", "1x", "per-run benchmark time (Go benchtime syntax, e.g. 1x, 2s)")
		out          = flag.String("out", "BENCH_PR4.json", "write the JSON report here ('' = stdout only)")
		filter       = flag.String("bench", "", "regexp selecting benchmark names (default: all)")
		baselinePath = flag.String("baseline", "", "gate against this baseline report (may equal -out; it is read first)")
		nsTol        = flag.Float64("ns-tolerance", 0.5, "allowed ns/op regression fraction over baseline; negative disables the wall-time gate")
		allocTol     = flag.Float64("alloc-tolerance", 0.1, "allowed allocs/op regression fraction over baseline; negative disables")
		short        = flag.Bool("short", false, "skip full-length cases (testing.Short)")
		list         = flag.Bool("list", false, "list benchmark names and exit")
		comparePath  = flag.String("compare", "", "print a before/after comparison against this report (no gate; pair with -baseline to also gate)")
		parallel     = flag.Int("parallel", 0, "sweep worker-pool width passed to experiment cases: 0/1 serial, N up to N workers, -1 all CPUs")
		showVersion  = flag.Bool("version", false, "print build version and exit")
	)
	sf := registerServeFlags()
	flag.Parse()

	if *showVersion {
		fmt.Println("neofog-bench", version.String())
		return nil
	}
	if *sf.enabled {
		return runServe(sf)
	}
	if *list {
		for _, c := range bench.Cases() {
			fmt.Println(c.Name)
		}
		return nil
	}
	if err := flag.Set("test.benchtime", *benchtime); err != nil {
		return err
	}
	if *short {
		if err := flag.Set("test.short", "true"); err != nil {
			return err
		}
	}
	bench.ExperimentParallel = *parallel
	var re *regexp.Regexp
	if *filter != "" {
		var err error
		if re, err = regexp.Compile(*filter); err != nil {
			return fmt.Errorf("bad -bench pattern: %w", err)
		}
	}

	// Read the baseline before writing -out: pointing both at the same
	// file is the intended self-gating workflow.
	var baseline bench.Report
	haveBaseline := false
	if *baselinePath != "" {
		var err error
		if baseline, err = bench.ReadJSON(*baselinePath); err != nil {
			return err
		}
		haveBaseline = true
	}

	rep := bench.Report{Runs: *runs, Benchtime: *benchtime}
	for _, c := range bench.Cases() {
		if re != nil && !re.MatchString(c.Name) {
			continue
		}
		m, ok := bench.Measure(c, *runs)
		if !ok {
			fmt.Printf("%-24s skipped\n", c.Name)
			continue
		}
		fmt.Printf("%-24s %14.0f ns/op %10d allocs/op %12d B/op\n",
			m.Name, m.NsPerOp, m.AllocsPerOp, m.BytesPerOp)
		rep.Results = append(rep.Results, m)
	}
	if len(rep.Results) == 0 {
		return fmt.Errorf("no benchmarks matched")
	}

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		if err := bench.WriteJSON(f, rep); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *out)
	}

	if *comparePath != "" {
		before, err := bench.ReadJSON(*comparePath)
		if err != nil {
			return err
		}
		fmt.Printf("comparison against %s:\n%s", *comparePath, bench.FormatComparison(rep, before))
	}

	if haveBaseline {
		if violations := bench.Compare(rep, baseline, *nsTol, *allocTol); len(violations) > 0 {
			for _, v := range violations {
				fmt.Fprintln(os.Stderr, "regression:", v)
			}
			return fmt.Errorf("%d benchmark regression(s) against %s", len(violations), *baselinePath)
		}
		fmt.Printf("within tolerance of %s\n", *baselinePath)
	}
	return nil
}
