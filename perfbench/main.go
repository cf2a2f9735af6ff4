// Command perfbench is the repository's end-to-end benchmark. It boots
// an in-process cluster (two serve shards behind one router, disk tier
// on), drives one of three workloads from this process, checks every
// output byte, and prints its metrics; with -trace 1 it records spans
// at the layers' public seams and prints the per-layer breakdown
// instead. See README.md in this directory.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload write-mix --seed 1 --seconds 15 --trace 0
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"
)

const (
	// setupRepeats is how often a run sets up; setup_s is the median.
	setupRepeats = 3
	// wallCap bounds one invocation; past it the run fails loudly.
	wallCap = 170 * time.Second
	// buildDir holds everything a run leaves behind, inside the checkout.
	buildDir = ".bench_build"
)

var workloads = []string{"hot-read", "write-mix", "paper-sweep"}

func main() { os.Exit(run()) }

func run() int {
	workload := flag.String("workload", "", "hot-read, write-mix or paper-sweep")
	seed := flag.Int64("seed", 1, "input seed; the same seed replays the same requests")
	secs := flag.Int("seconds", 15, "length of the timed window (write-mix: sets its request count)")
	trace := flag.Int("trace", 0, "1 records spans at the layer seams and prints per-layer metrics")
	record := flag.Bool("record-refs", false, "regenerate the paper artifacts' reference digests and exit")
	flag.Parse()

	nproc := runtime.NumCPU()
	if *record {
		if err := recordRefs(nproc); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 2
		}
		return 0
	}
	if !slices.Contains(workloads, *workload) || *secs < 1 || *secs > 60 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload %v --seconds 1..60 --trace 0|1\n", workloads)
		return 2
	}

	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	tmp, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	var cleanOnce sync.Once
	clean := func() { cleanOnce.Do(func() { os.RemoveAll(tmp) }) }
	defer clean()
	capTimer := time.AfterFunc(wallCap, func() {
		fmt.Fprintf(os.Stderr, "perfbench: %s exceeded the %s wall-clock cap; aborting\n", *workload, wallCap)
		clean()
		os.Exit(3)
	})
	defer capTimer.Stop()
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		if _, ok := <-sigs; ok {
			clean()
			os.Exit(130)
		}
	}()
	defer func() {
		signal.Stop(sigs)
		close(sigs)
	}()

	fmt.Printf("perfbench workload=%s seed=%d seconds=%d trace=%d nproc=%d\n", *workload, *seed, *secs, *trace, nproc)
	var rep *report
	if *workload == "paper-sweep" {
		rep, err = runSweep(*seed, *secs, *trace == 1, nproc)
	} else {
		rep, err = runServe(*workload, *seed, *secs, *trace == 1, nproc, tmp)
	}
	if err == nil {
		err = rep.print(*trace == 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if rep.failed() > 0 {
		fmt.Fprintln(os.Stderr, "perfbench: outputs failed their checks")
		return 1
	}
	return 0
}

// tracePath is where a traced run writes its spans.
func tracePath(workload string) string {
	return filepath.Join(buildDir, "trace-"+workload+".csv")
}

// runServe runs hot-read or write-mix: set up setupRepeats times, keep
// the last cluster, time the window, verify. A traced run then runs the
// probes and the same window again on a freshly set-up, traced cluster;
// the untraced window is its overhead baseline.
func runServe(workload string, seed int64, secs int, traced bool, nproc int, tmp string) (*report, error) {
	clients := nproc
	in, err := buildServeInputs(workload, seed, secs, clients)
	if err != nil {
		return nil, err
	}
	fmt.Printf("cluster: %d shards x %d workers behind one router, disk tier on, json transport, no tenants; %d closed-loop clients\n",
		shards, max(1, nproc/2), clients)
	fmt.Printf("inputs: digest=%s hot=%d misses=%d requests/client=%d verify=%d\n",
		in.digest[:16], len(in.hot), len(in.misses), len(in.clients[0]), len(in.verify))
	env := &serveEnv{root: tmp, workers: max(1, nproc/2), in: in, hc: newHTTPClient(clients)}
	defer env.hc.CloseIdleConnections()
	r := newReport()

	var setups []float64
	var s *servedSet
	for k := 0; k < setupRepeats; k++ {
		if s != nil {
			if err := s.cl.close(); err != nil {
				return nil, err
			}
		}
		var d time.Duration
		var oc outcome
		if s, d, oc, err = env.setup(nil); err != nil {
			return nil, err
		}
		r.phases[0].merge(oc)
		setups = append(setups, d.Seconds())
	}
	w := env.window(s, workload, secs, nil)
	r.phases[1].merge(w.outcome)
	r.phases[2].merge(env.verifyHot(s))
	var simulate []time.Duration
	if workload == "write-mix" {
		var oc outcome
		oc, simulate = env.verifyMisses(w.served)
		r.phases[2].merge(oc)
	}
	if err := s.cl.close(); err != nil {
		return nil, err
	}
	r.serveEndToEnd(w, setups)
	if !traced {
		rss, err := peakRSSMB()
		r.set("peak_rss_mb", rss, "MB", 1)
		return r, err
	}

	// The probes run before the tracer holds any spans, whose memory
	// would otherwise slow them.
	canonical, err := canonicalProbe(in)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	ts, _, oc, err := env.setup(tr)
	if err != nil {
		return nil, err
	}
	r.phases[0].merge(oc)
	m0, err := env.scrape(ts.cl.url)
	if err != nil {
		return nil, err
	}
	tw := env.window(ts, workload, secs, tr)
	r.phases[1].merge(tw.outcome)
	m1, err := env.scrape(ts.cl.url)
	if err != nil {
		return nil, err
	}
	spans := tr.since(tw.start)
	r.phases[2].merge(env.verifyHot(ts))
	if workload == "write-mix" {
		oc, _ := env.verifyMisses(tw.served)
		r.phases[2].merge(oc)
	}
	if err := ts.cl.close(); err != nil {
		return nil, err
	}
	r.serveLayers(spans, w, tw, m0, m1, simulate, canonical)
	r.flagUnattributed(workload)
	r.zeroUnmeasured()
	return r, tr.write(tracePath(workload))
}

// runSweep runs paper-sweep: setupRepeats untimed warm-up sets, then
// whole sets until the window closes. A traced run then runs the same
// window again with one span per artifact, and a telemetry pass for the
// work counts.
func runSweep(seed int64, secs int, traced bool, nproc int) (*report, error) {
	order, digest := sweepOrder(seed)
	refs, err := parseRefs(paperRefsText)
	if err != nil {
		return nil, err
	}
	fmt.Printf("inputs: digest=%s artifacts=%d order=%v parallel=%d\n", digest[:16], len(order), order, nproc)
	sw := &sweeper{order: order, refs: refs, par: nproc}
	r := newReport()
	var setups []float64
	for k := 0; k < setupRepeats; k++ {
		d, oc := sw.set(nil, 0, nil)
		r.phases[0].merge(oc)
		setups = append(setups, d.Seconds())
	}
	w := sw.window(secs, nil)
	r.phases[1].merge(w.outcome)
	fmt.Printf("sets: %.3f s\n", seconds(w.times))
	r.set("throughput_rps", float64(len(w.times))/w.took.Seconds(), "1/s", len(w.times))
	r.pct("latency_p50_ms", msSamples(w.times), 50, "ms")
	r.pct("work_latency_p50_ms", msSamples(w.times), 50, "ms")
	r.pct("sweep_s", seconds(w.times), 50, "s")
	r.set("setup_s", median(setups), "s", len(setups))
	if !traced {
		rss, err := peakRSSMB()
		r.set("peak_rss_mb", rss, "MB", 1)
		return r, err
	}

	tr := newTracer()
	tw := sw.window(secs, tr)
	r.phases[1].merge(tw.outcome)
	counters := map[string]int64{}
	_, oc := sw.set(nil, 0, counters)
	r.phases[2].merge(oc)
	r.sweepLayers(tr.since(tw.start), w, tw, counters)
	r.flagUnattributed("paper-sweep")
	r.zeroUnmeasured()
	return r, tr.write(tracePath("paper-sweep"))
}

// zeroUnmeasured reports every per-layer metric the workload never
// reached as 0 over 0 samples.
func (r *report) zeroUnmeasured() {
	for _, d := range perLayer {
		if _, ok := r.values[d.Name]; !ok {
			r.set(d.Name, 0, d.Unit, 0)
		}
	}
}
