package main

import (
	"bufio"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"time"

	"neofog"
)

// paperRefs holds the SHA-256 of every artifact's output at seed 1 and
// published length, recorded from the code the benchmark was defined on
// (regenerate with -record-refs).
//
//go:embed paper_sha256.txt
var paperRefsText string

// refsPath is where -record-refs writes, relative to the repository root.
const refsPath = "perfbench/paper_sha256.txt"

func parseRefs(text string) (map[string]string, error) {
	refs := map[string]string{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		id, sum, ok := strings.Cut(sc.Text(), " ")
		if !ok || len(sum) != 64 {
			return nil, fmt.Errorf("paper refs: bad line %q", sc.Text())
		}
		refs[id] = sum
	}
	for _, id := range neofog.ExperimentIDs() {
		if refs[id] == "" {
			return nil, fmt.Errorf("paper refs: no reference for artifact %q", id)
		}
	}
	return refs, sc.Err()
}

// checkArtifact compares one artifact's output with its reference.
func checkArtifact(refs map[string]string, id, output string) error {
	sum := sha256.Sum256([]byte(output))
	if got := hex.EncodeToString(sum[:]); got != refs[id] {
		return fmt.Errorf("artifact %s: sha256 %s, reference %s", id, got, refs[id])
	}
	return nil
}

// sweeper regenerates the paper's artifacts through the facade.
type sweeper struct {
	order []string
	refs  map[string]string
	par   int
}

// set regenerates every artifact once, in the seeded order, checking
// each against its reference. With a tracer it records one span per
// neofog.RunExperiment; with a telemetry pass it attaches a fresh
// collector to each artifact and sums its counters into counters.
func (s *sweeper) set(tr *tracer, setID uint64, counters map[string]int64) (time.Duration, outcome) {
	var oc outcome
	start := time.Now()
	for _, id := range s.order {
		opts := neofog.ExperimentOptions{Seed: 1, Parallel: s.par}
		if counters != nil {
			opts.Telemetry = neofog.NewTelemetry()
		}
		t0 := time.Now()
		out, err := neofog.RunExperiment(id, opts)
		if tr != nil {
			tr.add(span{kind: spanExperiment, id: setID, name: id, start: t0.UnixNano(), end: time.Now().UnixNano()})
		}
		if err == nil {
			err = checkArtifact(s.refs, id, out)
		}
		if err != nil {
			oc.fail("%v", err)
			continue
		}
		oc.pass()
		if counters != nil {
			for _, name := range telemetryCounters {
				counters[name] += opts.Telemetry.Counter(name)
			}
		}
	}
	return time.Since(start), oc
}

// telemetryCounters are the simulation core's work counts reported by
// the telemetry pass.
var telemetryCounters = []string{"sim.wakeups", "sim.rt_requests", "balance.rounds", "balance.moves", "virt.failovers"}

// sweepWindow is one timed paper-sweep window.
type sweepWindow struct {
	times []time.Duration // each set's wall time
	start time.Time
	took  time.Duration
	rt    runtimeDelta
	outcome
}

// window regenerates whole sets until seconds have passed.
func (s *sweeper) window(seconds int, tr *tracer) sweepWindow {
	before := readRuntime()
	w := sweepWindow{start: time.Now()}
	for i := uint64(1); time.Since(w.start) < time.Duration(seconds)*time.Second; i++ {
		d, o := s.set(tr, i, nil)
		w.merge(o)
		w.times = append(w.times, d)
	}
	w.took = time.Since(w.start)
	w.rt = readRuntime().since(before, len(w.times))
	return w
}

// recordRefs regenerates every artifact at seed 1 and writes the
// reference file.
func recordRefs(par int) error {
	var b strings.Builder
	for _, id := range neofog.ExperimentIDs() {
		out, err := neofog.RunExperiment(id, neofog.ExperimentOptions{Seed: 1, Parallel: par})
		if err != nil {
			return err
		}
		sum := sha256.Sum256([]byte(out))
		fmt.Fprintf(&b, "%s %s\n", id, hex.EncodeToString(sum[:]))
	}
	return os.WriteFile(refsPath, []byte(b.String()), 0o644)
}
