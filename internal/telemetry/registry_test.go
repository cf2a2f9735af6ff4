package telemetry

import (
	"fmt"
	"io"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func exposition(t *testing.T, r *Registry) string {
	t.Helper()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestRegistryWriterRules pins every writer rule on one exposition:
// registration order across families, sorted label values inside one,
// silent empty labelled families, always-present unlabelled ones,
// integer counters (1234567, not 1.234567e+06), shortest-'g' gauges,
// bounds and sums, and %q-quoted label values.
func TestRegistryWriterRules(t *testing.T) {
	var r Registry
	r.Counter("t_never_total", "Labelled, never used.", "kind")
	ops := r.Counter("t_ops_total", "Unlabelled counter.")
	level := r.Gauge("t_level", "Labelled gauge.", "a", "b")
	secs := r.Histogram("t_seconds", "Labelled histogram.", []float64{0.001, 0.5, 2}, "kind")
	r.Histogram("t_wait_seconds", "Unlabelled histogram.", []float64{1})
	r.Gauge("t_free", "Unlabelled gauge, never set.")

	ops.Add(1234567)
	level.Set(1234567, "z", "a")
	level.Set(0.25, "b", `q"uo\te`)
	level.Set(3, "b", "a")
	secs.Observe(0.0005, "zeta")
	secs.Observe(1, "alpha")
	secs.Observe(3, "alpha")

	want := `# HELP t_ops_total Unlabelled counter.
# TYPE t_ops_total counter
t_ops_total 1234567
# HELP t_level Labelled gauge.
# TYPE t_level gauge
t_level{a="b",b="a"} 3
t_level{a="b",b="q\"uo\\te"} 0.25
t_level{a="z",b="a"} 1.234567e+06
# HELP t_seconds Labelled histogram.
# TYPE t_seconds histogram
t_seconds_bucket{kind="alpha",le="0.001"} 0
t_seconds_bucket{kind="alpha",le="0.5"} 0
t_seconds_bucket{kind="alpha",le="2"} 1
t_seconds_bucket{kind="alpha",le="+Inf"} 2
t_seconds_sum{kind="alpha"} 4
t_seconds_count{kind="alpha"} 2
t_seconds_bucket{kind="zeta",le="0.001"} 1
t_seconds_bucket{kind="zeta",le="0.5"} 1
t_seconds_bucket{kind="zeta",le="2"} 1
t_seconds_bucket{kind="zeta",le="+Inf"} 1
t_seconds_sum{kind="zeta"} 0.0005
t_seconds_count{kind="zeta"} 1
# HELP t_wait_seconds Unlabelled histogram.
# TYPE t_wait_seconds histogram
t_wait_seconds_bucket{le="1"} 0
t_wait_seconds_bucket{le="+Inf"} 0
t_wait_seconds_sum 0
t_wait_seconds_count 0
# HELP t_free Unlabelled gauge, never set.
# TYPE t_free gauge
t_free 0
`
	if got := exposition(t, &r); got != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", got, want)
	}
	if got, want := secs.Mean(), (0.0005+1+3)/3; math.Abs(got-want) > 1e-12 {
		t.Fatalf("Mean = %v, want %v", got, want)
	}
}

// TestRegistryMisusePanics: a family registered twice, one with more
// labels than a series key holds, and a call with the wrong number of
// label values are programming errors.
func TestRegistryMisusePanics(t *testing.T) {
	var r Registry
	c := r.Counter("c_total", "c", "kind")
	for name, f := range map[string]func(){
		"duplicate":    func() { r.Gauge("c_total", "again") },
		"too many":     func() { r.Counter("d_total", "d", "a", "b", "c") },
		"wrong values": func() { c.Add(1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

// blockedWriter parks the first Write until release is closed.
type blockedWriter struct {
	entered, release chan struct{}
}

func (w *blockedWriter) Write(p []byte) (int, error) {
	close(w.entered)
	<-w.release
	return len(p), nil
}

// TestRegistryWriteReleasesLockBeforeIO: a reader stuck in Write must not
// stall the goroutines recording into the registry.
func TestRegistryWriteReleasesLockBeforeIO(t *testing.T) {
	var r Registry
	c := r.Counter("c_total", "c")
	g := r.Gauge("g", "g", "k")
	h := r.Histogram("h_seconds", "h", []float64{1})
	w := &blockedWriter{entered: make(chan struct{}), release: make(chan struct{})}
	go r.WritePrometheus(w)
	<-w.entered
	defer close(w.release)

	done := make(chan struct{})
	go func() {
		c.Add(1)
		g.Set(2, "x")
		h.Observe(0.5)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Add, Set and Observe blocked behind a writer stuck in Write")
	}
}

// TestRegistryConcurrent records from several goroutines while others
// scrape; run it under -race. The totals must come out exact.
func TestRegistryConcurrent(t *testing.T) {
	const workers, iters = 4, 500
	var r Registry
	ops := r.Counter("ops_total", "ops", "worker")
	all := r.Counter("all_total", "all")
	level := r.Gauge("level", "level", "worker")
	secs := r.Histogram("seconds", "seconds", []float64{0.5}, "worker")
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		name := fmt.Sprint(w)
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				ops.Add(1, name)
				all.Add(1)
				level.Set(float64(i), name)
				secs.Observe(1, name)
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < iters/50; i++ {
				if err := r.WritePrometheus(io.Discard); err != nil {
					t.Error(err)
				}
				secs.Mean()
			}
		}()
	}
	wg.Wait()
	out := exposition(t, &r)
	for _, want := range []string{
		fmt.Sprintf("all_total %d\n", workers*iters),
		fmt.Sprintf("ops_total{worker=\"3\"} %d\n", iters),
		fmt.Sprintf("level{worker=\"0\"} %d\n", iters-1),
		fmt.Sprintf("seconds_count{worker=\"2\"} %d\n", iters),
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if got := secs.Mean(); got != 1 {
		t.Fatalf("Mean = %v, want 1", got)
	}
}

// TestRegistryRecordingDoesNotAllocate: Add, Set and Observe on an
// existing series allocate nothing, at zero, one and two labels.
func TestRegistryRecordingDoesNotAllocate(t *testing.T) {
	var r Registry
	c0, c1, c2 := r.Counter("c0", "c"), r.Counter("c1", "c", "a"), r.Counter("c2", "c", "a", "b")
	g0, g1, g2 := r.Gauge("g0", "g"), r.Gauge("g1", "g", "a"), r.Gauge("g2", "g", "a", "b")
	bounds := []float64{1, 2}
	h0, h1, h2 := r.Histogram("h0", "h", bounds), r.Histogram("h1", "h", bounds, "a"), r.Histogram("h2", "h", bounds, "a", "b")
	reason, tenant := "depth", strings.Repeat("gold", 2)
	c1.Add(0, tenant)
	c2.Add(0, reason, tenant)
	g1.Set(0, tenant)
	g2.Set(0, reason, tenant)
	h1.Observe(0, tenant)
	h2.Observe(0, reason, tenant)
	for name, f := range map[string]func(){
		"Add/0": func() { c0.Add(1) }, "Add/1": func() { c1.Add(1, tenant) }, "Add/2": func() { c2.Add(1, reason, tenant) },
		"Set/0": func() { g0.Set(1) }, "Set/1": func() { g1.Set(1, tenant) }, "Set/2": func() { g2.Set(1, reason, tenant) },
		"Observe/0": func() { h0.Observe(1) }, "Observe/1": func() { h1.Observe(1, tenant) }, "Observe/2": func() { h2.Observe(1, reason, tenant) },
	} {
		if n := testing.AllocsPerRun(100, f); n != 0 {
			t.Errorf("%s allocates %v times per call, want 0", name, n)
		}
	}
}
