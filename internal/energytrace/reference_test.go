package energytrace

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime/debug"
	"sync"
	"testing"

	"neofog/internal/units"
)

// refGenerate and refIndependentSet are the one-trace-at-a-time synthesis
// the set builders must reproduce bit for bit: the envelope recomputed per
// base trace and every node trace assembled from copied segments.
func refGenerate(c SolarConfig, rng *rand.Rand) *Sampled {
	n := int((c.DayEnd - c.DayStart) / c.Step)
	tr := NewSampled(c.Step, n)
	dayLen := float64(c.DayEnd - c.DayStart)
	covered := rng.Float64() < 0.5
	dwell := c.nextDwell(rng, covered)
	for i := 0; i < n; i++ {
		t := float64(i) * float64(c.Step)
		envelope := math.Sin(math.Pi * t / dayLen)
		p := float64(c.Peak) * envelope
		if covered {
			p *= c.CloudAttenuation
		}
		dwell -= c.Step
		if dwell <= 0 {
			covered = !covered
			dwell = c.nextDwell(rng, covered)
		}
		if c.ShadeJitter > 0 {
			f := 1 + rng.NormFloat64()*c.ShadeJitter
			f = math.Max(0, math.Min(f, 1+3*c.ShadeJitter))
			p *= f
		}
		p += float64(c.Floor) * envelope
		if p < 0 {
			p = 0
		}
		tr.Samples[i] = units.Power(p)
	}
	return tr
}

func refIndependentSet(cfg SolarConfig, nodes int, segment units.Duration, rng *rand.Rand) []*Sampled {
	const poolSize = 8
	pool := make([]*Sampled, poolSize)
	for i := range pool {
		pool[i] = refGenerate(cfg, rng)
	}
	segSamples := int(segment / cfg.Step)
	total := len(pool[0].Samples)
	if segSamples > total {
		segSamples = total
	}
	maxStart := (total - segSamples) / segSamples
	out := make([]*Sampled, nodes)
	for n := 0; n < nodes; n++ {
		var samples []units.Power
		for len(samples) < total {
			src := pool[rng.Intn(poolSize)]
			at := rng.Intn(maxStart+1) * segSamples
			seg := make([]units.Power, segSamples)
			copy(seg, src.Samples[at:at+segSamples])
			samples = append(samples, seg...)
		}
		out[n] = &Sampled{Step: cfg.Step, Samples: samples[:total]}
	}
	return out
}

// oracleConfigs are the regimes the experiments synthesise: the three
// weather presets, the forest variant (shade jitter 0.25) and Fig. 12's
// (0.3).
func oracleConfigs() map[string]SolarConfig {
	forest, fig12 := SunnyDay(), SunnyDay()
	forest.ShadeJitter = 0.25
	fig12.ShadeJitter = 0.3
	return map[string]SolarConfig{
		"sunny": SunnyDay(), "overcast": OvercastDay(), "rainy": RainyDay(),
		"forest": forest, "fig12": fig12,
	}
}

// TestGenerateMatchesReference pins Generate to the reference per sample.
func TestGenerateMatchesReference(t *testing.T) {
	for name, cfg := range oracleConfigs() {
		for seed := int64(1); seed <= 3; seed++ {
			want := refGenerate(cfg, rand.New(rand.NewSource(seed)))
			got := cfg.Generate(rand.New(rand.NewSource(seed)))
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("%s seed %d: Generate differs from the reference", name, seed)
			}
		}
	}
}

// cutTo cuts each trace to the samples a reader of span reads: the
// fewest whose steps cover span, or the whole trace.
func cutTo(traces []*Sampled, span units.Duration) []*Sampled {
	out := make([]*Sampled, len(traces))
	for i, tr := range traces {
		keep := 0
		for keep < len(tr.Samples) && units.Duration(keep)*tr.Step < span {
			keep++
		}
		out[i] = &Sampled{Step: tr.Step, Samples: tr.Samples[:keep]}
	}
	return out
}

// TestIndependentSetMatchesReference pins IndependentSet to the reference
// cut to the span, across regimes, seeds, fleet sizes, segment lengths
// (aligned, unaligned, and one longer than the trace) and spans (one
// step, part of a segment, whole segments, the day minus one step, the
// day, and beyond it), and checks that both leave the rng in the same
// state. The grid runs at a 10 s step to stay fast; the published 1 s
// step is checked once per regime and span.
func TestIndependentSetMatchesReference(t *testing.T) {
	check := func(name string, cfg SolarConfig, seed int64, nodes int, seg units.Duration) {
		t.Helper()
		rngRef := rand.New(rand.NewSource(seed))
		ref := refIndependentSet(cfg, nodes, seg, rngRef)
		next := rngRef.Int63()
		day := cfg.DayLength()
		for _, span := range []units.Duration{cfg.Step, seg/2 + cfg.Step/3, 3 * seg, day - cfg.Step, day, day + seg} {
			rngGot := rand.New(rand.NewSource(seed))
			if d := diffSets(cutTo(ref, span), IndependentSet(cfg, nodes, seg, span, rngGot)); d != "" {
				t.Fatalf("%s step %v seed %d nodes %d segment %v span %v: IndependentSet differs from the reference: %s",
					name, cfg.Step, seed, nodes, seg, span, d)
			}
			if rngGot.Int63() != next {
				t.Fatalf("%s step %v seed %d nodes %d segment %v span %v: rng streams diverged",
					name, cfg.Step, seed, nodes, seg, span)
			}
		}
	}
	segments := []units.Duration{5 * units.Minute, 7 * units.Minute, 6 * units.Hour}
	for name, cfg := range oracleConfigs() {
		check(name, cfg, 1, 10, 5*units.Minute)
		cfg.Step = 10 * units.Second
		for seed := int64(1); seed <= 3; seed++ {
			for _, nodes := range []int{1, 7, 10, 50} {
				for _, seg := range segments {
					check(name, cfg, seed, nodes, seg)
				}
			}
		}
	}
}

// FuzzSolarSynthesis holds Generate and IndependentSet to the reference
// bit for bit over the whole config space at a 60 s step: any peak,
// attenuation and floor, dwell means of zero or more, jitter from zero
// to the largest finite value, and every fleet size, segment and span.
// Samples are compared as bits, so NaN and −0 count.
func FuzzSolarSynthesis(f *testing.F) {
	f.Fuzz(func(t *testing.T, peak, attenuation float64, clearS, coverS uint32, jitter, floor float64,
		seed int64, nodes uint8, segSteps uint16, spanS uint32) {
		cfg := SunnyDay()
		cfg.Step = units.Minute
		cfg.Peak = units.Power(peak)
		cfg.CloudAttenuation = attenuation
		cfg.CloudMeanClear = units.Duration(clearS%(10*3600)) * units.Second
		cfg.CloudMeanCover = units.Duration(coverS%(10*3600)) * units.Second
		// The clamp is exact for finite σ (see fill); +Inf folds to the
		// largest finite σ, whose 1+3σ already overflows.
		if math.IsInf(jitter, 1) {
			jitter = math.MaxFloat64
		}
		cfg.ShadeJitter = jitter
		cfg.Floor = units.Power(floor)
		n := int(nodes % 33)
		seg := units.Duration(1+segSteps%400) * cfg.Step
		span := units.Duration(1+spanS%(6*3600)) * units.Second

		want := refGenerate(cfg, rand.New(rand.NewSource(seed)))
		got := cfg.Generate(rand.New(rand.NewSource(seed)))
		if d := diffSets([]*Sampled{want}, []*Sampled{got}); d != "" {
			t.Fatalf("Generate differs from the reference: %s", d)
		}

		rngRef, rngGot := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		wantSet := cutTo(refIndependentSet(cfg, n, seg, rngRef), span)
		if d := diffSets(wantSet, IndependentSet(cfg, n, seg, span, rngGot)); d != "" {
			t.Fatalf("IndependentSet differs from the reference: %s", d)
		}
		if rngRef.Int63() != rngGot.Int63() {
			t.Fatal("IndependentSet: rng streams diverged")
		}
	})
}

// diffSets describes the first difference between two trace sets,
// comparing samples as bits, or returns "" when they are identical.
func diffSets(want, got []*Sampled) string {
	if len(want) != len(got) {
		return fmt.Sprintf("%d traces, want %d", len(got), len(want))
	}
	for n := range want {
		w, g := want[n], got[n]
		if w.Step != g.Step || len(w.Samples) != len(g.Samples) {
			return fmt.Sprintf("trace %d is %d samples at %v, want %d at %v", n, len(g.Samples), g.Step, len(w.Samples), w.Step)
		}
		for i := range w.Samples {
			if math.Float64bits(float64(w.Samples[i])) != math.Float64bits(float64(g.Samples[i])) {
				return fmt.Sprintf("trace %d sample %d = %v, want %v", n, i, g.Samples[i], w.Samples[i])
			}
		}
	}
	return ""
}

// raceEnabled reports a build with the race detector (see race_test.go).
var raceEnabled bool

// TestIndependentSetAllocs pins IndependentSet's allocation budget to a
// constant: the envelope (this test's 10 s step is not the shared preset
// shape), one sample buffer for every node, the trace headers and the
// result slice. It grows with neither the fleet, the trace length nor
// the segment count, and the base-trace pool is recycled, so losing the
// pool shows as a fifth allocation. The collector is off while it
// counts: after each collection the pool re-allocates its per-P cache.
// The race detector makes sync.Pool drop a random share of the buffers
// put back, and each drop costs the pool's slice header and buffer
// again, so that build allows those two on top.
func TestIndependentSetAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	budget := 4.0
	if raceEnabled {
		budget += 2
	}
	cfg := SunnyDay()
	cfg.Step = 10 * units.Second
	rng := rand.New(rand.NewSource(1))
	for _, nodes := range []int{1, 10, 50} {
		allocs := testing.AllocsPerRun(5, func() {
			IndependentSet(cfg, nodes, 5*units.Minute, cfg.DayLength(), rng)
		})
		t.Logf("%d nodes: %v allocs", nodes, allocs)
		if allocs > budget {
			t.Errorf("IndependentSet(%d nodes) allocs = %v, want ≤ %v", nodes, allocs, budget)
		}
	}
}

// TestSynthesisConcurrent runs Generate and IndependentSet from several
// goroutines at once, over the shared preset envelope and the pooled
// base-trace scratch at two trace lengths, and requires every result to
// equal the serial one. Run it under -race.
func TestSynthesisConcurrent(t *testing.T) {
	coarse := SunnyDay()
	coarse.Step = 10 * units.Second
	type job struct {
		cfg  SolarConfig
		span units.Duration
	}
	jobs := []job{
		{SunnyDay(), SunnyDay().DayLength()},
		{RainyDay(), 30 * 12 * units.Second},
		{OvercastDay(), units.Second},
		{coarse, coarse.DayLength()},
		{coarse, 7 * units.Minute},
	}
	run := func(j job, seed int64) (*Sampled, []*Sampled) {
		return j.cfg.Generate(rand.New(rand.NewSource(seed))),
			IndependentSet(j.cfg, 6, 5*units.Minute, j.span, rand.New(rand.NewSource(seed)))
	}
	type result struct {
		base *Sampled
		set  []*Sampled
	}
	want := make([]result, len(jobs))
	for i, j := range jobs {
		want[i].base, want[i].set = run(j, int64(i+1))
	}
	const workers = 4
	var wg sync.WaitGroup
	errs := make(chan string, workers*len(jobs))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := range jobs {
				i := (k + w) % len(jobs)
				base, set := run(jobs[i], int64(i+1))
				if !reflect.DeepEqual(base, want[i].base) || !reflect.DeepEqual(set, want[i].set) {
					errs <- fmt.Sprintf("worker %d job %d differs from the serial result", w, i)
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
