package energytrace

import (
	"math"
	"math/rand"
	"reflect"
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

// TestIndependentSetMatchesReference pins IndependentSet to the reference
// across regimes, seeds, fleet sizes and segment lengths (aligned,
// unaligned, and one longer than the trace), and checks that both leave
// the rng in the same state. The grid runs at a 10 s step to stay fast;
// the published 1 s step is checked once per regime.
func TestIndependentSetMatchesReference(t *testing.T) {
	check := func(name string, cfg SolarConfig, seed int64, nodes int, seg units.Duration) {
		t.Helper()
		rngRef, rngGot := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		want := refIndependentSet(cfg, nodes, seg, rngRef)
		got := IndependentSet(cfg, nodes, seg, rngGot)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%s step %v seed %d nodes %d segment %v: IndependentSet differs from the reference",
				name, cfg.Step, seed, nodes, seg)
		}
		if rngRef.Int63() != rngGot.Int63() {
			t.Fatalf("%s step %v seed %d nodes %d segment %v: rng streams diverged",
				name, cfg.Step, seed, nodes, seg)
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

// TestIndependentSetAllocs pins IndependentSet's allocation budget: one
// sample buffer per node plus a fixed handful (envelope, base-trace pool,
// trace headers, result slice; measured 4), independent of trace length
// and segment count.
func TestIndependentSetAllocs(t *testing.T) {
	cfg := SunnyDay()
	cfg.Step = 10 * units.Second
	rng := rand.New(rand.NewSource(1))
	for _, nodes := range []int{1, 10, 50} {
		allocs := testing.AllocsPerRun(5, func() {
			IndependentSet(cfg, nodes, 5*units.Minute, rng)
		})
		t.Logf("%d nodes: %v allocs", nodes, allocs)
		if budget := float64(nodes + 6); allocs > budget {
			t.Errorf("IndependentSet(%d nodes) allocs = %v, want ≤ %v", nodes, allocs, budget)
		}
	}
}
