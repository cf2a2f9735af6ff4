package energytrace

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"neofog/internal/units"
)

// Trace is a power-income signal sampled at any instant: the view the
// generic integral takes of a trace.
type Trace interface {
	// PowerAt reports the instantaneous income power at time t. Times
	// outside the trace's duration report zero.
	PowerAt(t units.Duration) units.Power
	// Duration reports the length of the trace.
	Duration() units.Duration
}

// PowerAt implements Trace.
func (s *Sampled) PowerAt(t units.Duration) units.Power {
	if t < 0 {
		return 0
	}
	i := int(t / s.Step)
	if i >= len(s.Samples) {
		return 0
	}
	return s.Samples[i]
}

// integrateGeneric is the oracle Integrate must match bit for bit: it
// samples tr at every step from the earlier bound, the last step cut
// short at the later one. It is exact for traces that are piecewise
// constant at multiples of step.
func integrateGeneric(tr Trace, from, to, step units.Duration) units.Energy {
	if to < from {
		from, to = to, from
	}
	var total units.Energy
	for t := from; t < to; t += step {
		dt := step
		if t+dt > to {
			dt = to - t
		}
		total += tr.PowerAt(t).Over(dt)
	}
	return total
}

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

// refDependentSet is the bridge recipe one trace at a time: a generated
// base trace, then a fresh trace per node.
func refDependentSet(cfg SolarConfig, nodes int, variance float64, rng *rand.Rand) []*Sampled {
	base := refGenerate(cfg, rng)
	out := make([]*Sampled, nodes)
	for n := range out {
		gain := 1 + rng.NormFloat64()*variance*0.8
		if gain < 0.1 {
			gain = 0.1
		}
		tr := NewSampled(base.Step, len(base.Samples))
		for i, p := range base.Samples {
			f := gain * (1 + rng.NormFloat64()*variance*0.25)
			if f < 0 {
				f = 0
			}
			tr.Samples[i] = units.Power(float64(p) * f)
		}
		out[n] = tr
	}
	return out
}

// refScale is a per-node gain as a scaled copy of the trace.
func refScale(tr *Sampled, k float64) *Sampled {
	out := NewSampled(tr.Step, len(tr.Samples))
	for i, p := range tr.Samples {
		out.Samples[i] = units.Power(float64(p) * k)
	}
	return out
}

// refIncome integrates each whole-day reference trace one slot at a time
// over the whole slots inside span, the sums a simulator reading the
// trace every round would take.
func refIncome(traces []*Sampled, slot, span units.Duration) [][]units.Energy {
	out := make([][]units.Energy, len(traces))
	for n, tr := range traces {
		out[n] = make([]units.Energy, int(min(span, tr.Duration())/slot))
		for k := range out[n] {
			from := slot * units.Duration(k)
			out[n][k] = integrateGeneric(tr, from, from+slot, tr.Step)
		}
	}
	return out
}

// canopy draws a forest node's lognormal gain, as the Fig. 10 profiles
// do after their set's draws.
func canopy(rng *rand.Rand) float64 { return math.Exp(rng.NormFloat64() * 0.5) }

// deckShadow is a bridge node's fixed gain, as Fig. 9 shades its set.
func deckShadow(n int) float64 { return []float64{0.35, 1.0, 1.8}[n%3] }

// incomeDiff synthesises both recipes' income at one seed and holds
// every slot energy to the reference traces integrated per slot, with
// gains when gained, and the rng to the reference's final state. It
// describes the first difference, or returns "".
func incomeDiff(cfg SolarConfig, seed int64, nodes int, seg, span, slot units.Duration, gained bool) string {
	read := span
	if read == 0 {
		read = cfg.DayLength()
	}
	rngRef, rngGot := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
	ref := refIndependentSet(cfg, nodes, seg, rngRef)
	opts := IncomeOpts{Slot: slot, Span: span}
	if gained {
		for n, tr := range ref {
			ref[n] = refScale(tr, canopy(rngRef))
		}
		opts.Gain = func(int) float64 { return canopy(rngGot) }
	}
	if d := diffIncome(refIncome(ref, slot, read), IndependentIncome(cfg, nodes, seg, opts, rngGot), slot); d != "" {
		return "IndependentIncome: " + d
	}
	if rngRef.Int63() != rngGot.Int63() {
		return "IndependentIncome: rng streams diverged"
	}

	rngRef, rngGot = rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
	ref = refDependentSet(cfg, nodes, 0.3, rngRef)
	opts.Gain = nil
	if gained {
		for n, tr := range ref {
			ref[n] = refScale(tr, deckShadow(n))
		}
		opts.Gain = deckShadow
	}
	if d := diffIncome(refIncome(ref, slot, read), DependentIncome(cfg, nodes, 0.3, opts, rngGot), slot); d != "" {
		return "DependentIncome: " + d
	}
	if rngRef.Int63() != rngGot.Int63() {
		return "DependentIncome: rng streams diverged"
	}
	return ""
}

// diffIncome describes the first difference between reference slot
// energies and an income set, comparing energies as bits, or returns ""
// when they are identical.
func diffIncome(want [][]units.Energy, got []Income, slot units.Duration) string {
	if len(want) != len(got) {
		return fmt.Sprintf("%d nodes, want %d", len(got), len(want))
	}
	for n := range want {
		if got[n].Slot != slot || len(got[n].Energy) != len(want[n]) {
			return fmt.Sprintf("node %d has %d slots of %v, want %d of %v", n, len(got[n].Energy), got[n].Slot, len(want[n]), slot)
		}
		for k, w := range want[n] {
			if math.Float64bits(float64(w)) != math.Float64bits(float64(got[n].Energy[k])) {
				return fmt.Sprintf("node %d slot %d = %v, want %v", n, k, got[n].Energy[k], w)
			}
		}
	}
	return ""
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
// the published 1 s step is checked once per regime. Spans cut only
// income, so TestIncomeMatchesReference checks them.
func TestIndependentSetMatchesReference(t *testing.T) {
	check := func(name string, cfg SolarConfig, seed int64, nodes int, seg units.Duration) {
		t.Helper()
		rngRef, rngGot := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		if d := diffSets(refIndependentSet(cfg, nodes, seg, rngRef), IndependentSet(cfg, nodes, seg, rngGot)); d != "" {
			t.Fatalf("%s step %v seed %d nodes %d segment %v: IndependentSet differs from the reference: %s",
				name, cfg.Step, seed, nodes, seg, d)
		}
		if rngRef.Int63() != rngGot.Int63() {
			t.Fatalf("%s step %v seed %d nodes %d segment %v: rng streams diverged", name, cfg.Step, seed, nodes, seg)
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

// TestIncomeMatchesReference holds both recipes' income to the reference
// traces integrated per slot, with and without per-node gains, at the
// slots the simulator runs (12 s, and 7.5, 0.4 and 61 s, which straddle
// or split samples) over spans of one slot, 30 slots, the day minus one
// step, the whole day (0 and its length) and past it, and checks that
// the rng ends where the reference's does. The grid runs at a 10 s step
// over forest segments that are aligned, unaligned and longer than the
// day; the published 1 s step is checked once per regime and slot, over
// a 30-slot span (the facade's cut) and the whole day.
func TestIncomeMatchesReference(t *testing.T) {
	slots := []units.Duration{12 * units.Second, 7500 * units.Millisecond, 400 * units.Millisecond, 61 * units.Second}
	check := func(name string, cfg SolarConfig, seed int64, nodes int, seg, slot units.Duration, spans ...units.Duration) {
		t.Helper()
		for _, span := range spans {
			for _, gained := range []bool{false, true} {
				if d := incomeDiff(cfg, seed, nodes, seg, span, slot, gained); d != "" {
					t.Fatalf("%s step %v seed %d nodes %d segment %v slot %v span %v gains %v: %s",
						name, cfg.Step, seed, nodes, seg, slot, span, gained, d)
				}
			}
		}
	}
	fleets := []struct {
		nodes int
		seg   units.Duration
	}{{1, 7 * units.Minute}, {7, 5 * units.Minute}, {7, 6 * units.Hour}}
	for name, cfg := range oracleConfigs() {
		for _, slot := range slots {
			check(name, cfg, 1, 10, 5*units.Minute, slot, 30*slot, 0)
		}
		cfg.Step = 10 * units.Second
		day := cfg.DayLength()
		for _, f := range fleets {
			for _, slot := range slots {
				check(name, cfg, 2, f.nodes, f.seg, slot, slot, 30*slot, day-cfg.Step, 0, day, day+5*units.Minute)
			}
		}
	}
}

// FuzzSolarSynthesis holds Generate, IndependentSet and both recipes'
// income to the reference bit for bit over the whole config space at a
// 60 s step: any peak, attenuation and floor, dwell means of zero or
// more, jitter from zero to the largest finite value, every fleet size
// and segment, and income over every span, at slots from 0.1 s to 120 s
// in 0.1 s steps, with and without per-node gains. Samples and energies are
// compared as bits, so NaN and −0 count.
func FuzzSolarSynthesis(f *testing.F) {
	f.Fuzz(func(t *testing.T, peak, attenuation float64, clearS, coverS uint32, jitter, floor float64,
		seed int64, nodes uint8, segSteps uint16, spanS uint32, slotDs uint16, gained bool) {
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
		if d := diffSets(refIndependentSet(cfg, n, seg, rngRef), IndependentSet(cfg, n, seg, rngGot)); d != "" {
			t.Fatalf("IndependentSet differs from the reference: %s", d)
		}
		if rngRef.Int63() != rngGot.Int63() {
			t.Fatal("IndependentSet: rng streams diverged")
		}

		slot := units.Duration(1+slotDs%1200) * 100 * units.Millisecond
		if d := incomeDiff(cfg, seed, n, seg, span, slot, gained); d != "" {
			t.Fatalf("slot %v: %s", slot, d)
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
// the segment count, and the recipe's scratch (base-trace pool, node
// buffer and segment picks) is recycled, so losing it shows as a fifth
// allocation. The collector is off while it counts: after each
// collection the pool re-allocates its per-P cache. The race detector
// makes sync.Pool drop a random share of the scratches put back, and
// each drop costs the scratch, its sample buffer and its picks again,
// so that build allows those three on top.
func TestIndependentSetAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	budget := 4.0
	if raceEnabled {
		budget += 3
	}
	cfg := SunnyDay()
	cfg.Step = 10 * units.Second
	rng := rand.New(rand.NewSource(1))
	for _, nodes := range []int{1, 10, 50} {
		allocs := testing.AllocsPerRun(5, func() {
			IndependentSet(cfg, nodes, 5*units.Minute, rng)
		})
		t.Logf("%d nodes: %v allocs", nodes, allocs)
		if allocs > budget {
			t.Errorf("IndependentSet(%d nodes) allocs = %v, want ≤ %v", nodes, allocs, budget)
		}
	}
}

// TestIncomeAllocBytes pins the bytes one Fig. 13-shaped income
// synthesis allocates: the bridge recipe over 50 nodes, the whole 5-hour
// day at 1 s, integrated into 12 s slots. The budget is the energies
// (50 × 1500 × 8 B = 600 000 B), one per-second buffer (18 000 × 8 B =
// 144 000 B) and a slack. The slack: the allocator rounds the energies,
// a large object, up to whole 8 KiB pages (606 208 B, +6 208 B); the
// income headers (50 × 32 B) take a 1 792 B size class, and the set's
// own header less than 128 B. 16 KiB covers those with room for a
// size-class change. With the recipe's scratch warm, the per-second
// buffer is not spent at all; it is the headroom the budget grants. The
// per-node traces the simulator once read would cost 50 × 144 000 B =
// 7.2 MB, so their return fails at once. Bytes, not allocation counts,
// are what the traces cost, so bytes are what this counts, with the
// collector off.
//
// The race detector makes sync.Pool drop a random share of the
// scratches put back. A drop rebuilds the bridge recipe's scratch: its
// 80 B header and one sample buffer for the base trace and the node,
// 2 × 144 000 B rounded up to 294 912 B of pages. The race build allows
// that worst case, a drop on every run, on top, so the luck of the drops
// never fails it.
func TestIncomeAllocBytes(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	cfg := RainyDay()
	cfg.Peak = 0.5
	const nodes = 50
	slot := 12 * units.Second
	samples := int(cfg.DayLength() / cfg.Step)
	energies := nodes * int(cfg.DayLength()/slot) * 8
	budget := energies + samples*8 + 16<<10
	if raceEnabled {
		budget += 294_912 + 80
	}
	rng := rand.New(rand.NewSource(1))
	synth := func() []Income {
		return DependentIncome(cfg, nodes, 0.3, IncomeOpts{Slot: slot}, rng)
	}
	synth() // the preset envelope and the recipe's scratch
	const runs = 4
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if set := synth(); len(set) != nodes || len(set[nodes-1].Energy) != 1500 {
			t.Fatalf("income set is %d nodes, the last of %d slots", len(set), len(set[len(set)-1].Energy))
		}
	}
	runtime.ReadMemStats(&after)
	got := int(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("%d B per synthesis, budget %d B (energies %d B)", got, budget, energies)
	if got > budget {
		t.Errorf("Fig. 13-shaped income synthesis allocates %d B, want ≤ %d B", got, budget)
	}
}

// TestSynthesisConcurrent runs Generate, IndependentSet and both
// recipes' income from several goroutines at once, over the shared
// preset envelope and the pooled recipe scratch at two trace lengths,
// and requires every result to equal the serial one. Run it under -race.
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
	type result struct {
		base           *Sampled
		set            []*Sampled
		forest, bridge []Income
	}
	run := func(j job, seed int64) result {
		slot := IncomeOpts{Slot: 12 * units.Second, Span: j.span}
		return result{
			base:   j.cfg.Generate(rand.New(rand.NewSource(seed))),
			set:    IndependentSet(j.cfg, 6, 5*units.Minute, rand.New(rand.NewSource(seed))),
			forest: IndependentIncome(j.cfg, 6, 5*units.Minute, slot, rand.New(rand.NewSource(seed))),
			bridge: DependentIncome(j.cfg, 6, 0.3, slot, rand.New(rand.NewSource(seed))),
		}
	}
	want := make([]result, len(jobs))
	for i, j := range jobs {
		want[i] = run(j, int64(i+1))
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
				if got := run(jobs[i], int64(i+1)); !reflect.DeepEqual(got, want[i]) {
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
