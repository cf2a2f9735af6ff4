package energytrace

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"neofog/internal/units"
)

// Constant is a trace with fixed power for a fixed duration.
type Constant struct {
	P   units.Power
	Len units.Duration
}

// PowerAt implements Trace.
func (c Constant) PowerAt(t units.Duration) units.Power {
	if t < 0 || t >= c.Len {
		return 0
	}
	return c.P
}

// Duration implements Trace.
func (c Constant) Duration() units.Duration { return c.Len }

// constantSampled is Constant as a Sampled trace at a 1 ms step.
func constantSampled(c Constant) *Sampled {
	s := NewSampled(units.Millisecond, int(c.Len/units.Millisecond))
	for i := range s.Samples {
		s.Samples[i] = c.P
	}
	return s
}

func TestConstantTrace(t *testing.T) {
	c := Constant{P: 5, Len: units.Second}
	if c.PowerAt(0) != 5 || c.PowerAt(units.Second-1) != 5 {
		t.Fatal("constant trace wrong inside range")
	}
	if c.PowerAt(-1) != 0 || c.PowerAt(units.Second) != 0 {
		t.Fatal("constant trace should be zero outside range")
	}
	if got := integrateGeneric(c, 0, units.Second, units.Millisecond); got != 5e6 {
		t.Fatalf("generic integral = %v, want 5mJ", got)
	}
	if got := Integrate(constantSampled(c), 0, units.Second); got != 5e6 {
		t.Fatalf("Integrate = %v, want 5mJ", got)
	}
}

func TestIntegratePartialStep(t *testing.T) {
	c := Constant{P: 2, Len: units.Second}
	s := constantSampled(c)
	// 1.5 ms at 1 ms steps: final partial step must not over-count.
	got := Integrate(s, 0, 1500)
	if got != 3000 {
		t.Fatalf("Integrate over 1.5ms = %v nJ, want 3000", got)
	}
	if loop := integrateGeneric(c, 0, 1500, units.Millisecond); loop != got {
		t.Fatalf("generic integral over 1.5ms = %v nJ, want %v", loop, got)
	}
	// Reversed bounds behave as swapped.
	if Integrate(s, 1500, 0) != got {
		t.Fatal("Integrate should normalise reversed bounds")
	}
}

func TestSampledTraceIndexing(t *testing.T) {
	tr := NewSampled(units.Millisecond, 3)
	tr.Samples[0], tr.Samples[1], tr.Samples[2] = 1, 2, 3
	cases := []struct {
		t units.Duration
		p units.Power
	}{
		{0, 1}, {999, 1}, {1000, 2}, {2999, 3}, {3000, 0}, {-1, 0},
	}
	for _, c := range cases {
		if got := tr.PowerAt(c.t); got != c.p {
			t.Errorf("PowerAt(%d) = %v, want %v", c.t, got, c.p)
		}
	}
	if tr.Duration() != 3*units.Millisecond {
		t.Fatalf("Duration = %v", tr.Duration())
	}
}

func TestSampledStats(t *testing.T) {
	tr := NewSampled(units.Second, 4)
	tr.Samples = []units.Power{2, 4, 4, 6}
	if tr.Mean() != 4 {
		t.Fatalf("Mean = %v, want 4", tr.Mean())
	}
	want := math.Sqrt(2) // population stddev of {2,4,4,6}
	if math.Abs(float64(tr.StdDev())-want) > 1e-12 {
		t.Fatalf("StdDev = %v, want %v", tr.StdDev(), want)
	}
}

func TestSolarGenerateShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cfg := SunnyDay()
	tr := cfg.Generate(rng)
	if tr.Duration() != cfg.DayEnd-cfg.DayStart {
		t.Fatalf("Duration = %v", tr.Duration())
	}
	// Non-negative everywhere and bounded by peak with jitter headroom.
	maxAllowed := float64(cfg.Peak+cfg.Floor) * (1 + 3*cfg.ShadeJitter)
	for i, p := range tr.Samples {
		if p < 0 {
			t.Fatalf("negative power at sample %d", i)
		}
		if float64(p) > maxAllowed {
			t.Fatalf("power %v exceeds bound %v at sample %d", p, maxAllowed, i)
		}
	}
	// Diurnal shape: middle third must out-power the first and last 5%.
	n := len(tr.Samples)
	mean := func(i, j int) units.Power { return (&Sampled{Step: tr.Step, Samples: tr.Samples[i:j]}).Mean() }
	edge := mean(0, n/20) + mean(n-n/20, n)
	mid := mean(n/3, 2*n/3)
	if mid <= edge {
		t.Fatalf("no diurnal envelope: mid %v <= edges %v", mid, edge)
	}
}

func TestSolarDeterminism(t *testing.T) {
	a := SunnyDay().Generate(rand.New(rand.NewSource(7)))
	b := SunnyDay().Generate(rand.New(rand.NewSource(7)))
	for i := range a.Samples {
		if a.Samples[i] != b.Samples[i] {
			t.Fatalf("same seed diverged at sample %d", i)
		}
	}
}

func TestRegimeOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sunny := SunnyDay().Generate(rng).Mean()
	overcast := OvercastDay().Generate(rng).Mean()
	rainy := RainyDay().Generate(rng).Mean()
	if !(sunny > overcast && overcast > rainy) {
		t.Fatalf("regime means out of order: sunny=%v overcast=%v rainy=%v", sunny, overcast, rainy)
	}
	if rainy <= 0 {
		t.Fatal("rainy day should still harvest something")
	}
}

// Independent traces should be far less correlated across nodes than
// dependent traces. This is the property §5.2 relies on.
func TestIndependentVsDependentCorrelation(t *testing.T) {
	cfg := SunnyDay()
	cfg.Step = 10 * units.Second // keep the test fast
	rng := rand.New(rand.NewSource(42))
	ind := IndependentSet(cfg, 2, 5*units.Minute, rng)
	dep := DependentSet(cfg, 2, 0.3, rng)

	corrInd := correlation(ind[0], ind[1])
	corrDep := correlation(dep[0], dep[1])
	if corrDep < 0.8 {
		t.Fatalf("dependent traces should be strongly correlated, got %v", corrDep)
	}
	if corrInd > corrDep-0.2 {
		t.Fatalf("independent traces too correlated: ind=%v dep=%v", corrInd, corrDep)
	}
}

func correlation(a, b *Sampled) float64 {
	n := len(a.Samples)
	ma, mb := float64(a.Mean()), float64(b.Mean())
	var sab, saa, sbb float64
	for i := 0; i < n; i++ {
		da := float64(a.Samples[i]) - ma
		db := float64(b.Samples[i]) - mb
		sab += da * db
		saa += da * da
		sbb += db * db
	}
	if saa == 0 || sbb == 0 {
		return 0
	}
	return sab / math.Sqrt(saa*sbb)
}

func TestIndependentSetSizes(t *testing.T) {
	cfg := SunnyDay()
	cfg.Step = 10 * units.Second
	rng := rand.New(rand.NewSource(5))
	set := IndependentSet(cfg, 5, 7*units.Minute, rng) // segment not divisible
	want := int((cfg.DayEnd - cfg.DayStart) / cfg.Step)
	for i, tr := range set {
		if len(tr.Samples) != want {
			t.Fatalf("node %d trace has %d samples, want %d", i, len(tr.Samples), want)
		}
	}
}

func TestDependentSetNonNegative(t *testing.T) {
	cfg := RainyDay()
	cfg.Step = 10 * units.Second
	set := DependentSet(cfg, 20, 0.3, rand.New(rand.NewSource(9)))
	for _, tr := range set {
		for i, p := range tr.Samples {
			if p < 0 {
				t.Fatalf("negative power at sample %d", i)
			}
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cfg := SunnyDay()
	cfg.Step = time10s()
	tr := cfg.Generate(rng)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, tr); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Step != tr.Step || len(back.Samples) != len(tr.Samples) {
		t.Fatalf("shape mismatch: step %v/%v, n %d/%d", back.Step, tr.Step, len(back.Samples), len(tr.Samples))
	}
	for i := range tr.Samples {
		if back.Samples[i] != tr.Samples[i] {
			t.Fatalf("sample %d: %v != %v", i, back.Samples[i], tr.Samples[i])
		}
	}
}

func time10s() units.Duration { return 10 * units.Second }

func TestCSVRejectsMalformed(t *testing.T) {
	cases := []string{
		"time_us,power_mw\n0,1\n",                  // too short
		"time_us,power_mw\n0,1\n500,1\n1500,1\n",   // irregular step
		"time_us,power_mw\n0,1\n1000,-2\n2000,1\n", // negative power
		"time_us,power_mw\nx,1\ny,1\nz,1\n",        // junk
		"time_us,power_mw\n1000,1\n0,1\n",          // non-increasing
		"time_us,power_mw\n0,NaN\n1000000,1\n",     // NaN power
		"time_us,power_mw\n0,1\n1000000,+Inf\n",    // infinite power
	}
	for i, src := range cases {
		if _, err := ReadCSV(strings.NewReader(src)); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

// Property: integrating any sampled trace at its native step equals the sum
// of sample powers times the step.
func TestIntegrateMatchesSum(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 64 {
			raw = raw[:64]
		}
		tr := NewSampled(units.Millisecond, len(raw))
		var want float64
		for i, v := range raw {
			tr.Samples[i] = units.Power(v)
			want += float64(v) * 1000 // mW × 1000 µs
		}
		got := Integrate(tr, 0, tr.Duration())
		return math.Abs(float64(got)-want) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Integrate, which indexes the samples directly, must return the generic
// loop's bits at the trace's step: aligned and unaligned starts, windows
// past the trace's end, reversed and empty windows, and starts before
// zero.
func TestIntegrateSampledMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	cfg := SunnyDay()
	cfg.DayEnd = cfg.DayStart + 10*units.Minute
	traces := []*Sampled{
		cfg.Generate(rng),
		{Step: 7, Samples: []units.Power{0.3, 1e-9, 2.5, 0, 7.25}},
		{Step: units.Second},
	}
	check := func(s *Sampled, from, to units.Duration) {
		t.Helper()
		got, want := Integrate(s, from, to), integrateGeneric(s, from, to, s.Step)
		if math.Float64bits(float64(got)) != math.Float64bits(float64(want)) {
			t.Errorf("step %v trace, Integrate(%v, %v) = %v, generic loop %v",
				s.Step, from, to, got, want)
		}
	}
	for _, s := range traces {
		end := s.Duration()
		for _, w := range [][2]units.Duration{
			{0, end},
			{0, s.Step},
			{s.Step, 4 * s.Step},
			{s.Step / 2, 3*s.Step + 1},
			{end - s.Step/3, end + 5*s.Step},
			{end + s.Step, end + 3*s.Step},
			{4 * s.Step, s.Step},
			{2 * s.Step, 2 * s.Step},
			{-3 * s.Step, 2 * s.Step},
			{-s.Step - 1, s.Step + 1},
			{-5 * s.Step, -s.Step},
		} {
			check(s, w[0], w[1])
		}
		for i := 0; i < 500; i++ {
			span := int64(end) + 4*int64(s.Step)
			from := units.Duration(rng.Int63n(span)) - 2*s.Step
			to := units.Duration(rng.Int63n(span)) - 2*s.Step
			check(s, from, to)
		}
	}
}

// A node's income must hold, slot by slot, the generic loop's bits over
// the node's samples after its gain: slots at the step, slots that
// straddle samples (7.5 s and 61 s against 1 s, half a step plus one),
// slots inside one sample (0.4 s), a slot longer than the trace, and
// spans of one slot, part of the trace, all of it and past its end.
func TestIncomeMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	cfg := SunnyDay()
	cfg.DayEnd = cfg.DayStart + 10*units.Minute
	traces := []*Sampled{
		cfg.Generate(rng),
		{Step: 7, Samples: []units.Power{0.3, 1e-9, 2.5, 0, 7.25}},
		{Step: units.Second},
	}
	gains := map[string]func(int) float64{"none": nil, "0.35": func(int) float64 { return 0.35 }}
	for _, s := range traces {
		end := s.Duration()
		for _, slot := range []units.Duration{s.Step, 12 * units.Second, 7500 * units.Millisecond,
			400 * units.Millisecond, 61 * units.Second, s.Step/2 + 1, 3 * s.Step, end + 1} {
			for _, span := range []units.Duration{0, slot, end/2 + 1, end, end + 5*slot} {
				for name, gain := range gains {
					scaled := &Sampled{Step: s.Step, Samples: slices.Clone(s.Samples)}
					if gain != nil {
						for i, p := range scaled.Samples {
							scaled.Samples[i] = units.Power(float64(p) * gain(0))
						}
					}
					set := newIncomeSet(1, IncomeOpts{Slot: slot, Span: span, Gain: gain}, end)
					set.node(0, &Sampled{Step: s.Step, Samples: slices.Clone(s.Samples)})
					got := set.out[0]
					read := span
					if read == 0 {
						read = end
					}
					want := int(min(read, end) / slot)
					if got.Slot != slot || len(got.Energy) != want {
						t.Fatalf("step %v trace, slot %v, span %v: %d slots of %v, want %d of %v",
							s.Step, slot, span, len(got.Energy), got.Slot, want, slot)
					}
					for k, e := range got.Energy {
						from := slot * units.Duration(k)
						loop := integrateGeneric(scaled, from, from+slot, s.Step)
						if math.Float64bits(float64(e)) != math.Float64bits(float64(loop)) {
							t.Errorf("step %v trace, slot %v, span %v, gain %s: slot %d holds %v, generic loop %v",
								s.Step, slot, span, name, k, e, loop)
						}
					}
				}
			}
		}
	}
}
