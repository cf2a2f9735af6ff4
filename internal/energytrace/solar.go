package energytrace

import (
	"math"
	"math/rand"
	"sync"

	"neofog/internal/units"
)

// SolarConfig parameterises the synthetic solar-day irradiance model used to
// generate base traces. The model is a half-sine diurnal envelope (sunrise
// to sunset) modulated by two stochastic processes:
//
//   - a slow cloud process: a random-telegraph attenuation with exponential
//     dwell times, standing in for passing cloud cover;
//   - a fast shade process: per-sample multiplicative jitter, standing in
//     for leaf flicker (forest) or panel-angle vibration (bridge).
//
// The paper's deployment regimes map onto this model as presets below.
type SolarConfig struct {
	// Peak is the clear-sky panel output at solar noon.
	Peak units.Power
	// DayStart and DayEnd bound the sunlit portion of the trace.
	DayStart, DayEnd units.Duration
	// Step is the sample resolution of the generated trace.
	Step units.Duration
	// CloudAttenuation is the multiplicative factor applied while a cloud
	// is overhead (0..1; 1 disables clouds).
	CloudAttenuation float64
	// CloudMeanClear and CloudMeanCover are the mean dwell times of the
	// clear and covered states of the cloud telegraph process.
	CloudMeanClear, CloudMeanCover units.Duration
	// ShadeJitter is the per-sample relative jitter (standard deviation of
	// a multiplicative factor clamped to [0, 1+3σ]).
	ShadeJitter float64
	// Floor is a small baseline (diffuse light) added throughout daytime.
	Floor units.Power
}

// SunnyDay is a clear high-income day (Fig. 12's "high power" regime).
func SunnyDay() SolarConfig {
	return SolarConfig{
		Peak:             12 * units.Milliwatt,
		DayStart:         0,
		DayEnd:           5 * units.Hour,
		Step:             units.Second,
		CloudAttenuation: 0.75,
		CloudMeanClear:   20 * units.Minute,
		CloudMeanCover:   4 * units.Minute,
		ShadeJitter:      0.08,
		Floor:            0.3 * units.Milliwatt,
	}
}

// OvercastDay is a mostly-cloudy day: moderate income, strong variation.
func OvercastDay() SolarConfig {
	c := SunnyDay()
	c.Peak = 5 * units.Milliwatt
	c.CloudAttenuation = 0.35
	c.CloudMeanClear = 6 * units.Minute
	c.CloudMeanCover = 8 * units.Minute
	c.ShadeJitter = 0.15
	return c
}

// RainyDay is the Fig. 13 "very low power" regime: heavy overcast, little
// direct sun, the condition under which mountain-slide events occur.
func RainyDay() SolarConfig {
	c := SunnyDay()
	c.Peak = 1.6 * units.Milliwatt
	c.CloudAttenuation = 0.30
	c.CloudMeanClear = 2 * units.Minute
	c.CloudMeanCover = 15 * units.Minute
	c.ShadeJitter = 0.20
	c.Floor = 0.12 * units.Milliwatt
	return c
}

// Generate synthesises one base trace from the config using rng. The result
// is deterministic for a given rng state.
func (c SolarConfig) Generate(rng *rand.Rand) *Sampled {
	env := c.envelope()
	tr := NewSampled(c.Step, len(env))
	c.fill(tr.Samples, env, rng)
	return tr
}

// presetEnvelope is the envelope of the presets' day shape (0–5 h at
// 1 s), the one every production caller synthesises. It is computed once
// and shared read-only.
var presetEnvelope = sync.OnceValue(SunnyDay().newEnvelope)

// envelope is the diurnal half-sine envelope at every sample time. It
// depends only on the day shape (DayStart, DayEnd, Step), so the presets'
// shape shares one copy and any other shape computes its own. Callers
// must not write to it.
func (c SolarConfig) envelope() []float64 {
	if p := SunnyDay(); c.DayStart == p.DayStart && c.DayEnd == p.DayEnd && c.Step == p.Step {
		return presetEnvelope()
	}
	return c.newEnvelope()
}

func (c SolarConfig) newEnvelope() []float64 {
	if c.Step <= 0 || c.DayEnd <= c.DayStart {
		panic("energytrace: invalid solar config")
	}
	env := make([]float64, int(c.DayLength()/c.Step))
	dayLen := float64(c.DayLength())
	for i := range env {
		t := float64(i) * float64(c.Step)
		env[i] = math.Sin(math.Pi * t / dayLen)
	}
	return env
}

// fill draws one base trace over env from rng into samples.
//
// The shade factor's clamp to [0, 1+3σ] is two comparisons rather than
// math.Max(0, math.Min(f, hi)), which amd64 does not inline. It is exact
// for any finite σ: f = 1 + N·σ is never NaN, so Min reduces to f > hi,
// and Max(0, f) is +0 for every f ≤ 0 (−0 included), as is !(f > 0).
// (At σ = +Inf a zero draw makes f NaN, and math.Min returns NaN bits of
// its own, which neither these comparisons nor the builtin min match.)
func (c SolarConfig) fill(samples []units.Power, env []float64, rng *rand.Rand) {
	hi := 1 + 3*c.ShadeJitter
	covered := rng.Float64() < 0.5
	dwell := c.nextDwell(rng, covered)

	for i, envelope := range env {
		p := float64(c.Peak) * envelope

		// Cloud telegraph process.
		if covered {
			p *= c.CloudAttenuation
		}
		dwell -= c.Step
		if dwell <= 0 {
			covered = !covered
			dwell = c.nextDwell(rng, covered)
		}

		// Fast shade jitter.
		if c.ShadeJitter > 0 {
			f := 1 + rng.NormFloat64()*c.ShadeJitter
			if f > hi {
				f = hi
			}
			if !(f > 0) {
				f = 0
			}
			p *= f
		}

		p += float64(c.Floor) * envelope
		if p < 0 {
			p = 0
		}
		samples[i] = units.Power(p)
	}
}

func (c SolarConfig) nextDwell(rng *rand.Rand, covered bool) units.Duration {
	mean := c.CloudMeanClear
	if covered {
		mean = c.CloudMeanCover
	}
	if mean <= 0 {
		return c.DayLength() // never toggles
	}
	return units.Duration(rng.ExpFloat64() * float64(mean))
}

// DayLength is the length of the synthesised day, DayEnd − DayStart: the
// span a trace set covers when its caller reads the whole day.
func (c SolarConfig) DayLength() units.Duration { return c.DayEnd - c.DayStart }

// poolScratch recycles IndependentSet's base-trace pool. The pool never
// escapes (node traces copy out of it), so one buffer serves call after
// call.
var poolScratch = sync.Pool{New: func() any { return new([]units.Power) }}

// IndependentSet synthesises per-node traces using the forest recipe of
// §5.2.1: each node's trace is a concatenation of randomly ordered segments
// drawn from a pool of base traces, so the income of neighbouring nodes is
// effectively independent. segment is the shuffled-chunk length.
//
// span is how much of the day the caller reads: each node trace holds the
// first ⌈span/Step⌉ samples of its day (the whole day when span covers
// it). The rng draws do not depend on span. The base traces are always
// filled in full and every segment of the whole day is drawn, so the rng
// ends in the same state and a shorter span returns a prefix of the
// longer one.
func IndependentSet(cfg SolarConfig, nodes int, segment, span units.Duration, rng *rand.Rand) []*Sampled {
	const poolSize = 8
	env := cfg.envelope()
	total := len(env)
	segSamples := int(segment / cfg.Step)
	if segSamples <= 0 {
		panic("energytrace: segment shorter than step")
	}
	if span <= 0 {
		panic("energytrace: non-positive span")
	}
	if segSamples > total {
		segSamples = total
	}
	// Segments start at aligned offsets; the last aligned start is clamped
	// so every drawn segment is full length.
	maxStart := (total - segSamples) / segSamples
	keep := total
	if span < units.Duration(total)*cfg.Step {
		keep = int((span + cfg.Step - 1) / cfg.Step)
	}

	scratch := poolScratch.Get().(*[]units.Power)
	if cap(*scratch) < poolSize*total {
		*scratch = make([]units.Power, poolSize*total)
	}
	poolBuf := (*scratch)[:poolSize*total]
	var pool [poolSize][]units.Power
	for i := range pool {
		pool[i] = poolBuf[i*total : (i+1)*total]
		cfg.fill(pool[i], env, rng)
	}

	samples := make([]units.Power, nodes*keep)
	traces := make([]Sampled, nodes)
	out := make([]*Sampled, nodes)
	for n := range out {
		dst := samples[n*keep : (n+1)*keep : (n+1)*keep]
		for at := 0; at < total; at += segSamples {
			src := pool[rng.Intn(poolSize)]
			// Pick a random aligned segment from the source so that the
			// diurnal phase is scrambled between nodes; the last one is
			// cut at the kept length.
			from := rng.Intn(maxStart+1) * segSamples
			if at < keep {
				copy(dst[at:], src[from:from+segSamples])
			}
		}
		traces[n] = Sampled{Step: cfg.Step, Samples: dst}
		out[n] = &traces[n]
	}
	poolScratch.Put(scratch)
	return out
}

// DependentSet synthesises per-node traces using the bridge recipe of
// §5.2.2: every node shares one base trace; node i's trace is the base
// scaled by a fixed per-node factor plus per-sample noise, with total
// relative variance ~variance (the paper uses 30%).
func DependentSet(cfg SolarConfig, nodes int, variance float64, rng *rand.Rand) []*Sampled {
	base := cfg.Generate(rng)
	out := make([]*Sampled, nodes)
	for n := 0; n < nodes; n++ {
		// Split the variance between a static per-node gain (location,
		// panel angle) and dynamic per-sample noise.
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
