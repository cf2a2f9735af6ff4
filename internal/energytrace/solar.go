package energytrace

import (
	"math"
	"math/rand"

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

// envelope is the diurnal half-sine envelope at every sample time. It
// depends only on the config, so a trace set computes it once for all of
// its base traces.
func (c SolarConfig) envelope() []float64 {
	if c.Step <= 0 || c.DayEnd <= c.DayStart {
		panic("energytrace: invalid solar config")
	}
	env := make([]float64, int((c.DayEnd-c.DayStart)/c.Step))
	dayLen := float64(c.DayEnd - c.DayStart)
	for i := range env {
		t := float64(i) * float64(c.Step)
		env[i] = math.Sin(math.Pi * t / dayLen)
	}
	return env
}

// fill draws one base trace over env from rng into samples.
func (c SolarConfig) fill(samples []units.Power, env []float64, rng *rand.Rand) {
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
			f = math.Max(0, math.Min(f, 1+3*c.ShadeJitter))
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
		return c.DayEnd - c.DayStart // never toggles
	}
	return units.Duration(rng.ExpFloat64() * float64(mean))
}

// IndependentSet synthesises per-node traces using the forest recipe of
// §5.2.1: each node's trace is a concatenation of randomly ordered segments
// drawn from a pool of base traces, so the income of neighbouring nodes is
// effectively independent. segment is the shuffled-chunk length.
func IndependentSet(cfg SolarConfig, nodes int, segment units.Duration, rng *rand.Rand) []*Sampled {
	const poolSize = 8
	env := cfg.envelope()
	total := len(env)
	poolBuf := make([]units.Power, poolSize*total)
	var pool [poolSize][]units.Power
	for i := range pool {
		pool[i] = poolBuf[i*total : (i+1)*total]
		cfg.fill(pool[i], env, rng)
	}
	segSamples := int(segment / cfg.Step)
	if segSamples <= 0 {
		panic("energytrace: segment shorter than step")
	}
	if segSamples > total {
		segSamples = total
	}
	// Segments start at aligned offsets; the last aligned start is clamped
	// so every drawn segment is full length.
	maxStart := (total - segSamples) / segSamples

	traces := make([]Sampled, nodes)
	out := make([]*Sampled, nodes)
	for n := range out {
		samples := make([]units.Power, 0, total)
		for len(samples) < total {
			src := pool[rng.Intn(poolSize)]
			// Pick a random aligned segment from the source so that the
			// diurnal phase is scrambled between nodes; the last one is
			// cut at the trace length.
			at := rng.Intn(maxStart+1) * segSamples
			samples = append(samples, src[at:at+min(segSamples, total-len(samples))]...)
		}
		traces[n] = Sampled{Step: cfg.Step, Samples: samples}
		out[n] = &traces[n]
	}
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
