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

// scratch is a recipe's working memory: its base traces and the one node
// trace it hands out, in one sample buffer, and the forest recipe's
// segment picks. None of it escapes a recipe call, so one pooled scratch
// serves call after call. Its contents after Get are garbage: a recipe
// writes every element it reads.
type scratch struct {
	samples []units.Power
	picks   []int
	node    Sampled
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// grow returns *buf at length n, reallocating it when it is too short.
func grow[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	return (*buf)[:n]
}

// A recipe hands each node's samples to a nodeFunc, in node order, in one
// buffer it reuses from node to node. The callee may scale the samples in
// place but must not keep them.
type nodeFunc func(n int, tr *Sampled)

// independentNodes is the forest recipe of §5.2.1: each node's samples
// are a concatenation of randomly ordered segments drawn from a pool of
// base traces, so the income of neighbouring nodes is effectively
// independent. segment is the shuffled-chunk length.
//
// span is how much of the day the caller reads: a node's samples are the
// first ⌈span/Step⌉ of its day (the whole day when span covers it). The
// rng draws do not depend on span. The base traces are always filled in
// full and every segment of the whole day is drawn, so the rng ends in
// the same state and a shorter span hands out a prefix of the longer
// one. Every draw of the set comes before the first node is handed out,
// so each may draw per-node values from rng.
func independentNodes(cfg SolarConfig, nodes int, segment, span units.Duration, rng *rand.Rand, each nodeFunc) {
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

	// The node buffer is sized for the whole day whatever the span, so a
	// recycled scratch is not regrown as spans vary from call to call.
	sc := scratchPool.Get().(*scratch)
	buf := grow(&sc.samples, (poolSize+1)*total)
	for i := 0; i < poolSize; i++ {
		cfg.fill(buf[i*total:(i+1)*total], env, rng)
	}
	// Each segment is a random aligned segment of a random base trace, so
	// the diurnal phase is scrambled between nodes. A pick is the
	// segment's offset in the pool.
	perNode := (total + segSamples - 1) / segSamples
	picks := grow(&sc.picks, nodes*perNode)
	for i := range picks {
		src := rng.Intn(poolSize)
		picks[i] = src*total + rng.Intn(maxStart+1)*segSamples
	}

	node := &sc.node
	*node = Sampled{Step: cfg.Step, Samples: buf[poolSize*total : poolSize*total+keep]}
	for n := 0; n < nodes; n++ {
		// The last segment is cut at the kept length.
		for s, at := n*perNode, 0; at < keep; s, at = s+1, at+segSamples {
			copy(node.Samples[at:], buf[picks[s]:picks[s]+segSamples])
		}
		each(n, node)
	}
	scratchPool.Put(sc)
}

// dependentNodes is the bridge recipe of §5.2.2: every node shares one
// base trace; node n's samples are the base scaled by a fixed per-node
// factor plus per-sample noise, with total relative variance ~variance
// (the paper uses 30%). Node n is handed out after its own draws and
// before node n+1's, so anything each draws from rng lands between them.
func dependentNodes(cfg SolarConfig, nodes int, variance float64, rng *rand.Rand, each nodeFunc) {
	env := cfg.envelope()
	total := len(env)
	sc := scratchPool.Get().(*scratch)
	buf := grow(&sc.samples, 2*total)
	base := buf[:total]
	cfg.fill(base, env, rng)
	node := &sc.node
	*node = Sampled{Step: cfg.Step, Samples: buf[total:]}
	for n := 0; n < nodes; n++ {
		// Split the variance between a static per-node gain (location,
		// panel angle) and dynamic per-sample noise.
		gain := 1 + rng.NormFloat64()*variance*0.8
		if gain < 0.1 {
			gain = 0.1
		}
		for i, p := range base {
			f := gain * (1 + rng.NormFloat64()*variance*0.25)
			if f < 0 {
				f = 0
			}
			node.Samples[i] = units.Power(float64(p) * f)
		}
		each(n, node)
	}
	scratchPool.Put(sc)
}

// IndependentSet synthesises whole-day per-node traces using the forest
// recipe (see independentNodes).
func IndependentSet(cfg SolarConfig, nodes int, segment units.Duration, rng *rand.Rand) []*Sampled {
	set := newTraceSet(nodes)
	independentNodes(cfg, nodes, segment, cfg.DayLength(), rng, set.node)
	return set.out
}

// DependentSet synthesises per-node traces using the bridge recipe (see
// dependentNodes).
func DependentSet(cfg SolarConfig, nodes int, variance float64, rng *rand.Rand) []*Sampled {
	set := newTraceSet(nodes)
	dependentNodes(cfg, nodes, variance, rng, set.node)
	return set.out
}

// traceSet copies each node a recipe hands out into one sample buffer
// for the whole set.
type traceSet struct {
	samples []units.Power
	traces  []Sampled
	out     []*Sampled
}

func newTraceSet(nodes int) *traceSet {
	return &traceSet{traces: make([]Sampled, nodes), out: make([]*Sampled, nodes)}
}

func (c *traceSet) node(n int, tr *Sampled) {
	k := len(tr.Samples)
	if n == 0 {
		c.samples = make([]units.Power, len(c.out)*k)
	}
	dst := c.samples[n*k : (n+1)*k : (n+1)*k]
	copy(dst, tr.Samples)
	c.traces[n] = Sampled{Step: tr.Step, Samples: dst}
	c.out[n] = &c.traces[n]
}
