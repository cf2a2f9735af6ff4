// Package energytrace models the income power seen by an energy-harvesting
// node over time. The NEOFog paper evaluates on two kinds of synthetic
// traces, both derived from measured solar data (§5.2):
//
//   - independent traces (forest deployment): each node's trace is a random
//     concatenation of segments drawn from a pool of base traces, so
//     neighbouring nodes see effectively uncorrelated power;
//   - dependent traces (bridge deployment): all nodes share one base trace
//     and differ only by ~30% random per-node variance.
//
// This package provides a parametric solar-day irradiance model to generate
// the base traces and the two per-node synthesis recipes above. Each
// recipe's output is collected either as per-sample traces or, for the
// simulator, integrated once into per-slot income.
package energytrace

import (
	"math"

	"neofog/internal/units"
)

// Sampled is a piecewise-constant trace: Samples[i] holds for
// [i·Step, (i+1)·Step).
type Sampled struct {
	Step    units.Duration
	Samples []units.Power
}

// NewSampled allocates a Sampled trace of n samples at the given step.
func NewSampled(step units.Duration, n int) *Sampled {
	if step <= 0 {
		panic("energytrace: non-positive step")
	}
	return &Sampled{Step: step, Samples: make([]units.Power, n)}
}

// Duration reports the length of the trace.
func (s *Sampled) Duration() units.Duration {
	return s.Step * units.Duration(len(s.Samples))
}

// Integrate computes the energy s delivers between from and to (either
// order), exactly, at the trace's own step. It indexes the samples
// directly and sums the same products in the same order as a loop that
// samples the trace at every step from the earlier bound, the last step
// cut short at the later one. The steps it skips, before time zero and
// past the last sample, would each add +0, which leaves the sum
// unchanged.
func Integrate(s *Sampled, from, to units.Duration) units.Energy {
	if to < from {
		from, to = to, from
	}
	t := from
	if t < 0 {
		t += (-t + s.Step - 1) / s.Step * s.Step // the first step at or after zero
	}
	var total units.Energy
	for i := int(t / s.Step); t < to && i < len(s.Samples); i++ {
		dt := s.Step
		if t+dt > to {
			dt = to - t
		}
		total += s.Samples[i].Over(dt)
		t += s.Step
	}
	return total
}

// Mean reports the average power over the whole trace.
func (s *Sampled) Mean() units.Power {
	if len(s.Samples) == 0 {
		return 0
	}
	var sum float64
	for _, p := range s.Samples {
		sum += float64(p)
	}
	return units.Power(sum / float64(len(s.Samples)))
}

// StdDev reports the standard deviation of power over the whole trace.
func (s *Sampled) StdDev() units.Power {
	n := len(s.Samples)
	if n == 0 {
		return 0
	}
	mean := float64(s.Mean())
	var ss float64
	for _, p := range s.Samples {
		d := float64(p) - mean
		ss += d * d
	}
	return units.Power(math.Sqrt(ss / float64(n)))
}
