package energytrace

import (
	"math/rand"

	"neofog/internal/units"
)

// Income is one node's harvest per RTC slot: Energy[k] is the energy that
// arrives over [k·Slot, (k+1)·Slot). A run asks a node's income one
// question per slot, so a set is integrated once, when it is synthesised,
// and every run that shares the set reads it.
type Income struct {
	Slot   units.Duration
	Energy []units.Energy
}

// IncomeOpts says how a recipe's per-sample income becomes per-slot
// income.
type IncomeOpts struct {
	// Slot is the RTC slot the samples are integrated over.
	Slot units.Duration
	// Span is how much of the day the runs read (0 = the whole day). Only
	// the whole slots inside it are integrated, and the forest recipe
	// assembles only the samples they cover.
	Span units.Duration
	// Gain, when non-nil, is node n's persistent income factor. It
	// multiplies each of the node's samples before they are integrated,
	// so the slot energies hold the sums a scaled trace would give. It is
	// called once per node, in node order, when the recipe hands the node
	// out.
	Gain func(n int) float64
}

// IndependentIncome synthesises per-slot income using the forest recipe
// (see independentNodes). The recipe makes every draw of the set before
// the first call of opts.Gain, so Gain may draw from rng.
func IndependentIncome(cfg SolarConfig, nodes int, segment units.Duration, opts IncomeOpts, rng *rand.Rand) []Income {
	set := newIncomeSet(nodes, opts, cfg.DayLength())
	independentNodes(cfg, nodes, segment, set.Span, rng, set.node)
	return set.out
}

// DependentIncome synthesises per-slot income using the bridge recipe
// (see dependentNodes). opts.Gain(n) is called between node n's draws
// and node n+1's.
func DependentIncome(cfg SolarConfig, nodes int, variance float64, opts IncomeOpts, rng *rand.Rand) []Income {
	set := newIncomeSet(nodes, opts, cfg.DayLength())
	dependentNodes(cfg, nodes, variance, rng, set.node)
	return set.out
}

// incomeSet integrates each node a recipe hands out into one energy
// buffer for the whole set. Its Span is resolved: never 0.
type incomeSet struct {
	IncomeOpts
	energy []units.Energy
	out    []Income
}

func newIncomeSet(nodes int, opts IncomeOpts, day units.Duration) *incomeSet {
	if opts.Slot <= 0 {
		panic("energytrace: non-positive slot")
	}
	if opts.Span < 0 {
		panic("energytrace: negative span")
	}
	if opts.Span == 0 {
		opts.Span = day
	}
	return &incomeSet{IncomeOpts: opts, out: make([]Income, nodes)}
}

// node scales node n's samples by its gain and integrates them one slot
// at a time, over the whole slots that both the span and the samples
// cover.
func (c *incomeSet) node(n int, tr *Sampled) {
	if c.Gain != nil {
		k := c.Gain(n)
		for i, p := range tr.Samples {
			tr.Samples[i] = units.Power(float64(p) * k)
		}
	}
	slots := int(min(c.Span, tr.Duration()) / c.Slot)
	if n == 0 {
		c.energy = make([]units.Energy, len(c.out)*slots)
	}
	e := c.energy[n*slots : (n+1)*slots : (n+1)*slots]
	for k := range e {
		from := c.Slot * units.Duration(k)
		e[k] = Integrate(tr, from, from+c.Slot)
	}
	c.out[n] = Income{Slot: c.Slot, Energy: e}
}
