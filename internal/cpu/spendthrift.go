package cpu

import (
	"math"
	"sort"

	"neofog/internal/units"
)

// FreqLevel is one operating point of the Spendthrift frequency/resource
// scaling policy [49]: a clock multiplier relative to the base config and
// the active power drawn at that point. Power grows superlinearly with
// frequency (voltage scaling), so higher levels are faster but less
// energy-efficient per instruction.
type FreqLevel struct {
	// Mult is the clock multiplier relative to Config.ClockHz.
	Mult float64
	// Power is the active power at this operating point.
	Power units.Power
}

// Spendthrift is the operating-point selection policy the paper assumes at
// each NVP (§2.2): convert incoming power into completed work as directly
// as possible by running at the highest frequency the harvest can sustain,
// avoiding both stalls (income unused) and duty-cycling overhead (income
// below the operating point).
type Spendthrift struct {
	levels []FreqLevel // ascending by Mult
	base   Config
}

// powerExponent models P ∝ f^1.3 across DVFS points (f·V² with V roughly
// ∝ f^0.15 in the near-threshold region these MCUs operate in).
const powerExponent = 1.3

// NewSpendthrift builds a policy over the given clock multipliers.
func NewSpendthrift(base Config, mults ...float64) *Spendthrift {
	if len(mults) == 0 {
		panic("cpu: spendthrift needs at least one level")
	}
	s := &Spendthrift{base: base}
	p0 := float64(base.ActivePower())
	for _, m := range mults {
		if m <= 0 {
			panic("cpu: non-positive frequency multiplier")
		}
		s.levels = append(s.levels, FreqLevel{
			Mult:  m,
			Power: units.Power(p0 * math.Pow(m, powerExponent)),
		})
	}
	sort.Slice(s.levels, func(i, j int) bool { return s.levels[i].Mult < s.levels[j].Mult })
	return s
}

// DefaultSpendthrift covers 0.5×–8× of the base clock.
func DefaultSpendthrift(base Config) *Spendthrift {
	return NewSpendthrift(base, 0.5, 1, 2, 4, 8)
}

// NumLevels reports how many operating points the policy holds.
func (s *Spendthrift) NumLevels() int { return len(s.levels) }

// Level returns operating point i (ascending frequency order) without
// copying the level table.
func (s *Spendthrift) Level(i int) FreqLevel { return s.levels[i] }

// Exec reports the time and energy for n instructions at the given level.
// Energy per instruction rises with the level's power-to-speed ratio.
func (s *Spendthrift) Exec(n int64, l FreqLevel) (units.Duration, units.Energy) {
	if n < 0 {
		panic("cpu: negative instruction count")
	}
	baseT, _ := s.base.Exec(n)
	t := units.Duration(math.Round(float64(baseT) / l.Mult))
	e := l.Power.Over(t)
	return t, e
}
