// Package cpu models the processor of a sensing node: an 8051-class MCU in
// either its volatile (VP) or nonvolatile (NVP) incarnation.
//
// The cost model is calibrated so that the paper's Table 2 energies are
// reproduced exactly: the measured platform runs at 1 MHz drawing 0.209 mW
// (0.209 nJ per clock), and the classic 8051 executes one instruction every
// 12 clocks, giving 2.508 nJ per instruction — which is precisely the ratio
// of every "Compute energy / Inst. NO." pair in Table 2.
package cpu

import (
	"fmt"
	"math"

	"neofog/internal/units"
)

// Config is the static cost model of the MCU core.
type Config struct {
	// ClockHz is the base clock frequency.
	ClockHz float64
	// EnergyPerClock is the energy per clock at the base frequency.
	EnergyPerClock units.Energy
	// ClocksPerInst is the machine clocks consumed per instruction.
	ClocksPerInst int
}

// Default8051 is the calibrated 1 MHz / 0.209 mW / 12-clock core.
func Default8051() Config {
	return Config{ClockHz: 1e6, EnergyPerClock: 0.209, ClocksPerInst: 12}
}

// ActivePower is the power drawn while executing at the base frequency.
func (c Config) ActivePower() units.Power {
	// nJ per clock × clocks per second = nJ/s = nW; convert to mW.
	return units.Power(float64(c.EnergyPerClock) * c.ClockHz * 1e-6)
}

// Exec reports the time and energy to execute n instructions at the base
// frequency with no interruptions.
func (c Config) Exec(n int64) (units.Duration, units.Energy) {
	if n < 0 {
		panic("cpu: negative instruction count")
	}
	clocks := float64(n) * float64(c.ClocksPerInst)
	t := units.Duration(math.Round(clocks / c.ClockHz * 1e6))
	e := units.Energy(clocks) * c.EnergyPerClock
	return t, e
}

// Kind distinguishes volatile from nonvolatile processors.
type Kind int

// Processor kinds.
const (
	VP Kind = iota
	NVP
)

func (k Kind) String() string {
	switch k {
	case VP:
		return "VP"
	case NVP:
		return "NVP"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Processor is a VP or NVP with its power-transition cost envelope.
type Processor struct {
	Cfg  Config
	Kind Kind

	// RestoreTime/RestoreEnergy are paid when power returns: the VP's cold
	// restart (~300 µs, §2.1) or the NVP's state restore (7–32 µs
	// depending on the fabricated design; Fig. 1 and Fig. 4).
	RestoreTime   units.Duration
	RestoreEnergy units.Energy
	// BackupTime/BackupEnergy are paid by an NVP at each power failure to
	// checkpoint state into NV flip-flops (funded by the on-chip cap in
	// hardware; we charge it to the node's budget for conservatism). A VP
	// has no backup: it simply loses all volatile progress.
	BackupTime   units.Duration
	BackupEnergy units.Energy
}

// NewVP builds the volatile processor of the baseline platforms.
func NewVP(cfg Config) *Processor {
	return &Processor{
		Cfg:           cfg,
		Kind:          VP,
		RestoreTime:   300 * units.Microsecond,
		RestoreEnergy: cfg.ActivePower().Over(300 * units.Microsecond),
	}
}

// NewNVP builds a nonvolatile processor with the paper's restore envelope
// (32 µs NOS startup, Fig. 4) and a symmetric backup cost.
func NewNVP(cfg Config) *Processor {
	return &Processor{
		Cfg:           cfg,
		Kind:          NVP,
		RestoreTime:   32 * units.Microsecond,
		RestoreEnergy: cfg.ActivePower().Over(32*units.Microsecond) * 3, // NV write amplification
		BackupTime:    20 * units.Microsecond,
		BackupEnergy:  cfg.ActivePower().Over(20*units.Microsecond) * 3,
	}
}
