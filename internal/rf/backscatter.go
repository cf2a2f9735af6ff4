package rf

import (
	"math"

	"neofog/internal/units"
)

// Backscatter models the ambient/Wi-Fi backscatter transmitters of the
// RF-powered camera systems in Table 1 (WispCam [56, 57]; Kellogg et
// al. [27], Liu et al. [41]): instead of generating a carrier, the node
// reflects an ambient one by modulating its antenna impedance. Transmit
// power collapses to the modulator's switching cost — "extremely energy
// efficient" (§2.1) — at the price of a low data rate and a powered
// reader within range.
type Backscatter struct {
	// DataRate is the uplink rate in bits per second (WISP-class
	// backscatter reaches tens to hundreds of kbps; WispCam reports
	// ~100 kbps class links).
	DataRate float64
	// ModPower is the impedance-modulator draw while transmitting.
	ModPower units.Power
	// SetupTime is the per-burst synchronisation preamble.
	SetupTime units.Duration
}

// NewBackscatter returns the WispCam-class link: 100 kbps at 35 µW
// modulator draw with a 2 ms preamble.
func NewBackscatter() *Backscatter {
	return &Backscatter{
		DataRate:  100e3,
		ModPower:  0.035, // 35 µW
		SetupTime: 2 * units.Millisecond,
	}
}

// AirTime is the on-air duration of n bytes.
func (b *Backscatter) AirTime(n int) units.Duration {
	if n < 0 {
		panic("rf: negative byte count")
	}
	return units.Duration(math.Round(float64(n) * 8 / b.DataRate * 1e6))
}

// TxCost implements Controller.
func (b *Backscatter) TxCost(n int) Cost {
	t := b.SetupTime + b.AirTime(n)
	return Cost{Time: t, Energy: b.ModPower.Over(t)}
}

// RxCost implements Controller: the downlink is decoded from the ambient
// carrier's amplitude, at comparable micro-watt cost.
func (b *Backscatter) RxCost(n int) Cost {
	t := b.SetupTime + b.AirTime(n)
	return Cost{Time: t, Energy: b.ModPower.Over(t)}
}
