// Package rf models the node's radio: an ML7266-class Zigbee transceiver
// driven either by traditional software control (the processor re-initialises
// the module over SPI after every power loss) or by a nonvolatile RF
// controller (NVRF, Wang et al. [80]) that keeps the module configuration in
// NV flip-flops and re-initialises the chip autonomously.
//
// All latency formulas are the paper's measured ones (§4):
//
//	software RF: init 531 ms (host MCU @ 1 MHz)
//	             TX(N bytes) = (255 + 1.44·N + 0.032·N) ms
//	NVRF:        one-time configuration 28 ms
//	             TX(N bytes) = (1.74 + 0.156 + 0.216·N + 0.032·N) ms
//
// and the power envelope is 89.1 mW in TX/RX, 14.93 mW idle, with a
// 250 kbps air data rate (0.032 ms per byte — the last term of both TX
// formulas).
package rf

import (
	"math"

	"neofog/internal/units"
)

// Radio is the analog/baseband power envelope of the transceiver module.
type Radio struct {
	// DataRate is the air data rate in bits per second.
	DataRate float64
	// TXPower and RXPower are drawn while transmitting/receiving.
	TXPower, RXPower units.Power
	// IdlePower is drawn while the module is powered but inactive.
	IdlePower units.Power
}

// ML7266 is the paper's measured Zigbee chipset envelope.
func ML7266() Radio {
	return Radio{
		DataRate:  250e3,
		TXPower:   89.1,
		RXPower:   89.1,
		IdlePower: 14.93,
	}
}

// AirTime is the on-air duration of n bytes at the radio's data rate.
func (r Radio) AirTime(n int) units.Duration {
	if n < 0 {
		panic("rf: negative byte count")
	}
	return units.Duration(math.Round(float64(n) * 8 / r.DataRate * 1e6))
}

// AirEnergy is the transmit energy of just the on-air portion of n bytes —
// the quantity Table 2 reports as "TX energy".
func (r Radio) AirEnergy(n int) units.Energy {
	return r.TXPower.Over(r.AirTime(n))
}

// Cost is a time+energy pair for one radio operation.
type Cost struct {
	Time   units.Duration
	Energy units.Energy
}

// Add accumulates another cost.
func (c Cost) Add(o Cost) Cost { return Cost{c.Time + o.Time, c.Energy + o.Energy} }

// Controller abstracts the RF control paths so node models can swap them.
// Costs are what the *node's* energy budget pays. The distinction that
// matters at system level is the enormous initialisation gap between
// SoftwareRF.InitCost and NVRF.InitCost.
type Controller interface {
	// TxCost is the cost of transmitting n payload bytes once ready.
	TxCost(n int) Cost
	// RxCost is the cost of receiving n payload bytes once ready.
	RxCost(n int) Cost
}

// SoftwareRF is the conventional control path of Fig. 3(a): configuration
// lives in flash, and the host processor replays it over the bus and SPI
// after every power cycle while the RF module burns standby power.
type SoftwareRF struct {
	Radio Radio
	// HostClockHz scales the 531 ms re-initialisation, which is dominated
	// by the 1 MHz host MCU shuffling configuration data.
	HostClockHz float64
}

// NewSoftwareRF builds the conventional controller at a 1 MHz host clock.
func NewSoftwareRF(r Radio) *SoftwareRF {
	return &SoftwareRF{Radio: r, HostClockHz: 1e6}
}

// InitCost is the cost of bringing the radio from unpowered to ready,
// which recurs after every power loss: 531 ms at 1 MHz, module at idle
// power (the module is powered and waiting through almost all of it).
func (s *SoftwareRF) InitCost() Cost {
	t := units.Duration(math.Round(531 * float64(units.Millisecond) * 1e6 / s.HostClockHz))
	return Cost{Time: t, Energy: s.Radio.IdlePower.Over(t)}
}

// TxCost implements Controller: (255 + 1.472·N) ms total, of which the
// 0.032·N on-air portion is at TX power and the channel/protocol overhead
// is at idle power.
func (s *SoftwareRF) TxCost(n int) Cost {
	air := s.Radio.AirTime(n)
	overhead := units.Milliseconds(255 + 1.44*float64(n))
	return Cost{
		Time:   overhead + air,
		Energy: s.Radio.IdlePower.Over(overhead) + s.Radio.TXPower.Over(air),
	}
}

// RxCost implements Controller: the receiver must be listening for the
// sender's whole protocol window, at RX power.
func (s *SoftwareRF) RxCost(n int) Cost {
	air := s.Radio.AirTime(n)
	overhead := units.Milliseconds(1.44 * float64(n))
	return Cost{
		Time:   overhead + air,
		Energy: s.Radio.RXPower.Over(air) + s.Radio.IdlePower.Over(overhead),
	}
}

// NVRFStateBytes is the size of the NV register file inside the NVRF
// controller: RF configuration, channel/route state, and the latest
// transmission data (Fig. 3b).
const NVRFStateBytes = 190

// NVRF is the nonvolatile RF controller of Fig. 3(b): after a one-time
// 28 ms configuration by the processor, the controller re-initialises the
// RF chip autonomously from its NV register file in direct nonvolatile
// memory access fashion and can transmit without processor involvement.
type NVRF struct {
	Radio Radio

	configured bool
}

// NewNVRF builds an unconfigured NVRF controller.
func NewNVRF(r Radio) *NVRF {
	return &NVRF{Radio: r}
}

// Configure is the one-time 28 ms processor-driven setup. The cfg bytes
// (channel, route, association state) must fit the NV register file;
// only that they fit matters to the model, so they are not kept.
func (n *NVRF) Configure(cfg []byte) Cost {
	if len(cfg) > NVRFStateBytes {
		panic("rf: configuration larger than NVRF register file")
	}
	n.configured = true
	t := 28 * units.Millisecond
	return Cost{Time: t, Energy: n.Radio.IdlePower.Over(t)}
}

// InitCost is the cost of bringing the radio from unpowered to ready. A
// configured NVRF restores its state from NV registers in microseconds; an
// unconfigured one must first pay the full processor-driven configuration.
func (n *NVRF) InitCost() Cost {
	if !n.configured {
		c := 28 * units.Millisecond
		return Cost{Time: c, Energy: n.Radio.IdlePower.Over(c)}
	}
	t := 3 * units.Microsecond
	return Cost{Time: t, Energy: n.Radio.IdlePower.Over(t)}
}

// TxCost implements Controller: (1.74 + 0.156 + 0.248·N) ms; the 1.74 ms
// NVRF start plus 0.156 ms setup run at idle power, the 0.216·N DNVMA
// transfer at idle power, and the 0.032·N on-air portion at TX power.
func (n *NVRF) TxCost(nBytes int) Cost {
	air := n.Radio.AirTime(nBytes)
	overhead := units.Milliseconds(1.74 + 0.156 + 0.216*float64(nBytes))
	return Cost{
		Time:   overhead + air,
		Energy: n.Radio.IdlePower.Over(overhead) + n.Radio.TXPower.Over(air),
	}
}

// RxCost implements Controller.
func (n *NVRF) RxCost(nBytes int) Cost {
	air := n.Radio.AirTime(nBytes)
	overhead := units.Milliseconds(1.74 + 0.156 + 0.216*float64(nBytes))
	return Cost{
		Time:   overhead + air,
		Energy: n.Radio.IdlePower.Over(overhead) + n.Radio.RXPower.Over(air),
	}
}
