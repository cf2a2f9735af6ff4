// Package harvester models the energy-storage front end of a wireless
// sensing node (Fig. 2 and Fig. 5 of the paper): supercapacitors with
// leakage, the regulated charge path used by normally-off systems, and the
// dual-channel front end (Wang et al. [77], Sheng et al. [70]) whose direct
// source-to-load channel lets a FIOS NV-mote run computation straight off
// the harvester at ~90% conversion efficiency.
package harvester

import (
	"fmt"

	"neofog/internal/units"
)

// SuperCap is an energy-storage capacitor. The model tracks usable energy
// directly (rather than voltage), with a constant leakage draw and a hard
// capacity above which income is rejected — the "capacitor was frequently
// full, further energy was rejected" effect visible in Fig. 9.
type SuperCap struct {
	// Capacity is the usable energy the cap can hold.
	Capacity units.Energy
	// LeakPower is the constant self-discharge draw while energy is stored.
	LeakPower units.Power

	stored   units.Energy
	overflow units.Energy // cumulative energy rejected because the cap was full
	leaked   units.Energy // cumulative energy lost to self-discharge
	drawn    units.Energy // cumulative energy delivered to the load
}

// NewSuperCap returns a cap with the given capacity and leakage, initially
// holding `initial` energy (clamped to capacity).
func NewSuperCap(capacity units.Energy, leak units.Power, initial units.Energy) *SuperCap {
	if capacity <= 0 {
		panic("harvester: non-positive cap capacity")
	}
	c := &SuperCap{Capacity: capacity, LeakPower: leak}
	if initial > capacity {
		initial = capacity
	}
	if initial > 0 {
		c.stored = initial
	}
	return c
}

// Stored reports the currently stored energy.
func (c *SuperCap) Stored() units.Energy { return c.stored }

// Headroom reports how much more energy the cap can accept.
func (c *SuperCap) Headroom() units.Energy { return c.Capacity - c.stored }

// Deposit adds energy to the cap, returning how much was actually accepted;
// the remainder is recorded as overflow.
func (c *SuperCap) Deposit(e units.Energy) units.Energy {
	if e < 0 {
		panic("harvester: negative deposit")
	}
	accepted := e
	if room := c.Headroom(); accepted > room {
		accepted = room
	}
	c.stored += accepted
	c.overflow += e - accepted
	return accepted
}

// Draw removes energy from the cap for the load. It reports false (and
// removes nothing) if the stored energy is insufficient.
func (c *SuperCap) Draw(e units.Energy) bool {
	if e < 0 {
		panic("harvester: negative draw")
	}
	if c.stored < e {
		return false
	}
	c.stored -= e
	c.drawn += e
	return true
}

// Drain removes up to e from the cap and returns how much was removed. It
// is used when a node dies mid-task: whatever was stored is gone.
func (c *SuperCap) Drain(e units.Energy) units.Energy {
	if e < 0 {
		panic("harvester: negative drain")
	}
	if e > c.stored {
		e = c.stored
	}
	c.stored -= e
	c.drawn += e
	return e
}

// Leak applies self-discharge for dt.
func (c *SuperCap) Leak(dt units.Duration) {
	if c.LeakPower <= 0 || dt <= 0 {
		return
	}
	loss := c.LeakPower.Over(dt)
	if loss > c.stored {
		loss = c.stored
	}
	c.stored -= loss
	c.leaked += loss
}

// Overflowed reports the cumulative energy rejected because the cap was full.
func (c *SuperCap) Overflowed() units.Energy { return c.overflow }

// Delivered reports the cumulative energy drawn by the load.
func (c *SuperCap) Delivered() units.Energy { return c.drawn }

func (c *SuperCap) String() string {
	return fmt.Sprintf("cap[%v/%v]", c.stored, c.Capacity)
}

// FrontEnd models the harvester-to-node power path of Fig. 5.
//
// A NOS front end (Fig. 5a) has only the regulated charge path: all income
// is converted into the cap at ChargeEfficiency and all work is powered
// from the cap. The FIOS front end (Fig. 5b) adds SW1, a direct
// source-to-load channel at DirectEfficiency: while the NVP computes, income
// can feed the load directly, and only the surplus is routed into the cap.
type FrontEnd struct {
	// ChargeEfficiency is the conversion ratio of the regulated
	// income→capacitor path (0..1].
	ChargeEfficiency float64
	// DirectEfficiency is the conversion ratio of the direct source→load
	// channel; zero means the channel is absent (NOS hardware).
	DirectEfficiency float64
}

// NOSFrontEnd is the single-channel front end of traditional wait-compute
// nodes. The paper observes that, with capacitor leakage and low charging
// efficiency, "more than half of the energy income is wasted" (§2.1).
func NOSFrontEnd() FrontEnd {
	return FrontEnd{ChargeEfficiency: 0.48}
}

// FIOSFrontEnd is the dual-channel front end: 90% efficient direct channel
// (Wang et al. [77]) plus an improved regulated charge path.
func FIOSFrontEnd() FrontEnd {
	return FrontEnd{ChargeEfficiency: 0.70, DirectEfficiency: 0.90}
}

// HasDirectChannel reports whether the SW1 direct source-to-load channel is
// present.
func (f FrontEnd) HasDirectChannel() bool { return f.DirectEfficiency > 0 }

// Charge routes income power for dt through the regulated path into the
// cap, after applying leakage for the same interval. It returns the energy
// actually banked.
func (f FrontEnd) Charge(c *SuperCap, income units.Power, dt units.Duration) units.Energy {
	c.Leak(dt)
	if income <= 0 || dt <= 0 {
		return 0
	}
	return c.Deposit(units.Energy(float64(income.Over(dt)) * f.ChargeEfficiency))
}

// PowerLoad delivers `need` energy to the load over dt, drawing from the
// direct channel first (if present) and topping up from the cap. Surplus
// direct-channel income is banked through the regulated path. It reports
// the energy actually delivered (== need on success) and whether the load's
// demand was fully met; on failure the cap is drained of whatever it held
// (the work is lost with it).
func (f FrontEnd) PowerLoad(c *SuperCap, income units.Power, dt units.Duration, need units.Energy) (units.Energy, bool) {
	if need < 0 {
		panic("harvester: negative load demand")
	}
	c.Leak(dt)
	var direct units.Energy
	if f.HasDirectChannel() && income > 0 && dt > 0 {
		direct = units.Energy(float64(income.Over(dt)) * f.DirectEfficiency)
	}
	if direct >= need {
		// Direct channel covers the load; bank the surplus via the
		// regulated path (the surplus re-enters as raw income, so undo the
		// direct conversion before applying charge efficiency).
		surplusRaw := float64(direct-need) / f.DirectEfficiency
		c.Deposit(units.Energy(surplusRaw * f.ChargeEfficiency))
		return need, true
	}
	shortfall := need - direct
	if c.Draw(shortfall) {
		return need, true
	}
	// Demand not met: the node browns out and the partially delivered
	// energy is wasted.
	got := direct + c.Drain(shortfall)
	return got, false
}

// Bank is the two-capacitor arrangement of Fig. 2(a): a small cap reserved
// for the real-time clock, charged with priority, plus the main cap. Losing
// the RTC cap desynchronises the node from the network's time slots, which
// is far more expensive to recover from than a normal state restore (§2.1).
type Bank struct {
	RTC  *SuperCap
	Main *SuperCap
	// RTCDraw is the standing power consumed by the real-time clock.
	RTCDraw units.Power

	front FrontEnd
}

// NewBank assembles a dual-cap bank with the given front end.
func NewBank(front FrontEnd, rtcCap, mainCap *SuperCap, rtcDraw units.Power) *Bank {
	return &Bank{RTC: rtcCap, Main: mainCap, RTCDraw: rtcDraw, front: front}
}

// FrontEnd returns the bank's front-end circuit model.
func (b *Bank) FrontEnd() FrontEnd { return b.front }

// Step advances the bank by dt under the given income: the RTC draws its
// keep-alive power, then income charges the RTC cap with priority and the
// main cap with the remainder. It reports whether the RTC is still alive
// (synchronised) at the end of the step.
func (b *Bank) Step(income units.Power, dt units.Duration) bool {
	// RTC keep-alive draw.
	need := b.RTCDraw.Over(dt)
	rtcAlive := b.RTC.Draw(need)
	if !rtcAlive {
		b.RTC.Drain(need)
	}

	// Priority charge: fill the RTC cap first.
	inE := float64(income.Over(dt))
	if room := b.RTC.Headroom(); room > 0 && inE > 0 {
		rawNeeded := float64(room) / b.front.ChargeEfficiency
		use := rawNeeded
		if use > inE {
			use = inE
		}
		b.RTC.Deposit(units.Energy(use * b.front.ChargeEfficiency))
		inE -= use
	}
	if inE > 0 {
		b.Main.Leak(dt)
		b.Main.Deposit(units.Energy(inE * b.front.ChargeEfficiency))
	} else {
		b.Main.Leak(dt)
	}
	return rtcAlive || b.RTC.Stored() > 0
}

// RTCAlive reports whether the RTC cap still holds energy.
func (b *Bank) RTCAlive() bool { return b.RTC.Stored() > 0 }
