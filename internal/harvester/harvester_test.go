package harvester

import (
	"testing"
	"testing/quick"

	"neofog/internal/units"
)

func mJ(v float64) units.Energy { return units.Energy(v) * units.Millijoule }

func TestSuperCapDepositOverflow(t *testing.T) {
	c := NewSuperCap(mJ(10), 0, 0)
	if got := c.Deposit(mJ(6)); got != mJ(6) {
		t.Fatalf("accepted %v, want 6mJ", got)
	}
	if got := c.Deposit(mJ(6)); got != mJ(4) {
		t.Fatalf("accepted %v, want 4mJ (capacity clamp)", got)
	}
	if c.stored < c.Capacity {
		t.Fatal("cap should be full")
	}
	if c.Overflowed() != mJ(2) {
		t.Fatalf("overflow = %v, want 2mJ", c.Overflowed())
	}
}

func TestSuperCapDrawAndDrain(t *testing.T) {
	c := NewSuperCap(mJ(10), 0, mJ(5))
	if c.Draw(mJ(6)) {
		t.Fatal("draw beyond stored must fail")
	}
	if c.Stored() != mJ(5) {
		t.Fatal("failed draw must not change state")
	}
	if !c.Draw(mJ(5)) || c.Stored() != 0 {
		t.Fatal("exact draw should succeed")
	}
	c.Deposit(mJ(3))
	if got := c.Drain(mJ(10)); got != mJ(3) {
		t.Fatalf("drain = %v, want 3mJ", got)
	}
	if c.Delivered() != mJ(8) {
		t.Fatalf("delivered = %v, want 8mJ", c.Delivered())
	}
}

func TestSuperCapLeak(t *testing.T) {
	c := NewSuperCap(mJ(10), 1 /* 1 mW */, mJ(5))
	c.Leak(units.Second) // 1 mW · 1 s = 1 mJ
	if c.Stored() != mJ(4) {
		t.Fatalf("stored = %v, want 4mJ", c.Stored())
	}
	c.Leak(10 * units.Second) // would leak 10 mJ, clamps at zero
	if c.Stored() != 0 || c.leaked != mJ(5) {
		t.Fatalf("stored=%v leaked=%v", c.Stored(), c.leaked)
	}
}

func TestSuperCapInitialClamp(t *testing.T) {
	c := NewSuperCap(mJ(10), 0, mJ(99))
	if c.Stored() != mJ(10) {
		t.Fatalf("initial energy should clamp to capacity, got %v", c.Stored())
	}
}

// Conservation property: stored + delivered + leaked + overflow never
// exceeds what was deposited (plus initial), and stored stays in
// [0, Capacity].
func TestSuperCapConservation(t *testing.T) {
	f := func(ops []uint16) bool {
		c := NewSuperCap(1e6, 0.5, 1e5)
		depositedTotal := float64(1e5)
		for i, op := range ops {
			amt := units.Energy(op)
			switch i % 3 {
			case 0:
				c.Deposit(amt * 100)
				depositedTotal += float64(amt * 100)
			case 1:
				c.Draw(amt * 50)
			case 2:
				c.Leak(units.Duration(op))
			}
			if c.Stored() < 0 || c.Stored() > c.Capacity {
				return false
			}
		}
		accounted := float64(c.Stored() + c.Delivered() + c.leaked + c.Overflowed())
		return accounted <= depositedTotal+1e-6 && accounted >= depositedTotal-1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNOSFrontEndChargeEfficiency(t *testing.T) {
	fe := NOSFrontEnd()
	if fe.HasDirectChannel() {
		t.Fatal("NOS front end must not have a direct channel")
	}
	c := NewSuperCap(mJ(100), 0, 0)
	banked := fe.Charge(c, 10 /* mW */, units.Second)
	want := units.Energy(10e6 * 0.48)
	if banked != want || c.Stored() != want {
		t.Fatalf("banked %v, want %v", banked, want)
	}
}

func TestFIOSDirectChannelCoversLoad(t *testing.T) {
	fe := FIOSFrontEnd()
	c := NewSuperCap(mJ(100), 0, 0)
	// Income 10 mW for 1 s → 9 mJ via direct channel. Load needs 5 mJ:
	// direct covers it, cap untouched by the load, surplus banked.
	got, ok := fe.PowerLoad(c, 10, units.Second, mJ(5))
	if !ok || got != mJ(5) {
		t.Fatalf("PowerLoad = %v,%v", got, ok)
	}
	// Surplus raw income = (9-5)/0.9 mJ, banked at 0.70.
	wantBank := units.Energy((9e6 - 5e6) / 0.9 * 0.70)
	if diff := float64(c.Stored() - wantBank); diff > 1 || diff < -1 {
		t.Fatalf("banked %v, want %v", c.Stored(), wantBank)
	}
}

func TestFIOSDirectPlusCapTopUp(t *testing.T) {
	fe := FIOSFrontEnd()
	c := NewSuperCap(mJ(100), 0, mJ(10))
	// Direct gives 0.9 mJ, load needs 5 mJ → 4.1 mJ from the cap.
	got, ok := fe.PowerLoad(c, 1, units.Second, mJ(5))
	if !ok || got != mJ(5) {
		t.Fatalf("PowerLoad = %v,%v", got, ok)
	}
	if diff := float64(c.Stored() - mJ(5.9)); diff > 1 || diff < -1 {
		t.Fatalf("cap = %v, want 5.9mJ", c.Stored())
	}
}

func TestPowerLoadBrownOutDrainsCap(t *testing.T) {
	fe := FIOSFrontEnd()
	c := NewSuperCap(mJ(100), 0, mJ(1))
	got, ok := fe.PowerLoad(c, 0, units.Second, mJ(5))
	if ok {
		t.Fatal("load should brown out")
	}
	if got != mJ(1) || c.Stored() != 0 {
		t.Fatalf("got %v, cap %v; brown-out must drain the cap", got, c.Stored())
	}
}

func TestNOSPowerLoadUsesOnlyCap(t *testing.T) {
	fe := NOSFrontEnd()
	c := NewSuperCap(mJ(100), 0, mJ(10))
	// Even with high income, a NOS node must power the load from the cap.
	got, ok := fe.PowerLoad(c, 100, units.Second, mJ(5))
	if !ok || got != mJ(5) {
		t.Fatalf("PowerLoad = %v,%v", got, ok)
	}
	if c.Stored() != mJ(5) {
		t.Fatalf("cap = %v, want 5mJ (no direct contribution)", c.Stored())
	}
}

func TestBankRTCPriority(t *testing.T) {
	fe := FIOSFrontEnd()
	rtc := NewSuperCap(mJ(1), 0, 0)
	main := NewSuperCap(mJ(100), 0, 0)
	b := NewBank(fe, rtc, main, 0.001 /* 1 µW RTC draw */)

	// Income 1 mW for 1 s = 1 mJ raw; at 0.70 efficiency the RTC cap
	// (1 mJ capacity) takes priority.
	b.Step(1, units.Second)
	if rtc.Stored() <= main.Stored() {
		t.Fatalf("RTC cap must charge first: rtc=%v main=%v", rtc.Stored(), main.Stored())
	}
	// Keep stepping; once RTC is full, the main cap accumulates.
	for i := 0; i < 10; i++ {
		b.Step(1, units.Second)
	}
	if main.Stored() == 0 {
		t.Fatal("main cap should charge once RTC is full")
	}
	if !b.RTCAlive() {
		t.Fatal("RTC should be alive")
	}
}

func TestBankRTCDeath(t *testing.T) {
	fe := NOSFrontEnd()
	rtc := NewSuperCap(mJ(1), 0, mJ(1))
	main := NewSuperCap(mJ(100), 0, 0)
	b := NewBank(fe, rtc, main, 10 /* absurd 10 mW RTC */)
	alive := b.Step(0, units.Second)
	if alive {
		t.Fatal("RTC must die when its cap empties with no income")
	}
	if b.RTCAlive() {
		t.Fatal("RTCAlive should be false")
	}
}

func TestPanicsOnBadInput(t *testing.T) {
	c := NewSuperCap(mJ(1), 0, 0)
	for name, fn := range map[string]func(){
		"negative deposit": func() { c.Deposit(-1) },
		"negative draw":    func() { c.Draw(-1) },
		"negative drain":   func() { c.Drain(-1) },
		"zero capacity":    func() { NewSuperCap(0, 0, 0) },
		"negative need":    func() { NOSFrontEnd().PowerLoad(c, 1, 1, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}
