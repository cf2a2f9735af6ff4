package units

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestPowerOverIdentity(t *testing.T) {
	// 1 mW for 1 µs is exactly 1 nJ: this identity underpins every energy
	// computation in the simulator.
	if got := Milliwatt.Over(Microsecond); got != 1 {
		t.Fatalf("1mW over 1µs = %v nJ, want 1", got)
	}
	if got := Power(89.1).Over(Millisecond); math.Abs(float64(got)-89100) > 1e-9 {
		t.Fatalf("89.1mW over 1ms = %v, want 89100 nJ", got)
	}
	// The paper's RF TX energy: 89.1 mW for 256 µs (8 bytes at 250 kbps)
	// must come out to 22809.6 nJ, Table 2's bridge TX energy.
	if got := Power(89.1).Over(256 * Microsecond); math.Abs(float64(got)-22809.6) > 1e-6 {
		t.Fatalf("bridge TX energy = %v, want 22809.6 nJ", got)
	}
}

func TestDurationConversions(t *testing.T) {
	cases := []struct {
		d    Duration
		ms   float64
		s    float64
		mins float64
	}{
		{Millisecond, 1, 0.001, 0.001 / 60},
		{Second, 1000, 1, 1.0 / 60},
		{5 * Hour, 5 * 3600 * 1000, 5 * 3600, 300},
	}
	for _, c := range cases {
		if c.d.Milliseconds() != c.ms {
			t.Errorf("%v.Milliseconds() = %v, want %v", c.d, c.d.Milliseconds(), c.ms)
		}
		if c.d.Seconds() != c.s {
			t.Errorf("%v.Seconds() = %v, want %v", c.d, c.d.Seconds(), c.s)
		}
		if math.Abs(c.d.Minutes()-c.mins) > 1e-12 {
			t.Errorf("%v.Minutes() = %v, want %v", c.d, c.d.Minutes(), c.mins)
		}
	}
}

func TestMillisecondsConstructor(t *testing.T) {
	// The ML7266 software TX formula is (255 + 1.472N) ms; make sure
	// fractional milliseconds round-trip to within a microsecond.
	d := Milliseconds(255 + 1.472*100)
	want := Duration(402200) // 402.2 ms
	if d != want {
		t.Fatalf("Milliseconds(402.2) = %d, want %d", d, want)
	}
	if Milliseconds(0.0005) != 1 { // rounds up
		t.Fatalf("Milliseconds(0.0005) = %d, want 1", Milliseconds(0.0005))
	}
}

func TestEnergyPowerDurationRoundTrip(t *testing.T) {
	// Property: for positive power and duration, dividing Over's energy by
	// the power recovers the duration (within 1 µs of float truncation).
	f := func(pRaw, dRaw uint16) bool {
		p := Power(float64(pRaw%500) + 0.5)
		d := Duration(dRaw) + 1
		back := Duration(float64(p.Over(d)) / float64(p))
		diff := back - d
		return diff >= -1 && diff <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStringFormats(t *testing.T) {
	cases := []struct {
		got, wantSub string
	}{
		{(500 * Microsecond).String(), "µs"},
		{(5 * Millisecond).String(), "ms"},
		{(5 * Second).String(), "s"},
		{(90 * Minute).String(), "min"},
		{Energy(12).String(), "nJ"},
		{Energy(12e3).String(), "µJ"},
		{Energy(12e6).String(), "mJ"},
		{Energy(12e9).String(), "J"},
		{Power(0.5).String(), "µW"},
		{Power(89.1).String(), "mW"},
		{Power(1500).String(), "W"},
	}
	for _, c := range cases {
		if !strings.Contains(c.got, c.wantSub) {
			t.Errorf("String() = %q, want unit %q", c.got, c.wantSub)
		}
	}
}

func TestEnergyUnits(t *testing.T) {
	if Millijoule != 1e6 || Joule != 1e9 {
		t.Fatal("energy unit constants are wrong")
	}
	e := Energy(2.5e6)
	if e.Millijoules() != 2.5 {
		t.Fatalf("Millijoules = %v", e.Millijoules())
	}
	if e.Microjoules() != 2500 {
		t.Fatalf("Microjoules = %v", e.Microjoules())
	}
	if e.Joules() != 0.0025 {
		t.Fatalf("Joules = %v", e.Joules())
	}
}
