package rf

import (
	"math"
	"testing"
	"testing/quick"

	"neofog/internal/units"
)

func TestAirTimeAndEnergy(t *testing.T) {
	r := ML7266()
	// 250 kbps → 32 µs per byte.
	if got := r.AirTime(1); got != 32 {
		t.Fatalf("AirTime(1) = %v, want 32µs", got)
	}
	// Table 2 TX energies are exactly the on-air energies of each app's
	// sample payload.
	cases := []struct {
		app   string
		bytes int
		nJ    float64
	}{
		{"Bridge Health", 8, 22809.6},
		{"UV Meter", 2, 5702.4},
		{"WSN-Temp.", 2, 5702.4},
		{"WSN-Accel.", 6, 17107.2},
		{"Pattern Matching", 1, 2851.2},
	}
	for _, c := range cases {
		if got := r.AirEnergy(c.bytes); math.Abs(float64(got)-c.nJ) > 1e-9 {
			t.Errorf("%s: AirEnergy(%d) = %v, want %v nJ", c.app, c.bytes, float64(got), c.nJ)
		}
	}
}

func TestSoftwareRFInit(t *testing.T) {
	s := NewSoftwareRF(ML7266())
	c := s.InitCost()
	if c.Time != 531*units.Millisecond {
		t.Fatalf("init time = %v, want 531ms", c.Time)
	}
	// Energy at idle power over the init window.
	want := units.Power(14.93).Over(531 * units.Millisecond)
	if math.Abs(float64(c.Energy-want)) > 1 {
		t.Fatalf("init energy = %v, want %v", c.Energy, want)
	}
	// A faster host shortens init proportionally.
	s.HostClockHz = 2e6
	if got := s.InitCost().Time; got != 265500 {
		t.Fatalf("init at 2MHz = %v, want 265.5ms", got)
	}
}

func TestSoftwareTxFormula(t *testing.T) {
	s := NewSoftwareRF(ML7266())
	// TX(100) = 255 + 1.44·100 + 0.032·100 = 402.2 ms.
	c := s.TxCost(100)
	if c.Time != units.Milliseconds(402.2) {
		t.Fatalf("TxCost(100).Time = %v, want 402.2ms", c.Time)
	}
	// Zero-byte transmission still pays the 255 ms channel overhead.
	if s.TxCost(0).Time != 255*units.Millisecond {
		t.Fatalf("TxCost(0).Time = %v", s.TxCost(0).Time)
	}
}

func TestNVRFLifecycle(t *testing.T) {
	n := NewNVRF(ML7266())
	// A fresh NVRF is unconfigured: its init costs the full 28 ms
	// configuration.
	if got := n.InitCost().Time; got != 28*units.Millisecond {
		t.Fatalf("unconfigured init = %v, want 28ms", got)
	}
	cfg := n.Configure([]byte{0x01, 0x02, 0x03})
	if cfg.Time != 28*units.Millisecond {
		t.Fatalf("configure = %v, want 28ms", cfg.Time)
	}
	// Configured init is a microsecond-scale NV restore — the 27×-class
	// advantage over software RF.
	if got := n.InitCost().Time; got >= units.Millisecond {
		t.Fatalf("configured init = %v, want µs-scale", got)
	}
}

func TestNVRFTxFormula(t *testing.T) {
	n := NewNVRF(ML7266())
	n.Configure(nil)
	// TX(100) = 1.74 + 0.156 + 0.216·100 + 0.032·100 = 26.696 ms.
	if got := n.TxCost(100).Time; got != units.Milliseconds(26.696) {
		t.Fatalf("TxCost(100).Time = %v, want 26.696ms", got)
	}
}

// The headline claims of [80]: NVRF speeds up re-initialisation by ~27×
// (here far more, since software re-init is 531 ms) and the per-packet
// path is dramatically cheaper.
func TestNVRFAdvantages(t *testing.T) {
	sw := NewSoftwareRF(ML7266())
	nv := NewNVRF(ML7266())
	nv.Configure(nil)

	if float64(sw.InitCost().Time)/float64(nv.InitCost().Time) < 27 {
		t.Fatal("NVRF re-init should be ≥27× faster than software")
	}
	for _, n := range []int{1, 8, 64, 127} {
		st, nt := sw.TxCost(n), nv.TxCost(n)
		if nt.Time >= st.Time {
			t.Fatalf("NVRF TX(%d) time %v not faster than software %v", n, nt.Time, st.Time)
		}
		if nt.Energy >= st.Energy {
			t.Fatalf("NVRF TX(%d) energy %v not cheaper than software %v", n, nt.Energy, st.Energy)
		}
	}
	// Throughput advantage for a full init+tx round should be large
	// (prior measurements report 6.2×; ours is larger because the
	// software path's 531 ms init dominates).
	n := 64
	swRound := sw.InitCost().Add(sw.TxCost(n))
	nvRound := nv.InitCost().Add(nv.TxCost(n))
	if float64(swRound.Time)/float64(nvRound.Time) < 6.2 {
		t.Fatalf("round speedup = %.1f, want ≥6.2", float64(swRound.Time)/float64(nvRound.Time))
	}
}

// Property: both controllers' TX cost is monotone in payload size, and
// time/energy are always positive.
func TestTxCostMonotone(t *testing.T) {
	sw := NewSoftwareRF(ML7266())
	nv := NewNVRF(ML7266())
	nv.Configure(nil)
	f := func(aRaw, bRaw uint8) bool {
		a, b := int(aRaw), int(bRaw)
		if a > b {
			a, b = b, a
		}
		for _, ctl := range []Controller{sw, nv} {
			ca, cb := ctl.TxCost(a), ctl.TxCost(b)
			if ca.Time <= 0 || ca.Energy <= 0 {
				return false
			}
			if a < b && (cb.Time <= ca.Time || cb.Energy <= ca.Energy) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRxCosts(t *testing.T) {
	sw := NewSoftwareRF(ML7266())
	nv := NewNVRF(ML7266())
	nv.Configure(nil)
	if sw.RxCost(10).Energy <= 0 || nv.RxCost(10).Energy <= 0 {
		t.Fatal("RX must cost energy")
	}
	if nv.RxCost(10).Time >= sw.RxCost(10).Time+255*units.Millisecond {
		t.Fatal("NVRF RX should not be slower than software RX plus overhead")
	}
}

func TestConfigureTooLargePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewNVRF(ML7266()).Configure(make([]byte, NVRFStateBytes+1))
}

func TestBackscatterCosts(t *testing.T) {
	b := NewBackscatter()
	// Backscatter's whole reason to exist: orders of magnitude below an
	// active radio for the same payload.
	nv := NewNVRF(ML7266())
	nv.Configure(nil)
	for _, n := range []int{16, 512, 4096} {
		bc, ac := b.TxCost(n), nv.TxCost(n)
		if bc.Energy*100 > ac.Energy {
			t.Fatalf("TX(%d): backscatter %v not ≪ active %v", n, bc.Energy, ac.Energy)
		}
	}
	// But slower on air (100 kbps vs 250 kbps).
	if b.AirTime(100) <= ML7266().AirTime(100) {
		t.Fatal("backscatter air time should exceed the active radio's")
	}
	// An empty burst costs only the preamble synchronisation.
	if b.TxCost(0).Time != 2*units.Millisecond {
		t.Fatalf("preamble = %v", b.TxCost(0).Time)
	}
}
