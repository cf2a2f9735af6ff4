package neofog

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

// TestCanonicalDefaults pins the core cache-soundness property: a zero
// config and its fully spelled-out default form are the same content
// address.
func TestCanonicalDefaults(t *testing.T) {
	zero, err := ConfigHash(SimulationConfig{})
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := ConfigHash(SimulationConfig{
		System:              SystemNEOFog,
		Balancer:            BalanceDistributed,
		Application:         AppBridgeHealth,
		Nodes:               10,
		SlotSeconds:         12,
		Weather:             WeatherSunny,
		SolarPeakMilliwatts: 0.7,
		Multiplexing:        1,
		Seed:                1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if zero != explicit {
		t.Fatalf("zero config and explicit defaults hash differently:\n %s\n %s", zero, explicit)
	}

	// The per-system balancer default must match Simulate's resolution.
	vpDefault, err := ConfigHash(SimulationConfig{System: SystemVP})
	if err != nil {
		t.Fatal(err)
	}
	vpExplicit, err := ConfigHash(SimulationConfig{System: SystemVP, Balancer: BalanceNone})
	if err != nil {
		t.Fatal(err)
	}
	if vpDefault != vpExplicit {
		t.Fatal("nos-vp default balancer should canonicalize to none")
	}
	if vpDefault == zero {
		t.Fatal("different systems must hash differently")
	}
}

// TestCanonicalIgnoresObservers checks that attaching a journal or a
// telemetry collector — both proven non-perturbing — does not change the
// content address.
func TestCanonicalIgnoresObservers(t *testing.T) {
	plain, err := ConfigHash(SimulationConfig{Weather: WeatherRainy})
	if err != nil {
		t.Fatal(err)
	}
	observed := SimulationConfig{Weather: WeatherRainy}
	observed.Journal = &bytes.Buffer{}
	observed.Telemetry = NewTelemetry()
	h, err := ConfigHash(observed)
	if err != nil {
		t.Fatal(err)
	}
	if h != plain {
		t.Fatal("observer fields leaked into the content address")
	}
}

// TestCanonicalRejectsInvalid checks that a config NormalizeConfig
// refuses is refused by Simulate too, with the same error, including the
// configs with several faults, whose first fault in the resolver's check
// order is the one reported, and that configs at the edge of a bound
// are admitted.
func TestCanonicalRejectsInvalid(t *testing.T) {
	for _, cfg := range []SimulationConfig{
		{System: "quantum"},
		{Balancer: "psychic"},
		{Application: "doom"},
		{Weather: "hail"},
		{Nodes: -1},
		{Multiplexing: -2},
		{SlotSeconds: -5},
		{Rounds: -10},
		{Nodes: 1, Multiplexing: 2},
		{SolarPeakMilliwatts: -1},
		{SolarPeakMilliwatts: math.NaN()},
		{SolarPeakMilliwatts: math.Inf(1)},
		{SolarPeakMilliwatts: math.Inf(-1)},
		{SlotSeconds: math.NaN()},
		{SlotSeconds: math.Inf(1)},
		{SlotSeconds: math.Inf(-1)},
		{SlotSeconds: 1e13},  // 1e19 µs overflows int64
		{SlotSeconds: -1e13}, // and so does −1e19 µs
		{System: "quantum", Nodes: -1},
		{Weather: "hail", FogInstsPerByte: -1},
		{SolarPeakMilliwatts: -1, SlotSeconds: math.NaN(), Rounds: -1},
		{SlotSeconds: 1e-6},                       // a 1 µs slot reads 1.8e10 slots of the day per node
		{SlotSeconds: 0.001, Rounds: 1 << 40},     // rounds past the day read the day's 1.8e7 slots
		{Nodes: 8192, Rounds: 1025},               // one slot past the income cap
		{Nodes: 4097, Multiplexing: 2, Rounds: 1}, // one node pair past the physical-node cap
		{Nodes: 1 << 40, Multiplexing: 1 << 40},   // whose product overflows int64
	} {
		_, err := ConfigHash(cfg)
		if err == nil {
			t.Errorf("expected error for %+v", cfg)
			continue
		}
		if _, serr := Simulate(cfg); serr == nil || serr.Error() != err.Error() {
			t.Errorf("%+v: NormalizeConfig says %q, Simulate %v", cfg, err, serr)
		}
	}
	for _, cfg := range []SimulationConfig{
		{SlotSeconds: 9e12},                       // a slot just under the int64 limit of microseconds
		{SlotSeconds: 1e-6, Rounds: 30},           // a 1 µs slot read for 30 rounds
		{Rounds: math.MaxInt},                     // rounds past the day read the day's 1500 slots
		{Nodes: 8192, Rounds: 1024},               // income at its cap
		{Nodes: 4096, Multiplexing: 2, Rounds: 1}, // physical nodes at their cap
	} {
		if _, err := NormalizeConfig(cfg); err != nil {
			t.Errorf("%+v refused: %v", cfg, err)
		}
	}
}

// FuzzCanonicalHash proves the hash that keys the service's result cache
// is stable under everything a client may legitimately vary without
// changing the simulation: spelling defaults explicitly vs leaving zero
// values, JSON field order, and attached observers. Any counterexample
// here would let one logical configuration occupy two cache entries (a
// harmless miss) or — far worse — two logical configurations collide on
// normalization into one.
func FuzzCanonicalHash(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0), 0, 0, 0.0, 0.0, false, 0, int64(0), false, false, false, int64(0))
	f.Add(uint8(1), uint8(2), uint8(3), uint8(1), 10, 300, 12.0, 0.7, true, 2, int64(90), true, false, true, int64(7))
	f.Add(uint8(2), uint8(1), uint8(4), uint8(2), 5, 1500, 8.5, 1.2, false, 3, int64(512), false, true, false, int64(42))

	systems := []System{"", SystemVP, SystemNVP, SystemNEOFog}
	balancers := []Balancer{"", BalanceNone, BalanceTree, BalanceDistributed}
	applications := []Application{"", AppBridgeHealth, AppUVMeter, AppTemperature, AppAcceleration, AppHeartbeat}
	weathers := []Weather{"", WeatherSunny, WeatherOvercast, WeatherRainy}

	f.Fuzz(func(t *testing.T, sys, bal, app, wx uint8,
		nodes, rounds int, slot, peak float64, corr bool, mux int,
		fog int64, resumable, wakeup, recovery bool, seed int64) {
		cfg := SimulationConfig{
			System:              systems[int(sys)%len(systems)],
			Balancer:            balancers[int(bal)%len(balancers)],
			Application:         applications[int(app)%len(applications)],
			Nodes:               nodes,
			Rounds:              rounds,
			SlotSeconds:         slot,
			Weather:             weathers[int(wx)%len(weathers)],
			SolarPeakMilliwatts: peak,
			Correlated:          corr,
			Multiplexing:        mux,
			FogInstsPerByte:     fog,
			Resumable:           resumable,
			WakeupRadio:         wakeup,
			Recovery:            recovery,
			Seed:                seed,
		}
		h1, err := ConfigHash(cfg)
		if err != nil {
			// Invalid shapes and NaN/Inf floats are rejected, not hashed;
			// rejection must at least be deterministic.
			if _, err2 := ConfigHash(cfg); err2 == nil {
				t.Fatalf("nondeterministic rejection: %v then success", err)
			}
			return
		}

		// Determinism: hashing twice gives the same address.
		if h2, err := ConfigHash(cfg); err != nil || h2 != h1 {
			t.Fatalf("hash not deterministic: %s vs %s (%v)", h1, h2, err)
		}

		// Default-filling: normalization is idempotent and hash-preserving.
		norm, err := NormalizeConfig(cfg)
		if err != nil {
			t.Fatalf("hashable config failed to normalize: %v", err)
		}
		if hn, err := ConfigHash(norm); err != nil || hn != h1 {
			t.Fatalf("normalized config hashes differently: %s vs %s (%v)", h1, hn, err)
		}
		norm2, err := NormalizeConfig(norm)
		if err != nil || norm2 != norm {
			t.Fatalf("normalization not idempotent: %+v vs %+v (%v)", norm, norm2, err)
		}

		// Canonical bytes agree with the hash contract.
		b1, err := CanonicalConfig(cfg)
		if err != nil {
			t.Fatal(err)
		}
		bn, err := CanonicalConfig(norm)
		if err != nil || !bytes.Equal(b1, bn) {
			t.Fatalf("canonical bytes differ pre/post normalization:\n%s\n%s (%v)", b1, bn, err)
		}

		// JSON field order: round-trip the config through a generic map
		// (which re-marshals keys in sorted order, not struct order) and
		// confirm the content address is unchanged.
		enc, err := json.Marshal(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var m map[string]json.RawMessage
		if err := json.Unmarshal(enc, &m); err != nil {
			t.Fatal(err)
		}
		shuffled, err := json.Marshal(m) // map marshaling sorts keys
		if err != nil {
			t.Fatal(err)
		}
		var back SimulationConfig
		if err := json.Unmarshal(shuffled, &back); err != nil {
			t.Fatal(err)
		}
		if hb, err := ConfigHash(back); err != nil || hb != h1 {
			t.Fatalf("hash unstable across JSON field order: %s vs %s (%v)", h1, hb, err)
		}
	})
}
