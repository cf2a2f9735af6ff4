package neofog

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"

	"neofog/internal/units"
)

// This file is the canonicalization layer under the simulation service's
// content-addressed result cache (internal/serve). Two SimulationConfigs
// that Simulate would treat identically — spelling a default explicitly
// versus leaving the zero value, attaching or omitting observers — must
// map to the same canonical bytes, because the repo's determinism
// guarantees (PR1–PR4) make "same canonical config" equivalent to "same
// result, byte for byte". The canonical form is therefore: defaults
// filled exactly as Simulate fills them, enum aliases resolved, and the
// non-semantic observer fields (Journal, Telemetry) dropped.

// canonicalConfig is the hashed wire form of a normalized
// SimulationConfig. Field order is fixed by this struct, so the encoding
// is byte-stable; only fields that influence the simulation result
// appear. Journal and Telemetry are deliberately absent: telemetry is
// proven non-perturbing (TestTelemetryBitIdentical), so observed and
// unobserved runs share a cache entry.
type canonicalConfig struct {
	System              System      `json:"system"`
	Balancer            Balancer    `json:"balancer"`
	Application         Application `json:"application"`
	Nodes               int         `json:"nodes"`
	Rounds              int         `json:"rounds"`
	SlotSeconds         float64     `json:"slot_seconds"`
	Weather             Weather     `json:"weather"`
	SolarPeakMilliwatts float64     `json:"solar_peak_mw"`
	Correlated          bool        `json:"correlated"`
	Multiplexing        int         `json:"multiplexing"`
	FogInstsPerByte     int64       `json:"fog_insts_per_byte"`
	Resumable           bool        `json:"resumable"`
	WakeupRadio         bool        `json:"wakeup_radio"`
	Recovery            bool        `json:"recovery"`
	Seed                int64       `json:"seed"`
}

// NormalizeConfig validates cfg and fills every default exactly as
// Simulate would: empty enums resolve to their documented defaults (the
// balancer default depends on the system), zero counts and seeds become
// their documented values, and a zero solar peak resolves to the weather
// regime's calibrated panel peak. Normalization is idempotent —
// NormalizeConfig(NormalizeConfig(cfg)) == NormalizeConfig(cfg) — and
// Simulate(cfg) and Simulate(NormalizeConfig(cfg)) produce identical
// results. Observer fields (Journal, Telemetry) pass through untouched.
func NormalizeConfig(cfg SimulationConfig) (SimulationConfig, error) {
	app, err := application(cfg.Application)
	if err != nil {
		return SimulationConfig{}, err
	}
	kind, err := systemKind(cfg.System)
	if err != nil {
		return SimulationConfig{}, err
	}
	if _, err := nodeConfig(kind, app, cfg); err != nil {
		return SimulationConfig{}, err
	}
	if _, err := balancer(cfg.Balancer, kind); err != nil {
		return SimulationConfig{}, err
	}
	solar, err := solarConfig(cfg.Weather, cfg.SolarPeakMilliwatts)
	if err != nil {
		return SimulationConfig{}, err
	}

	out := cfg
	if out.System == "" {
		out.System = SystemNEOFog
	}
	if out.Balancer == "" {
		switch out.System {
		case SystemVP:
			out.Balancer = BalanceNone
		case SystemNVP:
			out.Balancer = BalanceTree
		default:
			out.Balancer = BalanceDistributed
		}
	}
	if out.Application == "" {
		out.Application = AppBridgeHealth
	}
	if out.Weather == "" {
		out.Weather = WeatherSunny
	}
	if out.Nodes == 0 {
		out.Nodes = 10
	}
	if out.Multiplexing == 0 {
		out.Multiplexing = 1
	}
	if out.Seed == 0 {
		out.Seed = 1
	}
	if out.SlotSeconds == 0 {
		out.SlotSeconds = 12
	}
	// A zero peak means "the regime default"; pin the resolved value so
	// {sunny} and {sunny, peak: 0.7} share a cache entry. units.Power is
	// milliwatts, so the conversion is the identity.
	if out.SolarPeakMilliwatts == 0 {
		out.SolarPeakMilliwatts = float64(solar.Peak)
	}
	if err := checkShape(out, units.Seconds(out.SlotSeconds)); err != nil {
		return SimulationConfig{}, err
	}
	return out, nil
}

// CanonicalConfig returns the canonical JSON encoding of cfg: normalized
// per NormalizeConfig, semantic fields only, fixed field order. Configs
// that Simulate treats identically encode to identical bytes, which is
// what makes the bytes a sound content-address for cached results.
func CanonicalConfig(cfg SimulationConfig) ([]byte, error) {
	n, err := NormalizeConfig(cfg)
	if err != nil {
		return nil, err
	}
	return json.Marshal(canonicalConfig{
		System:              n.System,
		Balancer:            n.Balancer,
		Application:         n.Application,
		Nodes:               n.Nodes,
		Rounds:              n.Rounds,
		SlotSeconds:         n.SlotSeconds,
		Weather:             n.Weather,
		SolarPeakMilliwatts: n.SolarPeakMilliwatts,
		Correlated:          n.Correlated,
		Multiplexing:        n.Multiplexing,
		FogInstsPerByte:     n.FogInstsPerByte,
		Resumable:           n.Resumable,
		WakeupRadio:         n.WakeupRadio,
		Recovery:            n.Recovery,
		Seed:                n.Seed,
	})
}

// ConfigHash returns the content address of cfg: the hex SHA-256 of its
// canonical encoding. Equal hashes imply byte-identical simulation
// results (and vice versa for the semantic fields), so the hash is a
// sound cache key for Simulate.
func ConfigHash(cfg SimulationConfig) (string, error) {
	b, err := CanonicalConfig(cfg)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}
