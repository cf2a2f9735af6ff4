package neofog

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
)

// This file is the canonicalization layer under the simulation service's
// content-addressed result cache (internal/serve). Two SimulationConfigs
// that Simulate would treat identically — spelling a default explicitly
// versus leaving the zero value, attaching or omitting observers — must
// map to the same canonical bytes, because the repo's determinism
// guarantees (PR1–PR4) make "same canonical config" equivalent to "same
// result, byte for byte". The canonical form is therefore the JSON
// encoding of the normalized config: defaults filled by the same
// resolver Simulate runs on, and the non-semantic observer fields
// (Journal, Telemetry) dropped by their `json:"-"` tags. Telemetry is
// proven non-perturbing (TestTelemetryBitIdentical), so observed and
// unobserved runs share a cache entry.

// NormalizeConfig validates cfg and fills every default exactly as
// Simulate does, since both run on one resolver: empty enums resolve to
// their documented defaults (the balancer default depends on the
// system), zero counts and seeds become their documented values, and a
// zero solar peak resolves to the weather regime's calibrated panel
// peak. Normalization is idempotent —
// NormalizeConfig(NormalizeConfig(cfg)) == NormalizeConfig(cfg) — and
// Simulate(cfg) and Simulate(NormalizeConfig(cfg)) produce identical
// results. Observer fields (Journal, Telemetry) pass through untouched.
func NormalizeConfig(cfg SimulationConfig) (SimulationConfig, error) {
	d, err := resolve(cfg)
	return d.cfg, err
}

// CanonicalConfig returns the canonical JSON encoding of cfg: normalized
// per NormalizeConfig, semantic fields only, in struct order. Configs
// that Simulate treats identically encode to identical bytes, which is
// what makes the bytes a sound content-address for cached results.
func CanonicalConfig(cfg SimulationConfig) ([]byte, error) {
	n, err := NormalizeConfig(cfg)
	if err != nil {
		return nil, err
	}
	return json.Marshal(n)
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
