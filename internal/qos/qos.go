// Package qos is the serve layer's multi-tenant quality-of-service
// substrate: per-tenant configuration (scheduling weight, queue-depth
// cap, token-bucket rate limit), a two-class priority model
// (interactive strictly ahead of bulk), and a deterministic
// weighted-fair queueing scheduler over per-tenant FIFO subqueues
// (sched.go).
//
// Everything here is deliberately deterministic: the scheduler's pop
// order is a pure function of the push/pop trace (virtual-time WFQ with
// lexicographic tie-breaks, no randomness, no wall clock), and the rate
// buckets run on an injected clock. That is what lets the serve layer
// golden-test its scheduling policy the same way it golden-tests
// response bodies.
package qos

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// DefaultTenant is the tenant every request without an explicit (or
// with an unknown) tenant identity folds into. Folding unknown names —
// rather than materializing per-name state — bounds scheduler state and
// metric-label cardinality no matter what clients send.
const DefaultTenant = "default"

// Class is a scheduling priority class. Interactive is strictly ahead
// of Bulk: the scheduler never dispatches a bulk item while any
// interactive item is queued, so on a non-preemptive worker pool an
// interactive arrival waits behind at most the bulk job each worker is
// already running.
type Class int

const (
	// Interactive is the latency-sensitive class (single submissions).
	Interactive Class = iota
	// Bulk is the throughput class (matrix sweep cells).
	Bulk

	numClasses = 2
)

// String renders the class's wire spelling.
func (c Class) String() string {
	if c == Bulk {
		return "bulk"
	}
	return "interactive"
}

// ParseClass parses a class name. The empty string is not accepted —
// callers choose their own default (single submissions default
// interactive, matrix cells bulk).
func ParseClass(s string) (Class, error) {
	switch s {
	case "interactive":
		return Interactive, nil
	case "bulk":
		return Bulk, nil
	}
	return 0, fmt.Errorf("qos: unknown class %q (interactive or bulk)", s)
}

// TenantConfig is one tenant's QoS policy.
type TenantConfig struct {
	// Name identifies the tenant (X-Neofog-Tenant values resolve
	// against it). Must be non-empty and unique within a config set.
	Name string `json:"name"`
	// Weight is the tenant's weighted-fair scheduling share (default 1).
	// A weight-3 tenant is dispatched three jobs for every one a
	// weight-1 tenant gets while both are backlogged.
	Weight float64 `json:"weight"`
	// Depth caps how many of the tenant's jobs may be queued at once;
	// submissions beyond it are rejected with a tenant-scoped 429.
	// 0 = unlimited (the shared queue bound still applies).
	Depth int `json:"depth,omitempty"`
	// Rate is the tenant's sustained admission rate in submissions per
	// second, enforced by a token bucket on the injected clock whose
	// capacity is max(1, Rate): one second of sustained rate, never less
	// than one submission. 0 = unlimited.
	Rate float64 `json:"rate,omitempty"`
}

func (c TenantConfig) withDefaults() TenantConfig {
	if c.Weight <= 0 {
		c.Weight = 1
	}
	return c
}

func (c TenantConfig) validate() error {
	if c.Name == "" {
		return fmt.Errorf("qos: tenant with empty name")
	}
	if strings.ContainsAny(c.Name, ":, \t\n\"") {
		return fmt.Errorf("qos: tenant name %q contains reserved characters", c.Name)
	}
	if c.Weight < 0 {
		return fmt.Errorf("qos: tenant %q: negative weight %g", c.Name, c.Weight)
	}
	if c.Depth < 0 {
		return fmt.Errorf("qos: tenant %q: negative depth %d", c.Name, c.Depth)
	}
	if c.Rate < 0 {
		return fmt.Errorf("qos: tenant %q: negative rate %g", c.Name, c.Rate)
	}
	return nil
}

// ParseTenants parses the -tenants flag grammar: a comma-separated list
// of "name:weight[:depth[:rate]]" entries. Weight, depth, and rate may
// be omitted right to left ("gold:3", "gold"); omitted or zero depth
// and rate mean unlimited, omitted weight means 1. An empty string
// parses to nil (no tenant config — single unlimited default tenant).
func ParseTenants(s string) ([]TenantConfig, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	var out []TenantConfig
	seen := map[string]bool{}
	for _, entry := range strings.Split(s, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			return nil, fmt.Errorf("qos: empty tenant entry in %q", s)
		}
		parts := strings.Split(entry, ":")
		if len(parts) > 4 {
			return nil, fmt.Errorf("qos: tenant entry %q has more than name:weight:depth:rate", entry)
		}
		cfg := TenantConfig{Name: parts[0]}
		if len(parts) > 1 && parts[1] != "" {
			w, err := strconv.ParseFloat(parts[1], 64)
			if err != nil {
				return nil, fmt.Errorf("qos: tenant %q: bad weight %q: %v", cfg.Name, parts[1], err)
			}
			if !(w > 0) || math.IsInf(w, 0) {
				return nil, fmt.Errorf("qos: tenant %q: weight must be positive and finite, got %g", cfg.Name, w)
			}
			cfg.Weight = w
		}
		if len(parts) > 2 && parts[2] != "" {
			d, err := strconv.Atoi(parts[2])
			if err != nil {
				return nil, fmt.Errorf("qos: tenant %q: bad depth %q: %v", cfg.Name, parts[2], err)
			}
			cfg.Depth = d
		}
		if len(parts) > 3 && parts[3] != "" {
			r, err := strconv.ParseFloat(parts[3], 64)
			if err != nil {
				return nil, fmt.Errorf("qos: tenant %q: bad rate %q: %v", cfg.Name, parts[3], err)
			}
			if !(r >= 0) || math.IsInf(r, 0) {
				return nil, fmt.Errorf("qos: tenant %q: rate must be finite and non-negative, got %g", cfg.Name, r)
			}
			cfg.Rate = r
		}
		if err := cfg.validate(); err != nil {
			return nil, err
		}
		if seen[cfg.Name] {
			return nil, fmt.Errorf("qos: duplicate tenant %q", cfg.Name)
		}
		seen[cfg.Name] = true
		out = append(out, cfg)
	}
	return out, nil
}

// bucket is a token bucket on an injected clock: tokens refill at rate
// per second up to burst, and each admitted submission spends one.
type bucket struct {
	rate, burst float64
	tokens      float64
	last        time.Time // zero until the first take
}

// take spends one token at the given instant. When the bucket is empty
// it reports false plus how long until a full token has refilled — the
// tenant's personal Retry-After.
func (b *bucket) take(now time.Time) (bool, time.Duration) {
	if b.rate <= 0 {
		return true, 0
	}
	if b.last.IsZero() {
		b.tokens = b.burst
	} else if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens += dt * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	return false, time.Duration((1 - b.tokens) / b.rate * float64(time.Second))
}
