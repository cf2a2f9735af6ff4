package serve

import (
	"errors"
	"time"
)

// errDiskDegraded is returned by disk-tier operations short-circuited
// while the circuit breaker is open. Callers treat it as "the disk tier
// is temporarily absent": puts stay memory-only, promotes become misses,
// index flushes are skipped. It never reaches the HTTP surface — results
// are recomputed instead.
var errDiskDegraded = errors.New("serve: disk tier degraded (circuit breaker open)")

// Breaker states, in gauge order: the exported breaker_state gauge is 0
// while closed, 1 during a half-open probe, 2 while open.
const (
	breakerClosed int = iota
	breakerHalfOpen
	breakerOpen
)

// breaker is the disk tier's circuit breaker. Repeated I/O errors trip
// it open; while open every disk operation is skipped (the service
// degrades to memory-only and keeps serving); after probeEvery the next
// operation runs as a half-open probe whose outcome either closes the
// breaker (write-through resumes, backlog re-persisted) or re-opens it.
//
// Like resultStore, the breaker is bookkeeping, not a lock domain: every
// method is called with the owning Server's mutex held. The half-open
// state is transient within one critical section — allow() marks the
// probe, the operation runs, record() resolves it — so external
// observers only ever see closed or open.
type breaker struct {
	threshold  int           // consecutive failures that trip the breaker
	probeEvery time.Duration // how long open lasts before a probe
	clock      func() time.Time
	metrics    *metrics

	state    int
	failures int // consecutive, reset on any success
	openedAt time.Time
	// recoveredPending is set when a probe closes the breaker and
	// cleared by takeRecovered; the store uses it to re-persist entries
	// that went memory-only during the outage.
	recoveredPending bool
}

func newBreaker(threshold int, probeEvery time.Duration, clock func() time.Time, m *metrics) *breaker {
	return &breaker{threshold: threshold, probeEvery: probeEvery, clock: clock, metrics: m}
}

// allow reports whether the next disk operation should be attempted.
// While open it also decides probe timing: once probeEvery has elapsed
// the breaker turns half-open and the caller's operation is the probe.
func (b *breaker) allow() bool {
	switch b.state {
	case breakerOpen:
		if b.clock().Sub(b.openedAt) < b.probeEvery {
			return false
		}
		b.state = breakerHalfOpen
		b.metrics.breakerProbes.Add(1)
		return true
	default:
		return true
	}
}

// record feeds one attempted operation's outcome back. A success resets
// the failure streak and closes a half-open breaker; a failure during a
// probe re-opens immediately, and a failure streak reaching threshold
// trips a closed breaker.
func (b *breaker) record(err error) {
	if err == nil {
		b.failures = 0
		if b.state != breakerClosed {
			b.state = breakerClosed
			b.recoveredPending = true
			b.metrics.breakerRecoveries.Add(1)
		}
		return
	}
	b.failures++
	if b.state == breakerHalfOpen || b.failures >= b.threshold {
		b.trip()
	}
}

// trip forces the breaker open (boot-level failures call it directly).
func (b *breaker) trip() {
	if b.state != breakerOpen {
		b.metrics.breakerTrips.Add(1)
	}
	b.state = breakerOpen
	b.failures = 0
	b.openedAt = b.clock()
}

// takeRecovered consumes the just-recovered flag.
func (b *breaker) takeRecovered() bool {
	r := b.recoveredPending
	b.recoveredPending = false
	return r
}

// degraded reports whether the disk tier is currently unavailable.
func (b *breaker) degraded() bool { return b.state != breakerClosed }
