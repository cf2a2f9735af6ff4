package mesh

import "neofog/internal/units"

// RetrySchedule is the energy-aware exponential-backoff plan the link-layer
// ARQ follows: before retransmission k (1-based) the sender waits
// Wait(k) = base·2^(k-1) listening for the missed acknowledgement, so
// congested or rain-degraded periods are probed progressively more gently.
// The schedule is doubly bounded — by the retransmission budget and by the
// hold time (how long the packet may sit in the NVBuffer before its slot's
// work must move on) — so ARQ can never spend more airtime or backlog-hold
// than the round has to give.
type RetrySchedule struct {
	waits []units.Duration
}

// NewRetrySchedule builds the backoff plan: up to `retries` waits starting
// at `base` and doubling, truncated at the first wait whose cumulative
// total would exceed `hold`. A non-positive base yields zero-length waits
// (retransmit immediately); a negative hold forbids retries entirely.
func NewRetrySchedule(base units.Duration, retries int, hold units.Duration) RetrySchedule {
	if base < 0 {
		base = 0
	}
	if retries < 0 {
		retries = 0
	}
	var s RetrySchedule
	var total units.Duration
	wait := base
	for k := 0; k < retries; k++ {
		// total ≤ hold is maintained, so hold-total never underflows; a
		// negative hold fails this check on the first iteration.
		if wait > hold-total {
			break
		}
		s.waits = append(s.waits, wait)
		total += wait
		if wait > maxDuration/2 {
			// Doubling again would overflow; no further wait can fit a
			// finite hold anyway.
			break
		}
		if wait > 0 {
			wait *= 2
		}
	}
	return s
}

// maxDuration is the saturation bound for backoff doubling.
const maxDuration = units.Duration(1<<63 - 1)

// Len is the number of retransmissions the schedule allows.
func (s RetrySchedule) Len() int { return len(s.waits) }

// Wait reports the backoff before retransmission `attempt` (1-based). It
// panics outside [1, Len()].
func (s RetrySchedule) Wait(attempt int) units.Duration {
	if attempt < 1 || attempt > len(s.waits) {
		panic("mesh: retry attempt outside schedule")
	}
	return s.waits[attempt-1]
}
