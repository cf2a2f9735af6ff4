package sched

import "math/rand"

// Lease wraps a balancer in the abort-safe lease/commit protocol of the
// recovery layer. A balancing round runs under a lease over the shared load
// state; the inner balancer's decisions only commit if the lease survives
// the round. When the round is certain to be cut short mid-flight — the
// BalanceAbort fault forces interruption = 1, the "power failure during
// balancing" Algorithm 1 must tolerate — the lease is never acquired: the
// round fully rolls back to the uninterrupted local-only plan (no
// half-applied delegations can corrupt the task assignment) and the next
// invocation retries the balance. Probabilistic partial interruptions keep
// the inner balancer's per-region atomicity: an interrupted invocation's
// own region is simply left unbalanced, exactly as before.
type Lease struct {
	// Inner is the balancer whose rounds are leased.
	Inner Balancer
	// Retries counts rounds that re-ran balancing after a rollback — the
	// automatic retry the protocol guarantees.
	Retries int

	pending bool
}

// Name implements Balancer.
func (l *Lease) Name() string { return "lease+" + l.Inner.Name() }

// Plan implements Balancer, forwarding the scratch to the inner balancer.
func (l *Lease) Plan(s *Scratch, nodes []NodeLoad, maxTime int, interruption float64, rng *rand.Rand) Plan {
	if l.pending {
		l.Retries++
		l.pending = false
	}
	if interruption >= 1 {
		// The lease cannot possibly commit; skip the doomed balancing
		// traffic entirely and schedule the retry.
		p := basePlan(s, nodes)
		p.RolledBack = true
		l.pending = true
		return p
	}
	return l.Inner.Plan(s, nodes, maxTime, interruption, rng)
}
