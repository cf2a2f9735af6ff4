package qos

import (
	"fmt"
	"slices"
	"sort"
	"time"
)

// Scheduler is a deterministic two-plane weighted-fair queueing
// scheduler over per-tenant FIFO subqueues. Each priority class is its
// own WFQ plane with its own virtual clock; Pop serves the interactive
// plane to exhaustion before touching bulk (strict class priority), and
// within a plane picks the flow with the smallest virtual finish tag
// (start-time fair queueing: a flow's item costs 1/weight of virtual
// time, so backlogged flows are served in proportion to their weights).
// Ties break lexicographically by tenant name, and all tags reset when
// the scheduler empties, so virtual time is bounded per busy period and
// the dispatch order is a pure function of the push/pop trace —
// golden-testable.
//
// The scheduler also owns per-tenant admission state (queued counts
// against depth caps, rate buckets), so the serve layer's one critical
// section can resolve, admit, and enqueue without a second lock.
// Scheduler is NOT internally synchronized: callers serialize access
// (the serve layer holds its server mutex across every call).
type Scheduler[T comparable] struct {
	flows  []*flow[T] // name-sorted; iteration order is the tie-break
	byName map[string]*flow[T]
	vtime  [numClasses]float64
	total  int
}

// flow is one tenant's scheduler state: a FIFO subqueue plus virtual
// start/finish tags per class, and the tenant's admission state.
type flow[T comparable] struct {
	cfg    TenantConfig
	queues [numClasses][]T
	start  [numClasses]float64
	finish [numClasses]float64
	bucket bucket
	queued int // items across both classes, for depth caps and gauges
}

// NewScheduler builds a scheduler from a tenant config set. The default
// tenant always exists — configured explicitly to give it caps, or
// created implicitly with weight 1 and no limits — so Resolve always
// lands somewhere. An empty config set therefore degenerates to one
// unlimited flow, where WFQ over a single flow is plain FIFO: the
// pre-QoS behavior, byte for byte.
func NewScheduler[T comparable](tenants []TenantConfig) (*Scheduler[T], error) {
	s := &Scheduler[T]{byName: map[string]*flow[T]{}}
	add := func(cfg TenantConfig) error {
		if err := cfg.validate(); err != nil {
			return err
		}
		if _, ok := s.byName[cfg.Name]; ok {
			return fmt.Errorf("qos: duplicate tenant %q", cfg.Name)
		}
		f := &flow[T]{cfg: cfg.withDefaults()}
		f.bucket = bucket{rate: f.cfg.Rate, burst: max(1, f.cfg.Rate)}
		s.byName[cfg.Name] = f
		s.flows = append(s.flows, f)
		return nil
	}
	for _, cfg := range tenants {
		if err := add(cfg); err != nil {
			return nil, err
		}
	}
	if _, ok := s.byName[DefaultTenant]; !ok {
		if err := add(TenantConfig{Name: DefaultTenant}); err != nil {
			return nil, err
		}
	}
	sort.Slice(s.flows, func(i, j int) bool { return s.flows[i].cfg.Name < s.flows[j].cfg.Name })
	return s, nil
}

// Resolve maps a request's tenant identity to a configured tenant:
// empty and unknown names fold into the default tenant, which bounds
// per-tenant state regardless of what clients claim to be.
func (s *Scheduler[T]) Resolve(name string) string {
	if _, ok := s.byName[name]; ok {
		return name
	}
	return DefaultTenant
}

// Tenant returns a resolved tenant's effective config (defaults filled).
func (s *Scheduler[T]) Tenant(name string) TenantConfig {
	return s.byName[s.Resolve(name)].cfg
}

// Tenants lists every configured tenant in name order.
func (s *Scheduler[T]) Tenants() []TenantConfig {
	out := make([]TenantConfig, len(s.flows))
	for i, f := range s.flows {
		out[i] = f.cfg
	}
	return out
}

// AdmitResult is one admission decision.
type AdmitResult int

const (
	// Admitted: the submission may be enqueued (one rate token spent).
	Admitted AdmitResult = iota
	// RejectedDepth: the tenant's queued-job cap is full. Checked before
	// the rate bucket so a depth rejection never burns a token.
	RejectedDepth
	// RejectedRate: the tenant's token bucket is empty; the returned
	// duration is how long until a token refills.
	RejectedRate
)

// Admit runs a resolved tenant's admission checks at the given instant:
// the queue-depth cap first (side-effect free), then the rate bucket
// (spends a token). The duration is the tenant's Retry-After hint on a
// rate rejection, 0 otherwise.
func (s *Scheduler[T]) Admit(tenant string, now time.Time) (AdmitResult, time.Duration) {
	f := s.byName[s.Resolve(tenant)]
	if f.cfg.Depth > 0 && f.queued >= f.cfg.Depth {
		return RejectedDepth, 0
	}
	if ok, retry := f.bucket.take(now); !ok {
		return RejectedRate, retry
	}
	return Admitted, 0
}

// Len is the total number of queued items across all tenants and
// classes — the drop-in replacement for the old channel's len.
func (s *Scheduler[T]) Len() int { return s.total }

// TenantLen is one resolved tenant's queued-item count.
func (s *Scheduler[T]) TenantLen(tenant string) int {
	return s.byName[s.Resolve(tenant)].queued
}

// Push enqueues an item for a resolved tenant and class. A flow going
// from idle to backlogged is re-tagged with start = max(vtime, its own
// previous finish) — the standard start-time fair queueing rule: the
// flow claims no credit for the period it had nothing to run (vtime),
// but also cannot shed the cost of service it already received this
// busy period (finish). Lifting only to vtime would let a tenant that
// keeps exactly one job queued re-arrive forever at the head of the
// plane and starve backlogged tenants. The finish tag is set one
// weighted cost later.
func (s *Scheduler[T]) Push(tenant string, class Class, v T) {
	f := s.byName[s.Resolve(tenant)]
	q := &f.queues[class]
	if len(*q) == 0 {
		start := s.vtime[class]
		if f.finish[class] > start {
			start = f.finish[class]
		}
		f.start[class] = start
		f.finish[class] = start + 1/f.cfg.Weight
	}
	*q = append(*q, v)
	f.queued++
	s.total++
}

// Pop dispatches the next item: the backlogged flow with the smallest
// finish tag in the highest non-empty class plane, FIFO within the
// flow. It reports false when nothing is queued. Popping the last item
// resets every tag and both virtual clocks to zero — virtual time is
// bounded by the busy period, and identical traces replay identically.
func (s *Scheduler[T]) Pop() (T, bool) {
	var zero T
	for class := Interactive; class < numClasses; class++ {
		var best *flow[T]
		for _, f := range s.flows {
			if len(f.queues[class]) == 0 {
				continue
			}
			if best == nil || f.finish[class] < best.finish[class] {
				best = f
			}
		}
		if best == nil {
			continue
		}
		q := &best.queues[class]
		v := (*q)[0]
		copy(*q, (*q)[1:])
		(*q)[len(*q)-1] = zero // release the reference
		*q = (*q)[:len(*q)-1]
		best.queued--
		s.total--

		// The plane's virtual clock advances to the dispatched item's
		// start tag (start-time fair queueing), and the flow's next item
		// — if any — is tagged one weighted cost further on.
		if s.vtime[class] < best.start[class] {
			s.vtime[class] = best.start[class]
		}
		if len(*q) > 0 {
			best.start[class] = best.finish[class]
			best.finish[class] = best.start[class] + 1/best.cfg.Weight
		}
		s.resetIfEmpty()
		return v, true
	}
	return zero, false
}

// Remove takes v out of a resolved tenant's class queue before it is
// dispatched: it frees v's slot in Len, in the tenant's depth cap and in
// TenantLen, and the items left keep their dispatch order. It reports
// false when v is not queued there (already popped, say). The flow is
// charged nothing for v: the items behind it keep its tags, and a flow
// it leaves idle re-arrives as if v had never been pushed. Removing the
// last queued item resets every tag, as Pop does.
func (s *Scheduler[T]) Remove(tenant string, class Class, v T) bool {
	f := s.byName[s.Resolve(tenant)]
	q := &f.queues[class]
	i := slices.Index(*q, v)
	if i < 0 {
		return false
	}
	*q = slices.Delete(*q, i, i+1) // zeroes the vacated tail slot
	if len(*q) == 0 {
		f.finish[class] = f.start[class]
	}
	f.queued--
	s.total--
	s.resetIfEmpty()
	return true
}

// resetIfEmpty zeroes both virtual clocks and every tag once nothing is
// queued: virtual time is bounded by the busy period, and identical
// traces replay identically.
func (s *Scheduler[T]) resetIfEmpty() {
	if s.total != 0 {
		return
	}
	s.vtime = [numClasses]float64{}
	for _, f := range s.flows {
		f.start = [numClasses]float64{}
		f.finish = [numClasses]float64{}
	}
}
