// Package faults is the deterministic fault-injection subsystem: it turns
// the paper's tolerance claims — Algorithm 1 is "tolerant of node failures
// during balancing" (§5.2), the mesh layer's orphan scan exists only to
// survive relay death (§4) — into schedules of injectable adversity that
// the system simulator executes through the hook points on sim.Config.
//
// A Plan is a list of Events, either declared explicitly or generated from
// a seed at a chosen intensity. Plans are pure data: applying one installs
// stateless, RNG-free hooks, so a faulted run is exactly as reproducible
// as a clean one, and a zero-event plan is bit-identical to no plan at
// all. On top, Campaign (campaign.go) sweeps intensity across runs and
// asserts the graceful-degradation invariants.
package faults

import (
	"fmt"
	"math"
	"math/rand"

	"neofog/internal/mesh"
	"neofog/internal/sim"
)

// Kind enumerates the injectable fault classes.
type Kind int

// The fault classes, each landing in a different layer of the stack.
const (
	// Crash takes a node out of its rounds entirely (firmware hang or
	// hardware death); the harvester keeps charging and the node revives
	// spontaneously when the window closes.
	Crash Kind = iota
	// Blackout zeroes a node's harvest income (a cloudburst over its
	// panel); stored energy drains normally, so long blackouts can kill
	// the RTC cap and force a costly resynchronisation.
	Blackout
	// RFInitFail makes a node's radio fail to initialise: transmits and
	// receives on it fail for the window without draining the cap.
	RFInitFail
	// SensorStuck marks the node's samples as stuck-at garbage; the node
	// cannot tell, so the packets still flow — only the count surfaces.
	SensorStuck
	// LinkDegrade overrides the network-wide per-packet success rate
	// below the measured 99.25% (§4: loss was "mainly affected by
	// weather, especially rain").
	LinkDegrade
	// BalanceAbort cuts every balancing invocation short mid-run ("if
	// load balance algorithm is interrupted, no load balance will take
	// place at that region", §3.2).
	BalanceAbort
)

// kindNames is indexed by Kind.
var kindNames = []string{"crash", "blackout", "rf-init-fail", "sensor-stuck", "link-degrade", "balance-abort"}

func (k Kind) String() string {
	if k < 0 || int(k) >= len(kindNames) {
		return fmt.Sprintf("Kind(%d)", int(k))
	}
	return kindNames[k]
}

// Event is one scheduled fault: Kind applies to physical node Node (-1 =
// network-wide, required for LinkDegrade and BalanceAbort) during rounds
// [Start, End).
type Event struct {
	Kind  Kind
	Node  int
	Start int
	End   int
	// SuccessRate is the per-packet delivery probability a LinkDegrade
	// event imposes; unused by other kinds.
	SuccessRate float64
}

// Active reports whether the event covers the round.
func (e Event) Active(round int) bool { return round >= e.Start && round < e.End }

// Plan is a schedule of fault events for one simulation run.
type Plan struct {
	Events []Event
}

// Validate checks the plan's shape so a malformed schedule fails loudly
// before it silently skews a campaign.
func (p *Plan) Validate() error {
	for i, e := range p.Events {
		if e.Kind < 0 || int(e.Kind) >= len(kindNames) {
			return fmt.Errorf("faults: event %d: unknown kind %d", i, int(e.Kind))
		}
		if e.Start < 0 || e.End < e.Start {
			return fmt.Errorf("faults: event %d: bad window [%d, %d)", i, e.Start, e.End)
		}
		global := e.Kind == LinkDegrade || e.Kind == BalanceAbort
		if global && e.Node != -1 {
			return fmt.Errorf("faults: event %d: %v must be network-wide (Node=-1)", i, e.Kind)
		}
		if !global && e.Node < 0 {
			return fmt.Errorf("faults: event %d: %v needs a target node", i, e.Kind)
		}
		if e.Kind == LinkDegrade && (e.SuccessRate < 0 || e.SuccessRate > 1) {
			return fmt.Errorf("faults: event %d: success rate %v outside [0,1]", i, e.SuccessRate)
		}
	}
	return nil
}

// LastEnd reports the first round by which every event has cleared (0 for
// an empty plan) — the earliest point recovery can be measured from.
func (p *Plan) LastEnd() int {
	last := 0
	for _, e := range p.Events {
		if e.End > last {
			last = e.End
		}
	}
	return last
}

// byKind partitions the events for the per-hook scans.
func (p *Plan) byKind(k Kind) []Event {
	var out []Event
	for _, e := range p.Events {
		if e.Kind == k {
			out = append(out, e)
		}
	}
	return out
}

func nodeHook(events []Event) func(phys, round int) bool {
	if len(events) == 0 {
		return nil
	}
	return func(phys, round int) bool {
		for _, e := range events {
			if (e.Node == phys || e.Node == -1) && e.Active(round) {
				return true
			}
		}
		return false
	}
}

// Hooks compiles the plan into the simulator's fault-injection points.
// Kinds with no events compile to nil hooks, so an empty plan is the
// FaultHooks zero value and leaves a run bit-identical to a clean one.
func (p *Plan) Hooks() sim.FaultHooks {
	h := sim.FaultHooks{
		NodeDown:    nodeHook(p.byKind(Crash)),
		Blackout:    nodeHook(p.byKind(Blackout)),
		RFFailed:    nodeHook(p.byKind(RFInitFail)),
		SensorStuck: nodeHook(p.byKind(SensorStuck)),
	}
	if links := p.byKind(LinkDegrade); len(links) > 0 {
		h.Link = func(round int) (mesh.LinkModel, bool) {
			// Overlapping degradations compound to the worst one.
			rate, hit := 1.0, false
			for _, e := range links {
				if e.Active(round) && (!hit || e.SuccessRate < rate) {
					rate, hit = e.SuccessRate, true
				}
			}
			return mesh.LinkModel{SuccessRate: rate}, hit
		}
	}
	if aborts := p.byKind(BalanceAbort); len(aborts) > 0 {
		h.AbortBalance = func(round int) bool {
			for _, e := range aborts {
				if e.Active(round) {
					return true
				}
			}
			return false
		}
	}
	return h
}

// Apply installs the plan's hooks on the config.
func (p *Plan) Apply(cfg *sim.Config) { cfg.Faults = p.Hooks() }

// Generated plans have a fixed shape. At intensity 1 a plan carries
// eventsPerNode events per node, and every event starts and clears inside
// [faultWindowStart, faultWindowEnd) of the run, leaving a clean tail to
// measure recovery against.
const (
	eventsPerNode                    = 2
	faultWindowStart, faultWindowEnd = 0.25, 0.60
)

// Generate builds a seeded plan at the given intensity in [0, 1] for a
// run of nodes physical nodes and rounds RTC slots. Plans are nested: for
// a fixed seed and run shape, a lower-intensity plan's events are a
// prefix of a higher-intensity plan's, so sweeping intensity compares
// supersets of the same adversity rather than unrelated draws.
func Generate(seed int64, intensity float64, nodes, rounds int) (*Plan, error) {
	if nodes <= 0 || rounds <= 0 {
		return nil, fmt.Errorf("faults: generation needs a run shape (nodes=%d, rounds=%d)", nodes, rounds)
	}
	if intensity < 0 || intensity > 1 {
		return nil, fmt.Errorf("faults: intensity %v outside [0, 1]", intensity)
	}

	lo := int(faultWindowStart * float64(rounds))
	hi := int(faultWindowEnd * float64(rounds))
	if hi <= lo {
		hi = lo + 1
	}
	span := hi - lo
	maxDur := span / 4
	if maxDur < 1 {
		maxDur = 1
	}

	maxEvents := eventsPerNode * nodes
	rng := rand.New(rand.NewSource(seed))
	all := make([]Event, 0, maxEvents)
	for i := 0; i < maxEvents; i++ {
		kind := Kind(rng.Intn(len(kindNames)))
		start := lo + rng.Intn(span)
		dur := 1 + rng.Intn(maxDur)
		end := start + dur
		if end > hi {
			end = hi
		}
		e := Event{Kind: kind, Node: rng.Intn(nodes), Start: start, End: end}
		switch kind {
		case LinkDegrade:
			e.Node = -1
			e.SuccessRate = 0.3 + 0.5*rng.Float64()
		case BalanceAbort:
			e.Node = -1
		}
		all = append(all, e)
	}

	take := int(math.Ceil(intensity * float64(maxEvents)))
	if take > len(all) {
		take = len(all)
	}
	p := &Plan{Events: all[:take]}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}
