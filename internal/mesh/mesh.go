// Package mesh models the network layer of a NEOFog deployment: node
// positions with an RSSI distance model, the Zigbee-style
// locality-preferring greedy routing whose hop count explodes under naive
// densification (Fig. 7), and the chain-mesh relay with orphan-scan
// re-association that the intra-chain systems of Table 1 use.
package mesh

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
)

// Position is a node location in metres.
type Position struct{ X, Y float64 }

// Distance is the Euclidean distance between positions.
func (p Position) Distance(q Position) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// RSSI converts distance to a received signal strength indicator in dBm
// using log-distance path loss (exponent 2.4, −40 dBm at 1 m). Every data
// packet carries RSSI and it is "used to find the closest neighbors" (§4).
func RSSI(d float64) float64 {
	if d < 0.1 {
		d = 0.1
	}
	return -40 - 10*2.4*math.Log10(d)
}

// ClosestNode returns the index of the node nearest to p (excluding any
// index in skip), using the RSSI ordering. It returns -1 if none qualify.
func ClosestNode(p Position, nodes []Position, skip func(int) bool) int {
	best, bestRSSI := -1, math.Inf(-1)
	for i, q := range nodes {
		if skip != nil && skip(i) {
			continue
		}
		if r := RSSI(p.Distance(q)); r > bestRSSI {
			best, bestRSSI = i, r
		}
	}
	return best
}

// GreedyPath routes from node `from` to node `to` with the
// locality-preferring rule of the deployed Zigbee stack: each hop goes to
// the in-range node with the strongest RSSI among those strictly closer to
// the destination. It returns the hop sequence (excluding `from`,
// including `to`) or an error if routing stalls.
func GreedyPath(nodes []Position, from, to int, radioRange float64) ([]int, error) {
	if from < 0 || to < 0 || from >= len(nodes) || to >= len(nodes) {
		return nil, fmt.Errorf("mesh: path endpoints out of range")
	}
	// The hop sequence is built in a pooled scratch buffer (repeated
	// topology sweeps route thousands of paths); the caller receives an
	// exact-size copy, never pool memory.
	bufp := pathPool.Get().(*[]int)
	defer func() {
		*bufp = (*bufp)[:0] // reset: no hops leak into the next route
		pathPool.Put(bufp)
	}()
	path := (*bufp)[:0]
	cur := from
	for cur != to {
		target := nodes[to]
		curDist := nodes[cur].Distance(target)
		next, nextRSSI := -1, math.Inf(-1)
		for i, q := range nodes {
			if i == cur {
				continue
			}
			d := nodes[cur].Distance(q)
			if d > radioRange {
				continue
			}
			if q.Distance(target) >= curDist {
				continue // not forward progress
			}
			if r := RSSI(d); r > nextRSSI {
				next, nextRSSI = i, r
			}
		}
		if next == -1 {
			return nil, fmt.Errorf("mesh: routing stalled at node %d", cur)
		}
		path = append(path, next)
		cur = next
		if len(path) > 4*len(nodes) {
			return nil, fmt.Errorf("mesh: routing loop detected")
		}
	}
	*bufp = path // retain the grown buffer for the pool
	out := make([]int, len(path))
	copy(out, path)
	return out, nil
}

// pathPool recycles GreedyPath's hop-sequence scratch buffers.
var pathPool = sync.Pool{New: func() interface{} {
	b := make([]int, 0, 64)
	return &b
}}

// LineDeployment places n nodes evenly along a line of the given length —
// the sparse chain of Fig. 7 (nodes 11, 21, …, 101).
func LineDeployment(n int, length float64) []Position {
	if n < 2 {
		panic("mesh: need at least two nodes")
	}
	out := make([]Position, n)
	for i := range out {
		out[i] = Position{X: length * float64(i) / float64(n-1)}
	}
	return out
}

// DensifiedDeployment scatters extra nodes around a line deployment,
// multiplying density by `factor`: the Fig. 7 scenario where added nodes
// fall near, but not on, the original chain. The original n anchors keep
// indices 0..n-1.
func DensifiedDeployment(n int, length float64, factor int, spread float64, rng *rand.Rand) []Position {
	base := LineDeployment(n, length)
	if factor < 2 {
		return base
	}
	out := make([]Position, 0, n*factor)
	out = append(out, base...)
	for i := 0; i < n*(factor-1); i++ {
		x := rng.Float64() * length
		y := (rng.Float64()*2 - 1) * spread
		out = append(out, Position{X: x, Y: y})
	}
	return out
}

// LinkModel is the per-hop packet delivery model: the paper measured a
// 0.75% loss rate between sufficiently powered nodes over 10 days (§4).
type LinkModel struct {
	// SuccessRate is the per-transmission delivery probability.
	SuccessRate float64
}

// DefaultLink is the measured 99.25% link.
func DefaultLink() LinkModel { return LinkModel{SuccessRate: 0.9925} }

// Deliver reports whether one transmission attempt succeeds.
func (l LinkModel) Deliver(rng *rand.Rand) bool {
	return rng.Float64() < l.SuccessRate
}

// Chain is an ordered chain mesh (node 0 is nearest the sink). Each node
// keeps an AssociatedDevList-style next-hop pointer; when a relay dies of
// energy depletion, its neighbours re-associate around it via the Zigbee
// orphan-scan procedure, and when it recovers they re-adopt it (§4).
type Chain struct {
	n       int
	alive   []bool
	nextHop []int // index of the next node toward the sink; -1 = sink itself
	// Rejoins counts orphan-scan re-association events (each costs the
	// participants a broadcast/unicast exchange).
	Rejoins int
}

// NewChain builds a chain of n all-alive nodes, node 0 adjacent to the sink.
func NewChain(n int) *Chain {
	if n < 1 {
		panic("mesh: empty chain")
	}
	c := &Chain{n: n, alive: make([]bool, n), nextHop: make([]int, n)}
	for i := range c.alive {
		c.alive[i] = true
		c.nextHop[i] = i - 1 // toward the sink
	}
	return c
}

// SetAlive updates node i's liveness, mirroring the paper's §4 protocol:
// death leaves neighbours' AssociatedDevList entries stale (the orphan scan
// only runs when a delivery attempt hits the dead relay), while recovery is
// announced by broadcast, so downstream pointers re-adopt the node eagerly.
func (c *Chain) SetAlive(i int, alive bool) {
	if c.alive[i] == alive {
		return
	}
	c.alive[i] = alive
	if !alive {
		return // stale pointers persist until discovered mid-delivery
	}
	// Recovery: i rebuilds its own route, and every node whose nearest
	// alive predecessor is now i re-adds it (A adds B, removes C).
	c.nextHop[i] = c.aliveBefore(i)
	for j := i + 1; j < c.n; j++ {
		if c.aliveBefore(j) == i && c.nextHop[j] != i {
			c.nextHop[j] = i
			c.Rejoins++
		}
	}
}

// aliveBefore returns the nearest alive node with a lower index, or -1
// (the sink).
func (c *Chain) aliveBefore(i int) int {
	for j := i - 1; j >= 0; j-- {
		if c.alive[j] {
			return j
		}
	}
	return -1
}

// DeliverOpts tunes one DeliverDetail relay attempt. The zero value is the
// original fire-and-forget behaviour: one trial per hop, packets lost at
// the first link failure or dead relay.
type DeliverOpts struct {
	// Retries is the packet's total retransmission budget across all hops
	// (the link-layer ARQ of the recovery layer): a hop whose transmission
	// goes unacknowledged resends instead of dropping, while budget lasts.
	Retries int
	// PayRetry, when non-nil, is consulted before every retransmission with
	// the retrying hop (chain index) and the packet's 1-based retry
	// ordinal. Returning false refuses the retry — the hop cannot afford
	// the resend — and the packet is lost. This is where the simulator
	// charges the rf timing/energy model, so recovery is never free.
	PayRetry func(hop, attempt int) bool
	// RepairRoute extends the orphan scan into full route repair: after
	// re-associating around a dead relay, the holding hop retransmits to
	// its new next hop (consuming one retry) instead of losing the packet.
	RepairRoute bool
	// OnOrphan, when non-nil, is called with the holding hop (chain index)
	// every time a packet dies at a dead relay. Purely observational — it
	// must not mutate the chain or the RNG stream.
	OnOrphan func(hop int)
}

// Delivery is one relay attempt's outcome.
type Delivery struct {
	// Hops counts transmissions attempted, retransmissions included.
	Hops int
	// Retransmits counts the ARQ resends the packet consumed.
	Retransmits int
	// Orphaned reports that the packet died at a dead relay (the
	// orphan-scan re-association ate the in-flight packet). Always false
	// when OK.
	Orphaned bool
	// OK reports arrival at the sink.
	OK bool
}

// DeliverDetail attempts to relay one packet from node i to the sink: each
// hop is an independent LinkModel trial, and only alive relays forward.
// opts adds per-hop ARQ and route repair (see DeliverOpts); with the zero
// value every hop gets one trial.
func (c *Chain) DeliverDetail(i int, link LinkModel, rng *rand.Rand, opts DeliverOpts) Delivery {
	var d Delivery
	if !c.alive[i] {
		return d
	}
	cur := i
	budget := opts.Retries
	for {
		next := c.nextHop[cur]
		sent := false
		for {
			d.Hops++
			if link.Deliver(rng) {
				sent = true
				break
			}
			// No acknowledgement: retransmit while the budget lasts and
			// the hop can pay for the resend, backoff included.
			if budget <= 0 {
				break
			}
			if opts.PayRetry != nil && !opts.PayRetry(cur, d.Retransmits+1) {
				break
			}
			budget--
			d.Retransmits++
		}
		if !sent {
			return d
		}
		if next == -1 {
			d.OK = true
			return d
		}
		if !c.alive[next] {
			// Orphan scan: cur broadcasts, the next alive node toward the
			// sink confirms, and cur's AssociatedDevList skips the dead
			// span. Without route repair the in-flight packet is lost this
			// period; with it, cur resends to the repaired next hop.
			c.nextHop[cur] = c.aliveBefore(cur)
			c.Rejoins++
			if !opts.RepairRoute || budget <= 0 ||
				(opts.PayRetry != nil && !opts.PayRetry(cur, d.Retransmits+1)) {
				if opts.OnOrphan != nil {
					opts.OnOrphan(cur)
				}
				d.Orphaned = true
				return d
			}
			budget--
			d.Retransmits++
			continue
		}
		cur = next
	}
}

// Heal performs the persistent AssociatedDevList healing of the recovery
// layer: every alive node whose next-hop pointer has gone stale (its relay
// died) re-associates around the whole dead span now, instead of waiting to
// discover the corpse mid-delivery and losing the in-flight packet. Each
// repaired pointer is one orphan-scan exchange (counted in Rejoins). It
// returns the number of pointers repaired. Recovered nodes are re-admitted
// by SetAlive's broadcast path as before; Heal is its proactive complement
// for deaths.
func (c *Chain) Heal() int {
	repaired := 0
	for i := 0; i < c.n; i++ {
		if !c.alive[i] {
			continue
		}
		if next := c.nextHop[i]; next != -1 && !c.alive[next] {
			c.nextHop[i] = c.aliveBefore(i)
			c.Rejoins++
			repaired++
		}
	}
	return repaired
}
