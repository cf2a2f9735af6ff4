package mesh

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRSSIMonotone(t *testing.T) {
	if RSSI(1) <= RSSI(10) || RSSI(10) <= RSSI(100) {
		t.Fatal("RSSI must decrease with distance")
	}
	// Clamp below 0.1 m.
	if RSSI(0.01) != RSSI(0.1) {
		t.Fatal("RSSI should clamp tiny distances")
	}
	if math.Abs(RSSI(1)-(-40)) > 1e-9 {
		t.Fatalf("RSSI(1m) = %v, want -40", RSSI(1))
	}
}

func TestClosestNode(t *testing.T) {
	nodes := []Position{{0, 0}, {5, 0}, {1, 1}}
	got := ClosestNode(Position{0.9, 0.9}, nodes, nil)
	if got != 2 {
		t.Fatalf("ClosestNode = %d, want 2", got)
	}
	got = ClosestNode(Position{0.9, 0.9}, nodes, func(i int) bool { return i == 2 })
	if got != 0 {
		t.Fatalf("ClosestNode with skip = %d, want 0", got)
	}
	if ClosestNode(Position{}, nodes, func(int) bool { return true }) != -1 {
		t.Fatal("all skipped should yield -1")
	}
}

// Figure 7: a sparse 10-node chain routes end-to-end in 9 hops; 4×
// densification with scattered placement inflates the hop count to ~25
// because the locality-preferring protocol hops to the nearest forward
// node.
func TestFigure7Hops(t *testing.T) {
	const length, radioRange = 90, 25
	sparse := LineDeployment(10, length)
	path, err := GreedyPath(sparse, 0, 9, radioRange)
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 9 {
		t.Fatalf("sparse chain hops = %d, want 9", len(path))
	}

	rng := rand.New(rand.NewSource(7))
	dense := DensifiedDeployment(10, length, 4, 4, rng)
	if len(dense) != 40 {
		t.Fatalf("densified count = %d, want 40", len(dense))
	}
	densePath, err := GreedyPath(dense, 0, 9, radioRange)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(len(densePath)) / float64(len(path))
	if ratio < 2 || ratio > 3.9 {
		t.Fatalf("densified hops = %d (ratio %.2f), want ~2.8× of 9 (paper: 25)",
			len(densePath), ratio)
	}
	t.Logf("Fig. 7: sparse 9 hops, dense %d hops (paper: 25)", len(densePath))
}

func TestGreedyPathErrors(t *testing.T) {
	nodes := []Position{{0, 0}, {100, 0}}
	if _, err := GreedyPath(nodes, 0, 1, 10); err == nil {
		t.Fatal("out-of-range hop should stall")
	}
	if _, err := GreedyPath(nodes, -1, 1, 10); err == nil {
		t.Fatal("bad endpoint should error")
	}
}

func TestLineDeployment(t *testing.T) {
	nodes := LineDeployment(5, 100)
	if nodes[0].X != 0 || nodes[4].X != 100 || nodes[2].X != 50 {
		t.Fatalf("LineDeployment = %+v", nodes)
	}
}

func TestLinkModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	link := DefaultLink()
	n, ok := 100000, 0
	for i := 0; i < n; i++ {
		if link.Deliver(rng) {
			ok++
		}
	}
	rate := float64(ok) / float64(n)
	if math.Abs(rate-0.9925) > 0.002 {
		t.Fatalf("delivery rate = %v, want ≈0.9925", rate)
	}
}

func TestChainRouting(t *testing.T) {
	c := NewChain(5)
	route := c.RouteToSink(4)
	want := []int{3, 2, 1, 0, -1}
	if len(route) != len(want) {
		t.Fatalf("route = %v", route)
	}
	for i := range want {
		if route[i] != want[i] {
			t.Fatalf("route = %v, want %v", route, want)
		}
	}
}

func TestChainOrphanScan(t *testing.T) {
	c := NewChain(4) // 3 → 2 → 1 → 0 → sink
	perfect := LinkModel{SuccessRate: 1}
	rng := rand.New(rand.NewSource(2))

	// Kill node 1: node 2's pointer is stale; first delivery from 3 fails
	// at the discovery, repairing 2 → 0.
	c.SetAlive(1, false)
	if c.nextHop[2] != 1 {
		t.Fatal("death must leave the pointer stale until discovered")
	}
	_, ok := deliver(c, 3, perfect, rng)
	if ok {
		t.Fatal("first delivery through a dead relay must fail")
	}
	if c.nextHop[2] != 0 {
		t.Fatalf("orphan scan should re-route 2 → 0, got %d", c.nextHop[2])
	}
	if c.Rejoins == 0 {
		t.Fatal("rejoin not counted")
	}
	// Second delivery now skips node 1: A→C.
	hops, ok := deliver(c, 3, perfect, rng)
	if !ok || hops != 3 {
		t.Fatalf("post-repair delivery hops=%d ok=%v, want 3 hops", hops, ok)
	}

	// Recovery: B broadcasts, node 2 re-adds it: A→B→C again.
	c.SetAlive(1, true)
	if c.nextHop[2] != 1 || c.nextHop[1] != 0 {
		t.Fatalf("recovery should restore routing: next(2)=%d next(1)=%d",
			c.nextHop[2], c.nextHop[1])
	}
	hops, ok = deliver(c, 3, perfect, rng)
	if !ok || hops != 4 {
		t.Fatalf("restored delivery hops=%d ok=%v, want 4", hops, ok)
	}
}

func TestChainDeadSourceCannotSend(t *testing.T) {
	c := NewChain(3)
	c.SetAlive(2, false)
	if _, ok := deliver(c, 2, LinkModel{SuccessRate: 1}, rand.New(rand.NewSource(3))); ok {
		t.Fatal("dead node must not transmit")
	}
}

func TestChainLossyLink(t *testing.T) {
	c := NewChain(10)
	rng := rand.New(rand.NewSource(4))
	lossy := LinkModel{SuccessRate: 0.5}
	delivered := 0
	const tries = 2000
	for i := 0; i < tries; i++ {
		if _, ok := deliver(c, 9, lossy, rng); ok {
			delivered++
		}
	}
	// 10 hops at 50% each ≈ 0.098% end-to-end.
	rate := float64(delivered) / tries
	if rate > 0.01 {
		t.Fatalf("end-to-end rate %v too high for 0.5^10", rate)
	}
}

// Property: after any liveness churn, every alive node's eventual route
// reaches the sink in at most n transmissions once repairs settle.
func TestChainRoutingConverges(t *testing.T) {
	f := func(ops []uint8) bool {
		c := NewChain(8)
		rng := rand.New(rand.NewSource(99))
		perfect := LinkModel{SuccessRate: 1}
		for _, op := range ops {
			i := int(op % 8)
			c.SetAlive(i, op%2 == 0)
		}
		for i := 0; i < 8; i++ {
			if !c.alive[i] {
				continue
			}
			// At most n repair-failures before a clean route emerges.
			ok := false
			for try := 0; try < 9 && !ok; try++ {
				_, ok = deliver(c, i, perfect, rng)
			}
			if !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDensifiedKeepsAnchors(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d := DensifiedDeployment(10, 90, 4, 4, rng)
	base := LineDeployment(10, 90)
	for i := range base {
		if d[i] != base[i] {
			t.Fatalf("anchor %d moved", i)
		}
	}
	// factor < 2 returns the plain line.
	if got := DensifiedDeployment(10, 90, 1, 4, rng); len(got) != 10 {
		t.Fatal("factor 1 should return the base deployment")
	}
}

// ARQ: with a retry budget, a transiently lossy hop delivers on the
// resend instead of dropping, and the retransmission is accounted.
func TestDeliverDetailARQRecovers(t *testing.T) {
	c := NewChain(3)
	// A 50% link loses plenty of first trials; ARQ with a generous budget
	// should deliver essentially everything.
	link := LinkModel{SuccessRate: 0.5}
	rng := rand.New(rand.NewSource(7))
	delivered, retx := 0, 0
	for i := 0; i < 500; i++ {
		d := c.DeliverDetail(2, link, rng, DeliverOpts{Retries: 10})
		if d.OK {
			delivered++
		}
		retx += d.Retransmits
	}
	if delivered < 490 {
		t.Fatalf("ARQ delivered %d/500 on a 50%% link with budget 10", delivered)
	}
	if retx == 0 {
		t.Fatal("ARQ delivered everything without a single retransmission")
	}
}

// A refused retry (the hop cannot afford it) loses the packet exactly as
// an exhausted budget does, and PayRetry sees 1-based ordinals.
func TestDeliverDetailPayRetryRefusal(t *testing.T) {
	c := NewChain(2)
	link := LinkModel{SuccessRate: 0} // every trial fails
	rng := rand.New(rand.NewSource(1))
	var ordinals []int
	d := c.DeliverDetail(1, link, rng, DeliverOpts{
		Retries: 5,
		PayRetry: func(hop, attempt int) bool {
			if hop != 1 {
				t.Fatalf("retrying hop = %d, want 1", hop)
			}
			ordinals = append(ordinals, attempt)
			return attempt < 3 // afford two retries, refuse the third
		},
	})
	if d.OK || d.Retransmits != 2 || d.Hops != 3 {
		t.Fatalf("refused retry: %+v, want lost after 2 retransmits / 3 hops", d)
	}
	if len(ordinals) != 3 || ordinals[0] != 1 || ordinals[2] != 3 {
		t.Fatalf("PayRetry ordinals = %v, want [1 2 3]", ordinals)
	}
}

// Route repair: a packet that hits a dead relay is resent around the whole
// dead span instead of being lost, consuming one retry.
func TestDeliverDetailRouteRepair(t *testing.T) {
	c := NewChain(5)
	c.SetAlive(3, false)
	c.SetAlive(2, false) // multi-node dead span between 4 and 1
	link := LinkModel{SuccessRate: 1}
	rng := rand.New(rand.NewSource(1))

	// Without repair the stale pointer eats the packet.
	d := c.DeliverDetail(4, link, rng, DeliverOpts{})
	if d.OK || !d.Orphaned {
		t.Fatalf("no-repair delivery = %+v, want orphaned loss", d)
	}

	// Reset the chain (pointers were repaired by the orphan scan above).
	c = NewChain(5)
	c.SetAlive(3, false)
	c.SetAlive(2, false)
	d = c.DeliverDetail(4, link, rng, DeliverOpts{Retries: 2, RepairRoute: true})
	if !d.OK || d.Retransmits != 1 || d.Orphaned {
		t.Fatalf("repair delivery = %+v, want delivered with 1 retransmit", d)
	}
	if c.nextHop[4] != 1 {
		t.Fatalf("NextHop(4) = %d after repair, want 1 (around the dead span)", c.nextHop[4])
	}
}

// Heal repairs every stale pointer proactively so no later delivery hits a
// corpse, and re-admitted nodes are re-adopted by SetAlive as before.
func TestChainHeal(t *testing.T) {
	c := NewChain(6)
	c.SetAlive(2, false)
	c.SetAlive(3, false)
	if n := c.Heal(); n != 1 {
		t.Fatalf("Heal repaired %d pointers, want 1 (node 4's)", n)
	}
	if c.nextHop[4] != 1 {
		t.Fatalf("NextHop(4) = %d after heal, want 1", c.nextHop[4])
	}
	if n := c.Heal(); n != 0 {
		t.Fatalf("second Heal repaired %d pointers, want 0", n)
	}
	// Delivery over the healed chain never orphans.
	rng := rand.New(rand.NewSource(3))
	d := c.DeliverDetail(5, LinkModel{SuccessRate: 1}, rng, DeliverOpts{})
	if !d.OK || d.Orphaned {
		t.Fatalf("healed delivery = %+v, want clean arrival", d)
	}
	// Recovery re-admission still works.
	c.SetAlive(3, true)
	if c.nextHop[4] != 3 {
		t.Fatalf("NextHop(4) = %d after re-admission, want 3", c.nextHop[4])
	}
}

// The retry schedule is doubly bounded and exponential.
func TestRetrySchedule(t *testing.T) {
	s := NewRetrySchedule(10, 4, 1000)
	if s.Len() != 4 || s.Wait(1) != 10 || s.Wait(2) != 20 || s.Wait(4) != 80 {
		t.Fatalf("schedule = %d waits, %v %v ... %v", s.Len(), s.Wait(1), s.Wait(2), s.Wait(s.Len()))
	}
	if s.Total() != 150 {
		t.Fatalf("Total = %v, want 150", s.Total())
	}
	// The hold bound truncates: 10+20+40 = 70 fits a 75-tick hold, 80 not.
	if s := NewRetrySchedule(10, 10, 75); s.Len() != 3 || s.Total() != 70 {
		t.Fatalf("held schedule = %d waits / %v total, want 3 / 70", s.Len(), s.Total())
	}
	// Zero base: immediate retransmits up to the budget.
	if s := NewRetrySchedule(0, 3, 0); s.Len() != 3 || s.Total() != 0 {
		t.Fatalf("free schedule = %d waits / %v total, want 3 / 0", s.Len(), s.Total())
	}
	// Negative hold forbids retries.
	if s := NewRetrySchedule(10, 3, -1); s.Len() != 0 {
		t.Fatalf("negative hold allowed %d retries", s.Len())
	}
}

// deliver is one fire-and-forget relay attempt: DeliverDetail with the
// zero options.
func deliver(c *Chain, i int, link LinkModel, rng *rand.Rand) (hops int, ok bool) {
	d := c.DeliverDetail(i, link, rng, DeliverOpts{})
	return d.Hops, d.OK
}

// RouteToSink returns the relay sequence from node i to the sink given the
// current liveness (excluding i, ending at -1).
func (c *Chain) RouteToSink(i int) []int {
	var path []int
	cur := i
	for {
		next := c.nextHop[cur]
		path = append(path, next)
		if next == -1 {
			return path
		}
		cur = next
	}
}
