package router

import (
	"fmt"
	"testing"
)

// testKeys generates n deterministic routing-key-shaped strings.
func testKeys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%016x", uint64(i)*0x9e3779b97f4a7c15)
	}
	return out
}

// Two independently built rings over the same names must agree on every
// key — the property that lets any number of router instances (and the
// tests) share one view of the cluster.
func TestRingDeterministic(t *testing.T) {
	names := []string{"a", "b", "c"}
	r1 := newRing(names, 64)
	r2 := newRing(names, 64)
	for _, k := range testKeys(2000) {
		if r1.owner(k) != r2.owner(k) {
			t.Fatalf("rings disagree on %q: %d vs %d", k, r1.owner(k), r2.owner(k))
		}
	}
}

// Adding a shard may move keys only onto the new shard; removing one may
// move only the keys it owned. Keys parked on surviving shards must not
// move — that is the cache-warmth contract the ring exists for.
func TestRingRebalanceMinimalMotion(t *testing.T) {
	keys := testKeys(5000)
	three := []string{"shard-0", "shard-1", "shard-2"}
	four := []string{"shard-0", "shard-1", "shard-2", "shard-3"}

	rThree := newRing(three, 64)
	rFour := newRing(four, 64)

	moved := 0
	for _, k := range keys {
		before, after := rThree.owner(k), rFour.owner(k)
		if before == after {
			continue
		}
		moved++
		if after != 3 {
			t.Fatalf("key %q moved from shard %d to shard %d on join — only the joining shard may gain keys", k, before, after)
		}
	}
	// The new shard should take roughly 1/4 of the keyspace; allow a wide
	// band, the point is "some but not most".
	if moved == 0 || moved > len(keys)/2 {
		t.Fatalf("join moved %d of %d keys; expected a minority but nonzero share", moved, len(keys))
	}

	// Leave: going 4 → 3 must move exactly the departed shard's keys, and
	// every other key stays put (the two directions are the same ring
	// pair, so this also pins down that owners are stable, not just that
	// motion is bounded).
	for _, k := range keys {
		before, after := rFour.owner(k), rThree.owner(k)
		if before == 3 {
			if after == 3 {
				t.Fatalf("key %q still owned by removed shard", k)
			}
			continue
		}
		if before != after {
			t.Fatalf("key %q moved from surviving shard %d to %d on leave", k, before, after)
		}
	}
}

// With 64 virtual points per shard the split should be reasonably even:
// no shard starved, none hoarding.
func TestRingDistribution(t *testing.T) {
	names := []string{"a", "b", "c"}
	r := newRing(names, 64)
	counts := make([]int, len(names))
	keys := testKeys(9000)
	for _, k := range keys {
		counts[r.owner(k)]++
	}
	for i, c := range counts {
		frac := float64(c) / float64(len(keys))
		if frac < 0.15 || frac > 0.55 {
			t.Errorf("shard %d owns %.1f%% of keys; want a roughly even split", i, frac*100)
		}
	}
}

// sequence must start at the owner, visit every shard exactly once, and
// agree across calls — it is the retry order for degraded primaries.
func TestRingSequence(t *testing.T) {
	r := newRing([]string{"a", "b", "c", "d"}, 64)
	for _, k := range testKeys(200) {
		seq := r.sequence(k)
		if len(seq) != 4 {
			t.Fatalf("sequence(%q) = %v; want all 4 shards", k, seq)
		}
		if seq[0] != r.owner(k) {
			t.Fatalf("sequence(%q) starts at %d, owner is %d", k, seq[0], r.owner(k))
		}
		seen := map[int]bool{}
		for _, s := range seq {
			if seen[s] {
				t.Fatalf("sequence(%q) repeats shard %d: %v", k, s, seq)
			}
			seen[s] = true
		}
	}
}

// owner returns the shard owning key: the first point at or clockwise of
// the key's hash, wrapping at the top of the circle.
func (r *ring) owner(key string) int {
	return r.points[r.search(hashKey(key))].shard
}
