package router

import (
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
)

// ring is a consistent-hash ring over shard indices. Each shard owns
// Replicas virtual points on a 64-bit circle; a routing key hashes to a
// point and is owned by the first shard point clockwise from it. The
// construction is fully deterministic — points derive from shard names
// alone — so every router instance (and every test) agrees on the
// key→shard mapping, and adding or removing one shard moves only the
// keys that hashed into the arcs that shard owned (≈1/N of the space),
// never the keys parked on surviving shards. That minimal-motion
// property is what keeps the shards' content-addressed caches warm
// through topology changes.
type ring struct {
	points []ringPoint // sorted by hash
	shards int         // the shard count, fixed when the ring is built
}

type ringPoint struct {
	hash  uint64
	shard int // index into the router's shard slice
}

// hashKey maps an arbitrary routing key onto the circle. FNV-1a/64 is
// stable across processes and platforms (unlike hash/maphash), which the
// affinity contract requires — but its raw output clusters for the
// short, similar strings virtual points are named with (measured: one of
// three shards owning >50% of the circle at 256 vnodes), so the result
// is pushed through a splitmix64-style finalizer to spread it uniformly.
func hashKey(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return mix64(h.Sum64())
}

// mix64 is the splitmix64 output finalizer: a fixed bijective scramble
// with full avalanche, as stable across platforms as the constants in
// it.
func mix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// newRing builds the ring from shard names. Virtual points smooth the
// load split: with replicas≈64 the largest shard owns within a few
// percent of 1/N of the keyspace.
func newRing(names []string, replicas int) *ring {
	r := &ring{points: make([]ringPoint, 0, len(names)*replicas), shards: len(names)}
	for i, name := range names {
		for v := 0; v < replicas; v++ {
			r.points = append(r.points, ringPoint{
				hash:  hashKey(fmt.Sprintf("%s#%d", name, v)),
				shard: i,
			})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		return r.points[a].shard < r.points[b].shard // total order on (unlikely) collisions
	})
	return r
}

// sequence returns every shard in ring order starting at key's owner,
// deduplicated — the retry order for a degraded primary. The slice is
// freshly allocated per call and is the call's only allocation: a shard
// is new when the short result does not hold it yet.
func (r *ring) sequence(key string) []int {
	start := r.search(hashKey(key))
	out := make([]int, 0, r.shards)
	for i := 0; i < len(r.points) && len(out) < r.shards; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !slices.Contains(out, p.shard) {
			out = append(out, p.shard)
		}
	}
	return out
}

func (r *ring) search(h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		return 0
	}
	return i
}
