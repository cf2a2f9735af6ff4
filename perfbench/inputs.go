package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"

	"neofog"
	"neofog/internal/serve"
)

// Workload shapes. Every request sequence below is a pure function of the
// seed; the program under test only ever sees the generated bodies.
const (
	hotSetSize = 64
	// hotReadSeq is each hot-read client's sequence length; a client
	// cycles through it for as long as the window lasts.
	hotReadSeq = 1 << 16
	// writeMixRate sets write-mix's request count: writeMixRate × seconds,
	// about one window's worth at the rate measured when the benchmark was
	// defined. A count, not a duration, so every commit grows each
	// shard's cache by the same number of entries.
	writeMixRate = 320
	// missEvery makes one write-mix request in missEvery a miss.
	missEvery = 4
	// verifySample is how many write-mix misses are recomputed through
	// the facade after the window and byte-compared with the served
	// result.
	verifySample = 48
)

var systems = []neofog.System{neofog.SystemVP, neofog.SystemNVP, neofog.SystemNEOFog}

// serveInputs is one serve workload's pinned input: the hot set, the
// never-seen miss configs, and each client's request sequence.
type serveInputs struct {
	hot        []neofog.SimulationConfig
	hotBodies  [][]byte
	misses     []neofog.SimulationConfig
	missBodies [][]byte
	// clients[c] is client c's sequence: an entry i ≥ 0 submits hot[i],
	// an entry i < 0 submits misses[-i-1].
	clients [][]int32
	// verify lists the miss indices recomputed after the window.
	verify []int
	digest string
}

// drawConfig draws one simulate config over nodes 4–10, rounds 30–300
// and all three systems.
func drawConfig(rng *rand.Rand) neofog.SimulationConfig {
	return neofog.SimulationConfig{
		System: systems[rng.Intn(len(systems))],
		Nodes:  4 + rng.Intn(7),
		Rounds: 30 + rng.Intn(271),
		Seed:   1 + rng.Int63n(1<<40),
	}
}

// distinctConfigs draws n configs whose canonical keys differ from each
// other and from every key already in seen.
func distinctConfigs(rng *rand.Rand, n int, seen map[string]bool) ([]neofog.SimulationConfig, [][]byte, error) {
	cfgs := make([]neofog.SimulationConfig, 0, n)
	bodies := make([][]byte, 0, n)
	for len(cfgs) < n {
		cfg := drawConfig(rng)
		body, err := json.Marshal(serve.Request{Config: &cfg})
		if err != nil {
			return nil, nil, err
		}
		key, err := neofog.ConfigHash(cfg)
		if err != nil {
			return nil, nil, err
		}
		if seen[key] {
			continue
		}
		seen[key] = true
		cfgs = append(cfgs, cfg)
		bodies = append(bodies, body)
	}
	return cfgs, bodies, nil
}

// buildServeInputs generates a serve workload's inputs from the seed.
// hot-read: each client cycles a uniform draw from the hot set.
// write-mix: writeMixRate×seconds requests, exactly one in missEvery a
// never-seen miss, shuffled and dealt round-robin to the clients.
func buildServeInputs(workload string, seed int64, seconds, clients int) (*serveInputs, error) {
	rng := rand.New(rand.NewSource(seed))
	seen := map[string]bool{}
	in := &serveInputs{clients: make([][]int32, clients)}
	var err error
	if in.hot, in.hotBodies, err = distinctConfigs(rng, hotSetSize, seen); err != nil {
		return nil, err
	}
	switch workload {
	case "hot-read":
		for c := range in.clients {
			seq := make([]int32, hotReadSeq)
			for i := range seq {
				seq[i] = int32(rng.Intn(hotSetSize))
			}
			in.clients[c] = seq
		}
	case "write-mix":
		total := writeMixRate * seconds
		nMiss := total / missEvery
		if in.misses, in.missBodies, err = distinctConfigs(rng, nMiss, seen); err != nil {
			return nil, err
		}
		ops := make([]int32, total)
		for i := range ops {
			if i < nMiss {
				ops[i] = int32(-i - 1)
			} else {
				ops[i] = int32(rng.Intn(hotSetSize))
			}
		}
		rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
		for i, op := range ops {
			in.clients[i%clients] = append(in.clients[i%clients], op)
		}
		in.verify = rng.Perm(nMiss)[:min(verifySample, nMiss)]
	default:
		return nil, fmt.Errorf("no serve inputs for workload %q", workload)
	}
	in.digest = in.computeDigest()
	return in, nil
}

// computeDigest hashes every request body and every client sequence, so
// two runs that print the same digest replayed the same work.
func (in *serveInputs) computeDigest() string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, bodies := range [][][]byte{in.hotBodies, in.missBodies} {
		put(uint64(len(bodies)))
		for _, b := range bodies {
			put(uint64(len(b)))
			h.Write(b)
		}
	}
	for _, seq := range in.clients {
		put(uint64(len(seq)))
		for _, op := range seq {
			put(uint64(int64(op)))
		}
	}
	put(uint64(len(in.verify)))
	for _, v := range in.verify {
		put(uint64(v))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// sweepOrder is paper-sweep's input: the order the artifacts run in
// within each set, a seeded permutation. The artifacts themselves are
// always the published seed-1 runs, so their bytes never depend on the
// benchmark seed.
func sweepOrder(seed int64) ([]string, string) {
	ids := neofog.ExperimentIDs()
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	h := sha256.New()
	for _, id := range ids {
		h.Write([]byte(id))
		h.Write([]byte{0})
	}
	return ids, hex.EncodeToString(h.Sum(nil))
}
