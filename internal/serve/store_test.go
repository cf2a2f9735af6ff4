package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// fakeDoneJob builds a done job with a synthetic canonical key for
// driving the result store directly, without a Server.
func fakeDoneJob(i int) *job {
	sum := sha256.Sum256([]byte(fmt.Sprintf("fake-key-%d", i)))
	key := hex.EncodeToString(sum[:])
	j := warmJob(indexEntry{
		Key: key, ID: jobID(key), Kind: KindSimulate, Status: StatusDone,
		SubmittedAt: fixedTime, StartedAt: fixedTime, FinishedAt: fixedTime,
	})
	return j
}

// fakeBody derives a deterministic pseudo-random body for key index i.
func fakeBody(rng *rand.Rand, i int) []byte {
	n := 1 + rng.Intn(2048)
	b := make([]byte, n)
	sub := rand.New(rand.NewSource(int64(i) * 7919))
	sub.Read(b)
	return b
}

// checkStoreInvariants recomputes the store's accounting from scratch
// and cross-checks it against the incremental counters, the budget, and
// the filesystem.
func checkStoreInvariants(t *testing.T, rs *resultStore, lastPutSize int64) {
	t.Helper()
	var mem, disk, total int64
	var memCount int
	for id, j := range rs.table {
		key := j.key
		if id != jobID(key) {
			t.Fatalf("entry filed as %s wraps job %s", id, key)
		}
		total += j.size
		if j.result != nil {
			mem += j.size
			memCount++
			if int64(len(j.result)) != j.size {
				t.Fatalf("entry %s: resident %d bytes, accounted %d", key, len(j.result), j.size)
			}
		}
		if j.onDisk {
			disk += j.size
			if _, err := os.Stat(rs.resultPath(key)); err != nil {
				t.Fatalf("entry %s claims onDisk but: %v", key, err)
			}
		}
		if j.result == nil && !j.onDisk {
			t.Fatalf("entry %s is in neither tier — a lost verified entry", key)
		}
	}
	if mem != rs.memBytes || disk != rs.diskBytes || total != rs.total || memCount != rs.memCount {
		t.Fatalf("accounting drift: recomputed mem=%d disk=%d total=%d count=%d, store says %d/%d/%d/%d",
			mem, disk, total, memCount, rs.memBytes, rs.diskBytes, rs.total, rs.memCount)
	}
	// The budget binds always, with one sanctioned exception: the entry
	// just written survives until the next put even if oversized.
	if rs.budget > 0 && rs.total > rs.budget && !(len(rs.table) == 1 && lastPutSize > rs.budget) {
		t.Fatalf("total %d exceeds budget %d with %d entries", rs.total, rs.budget, len(rs.table))
	}
	if rs.memCount > rs.memLimit {
		t.Fatalf("memory tier holds %d bodies, limit %d", rs.memCount, rs.memLimit)
	}
	if rs.dir == "" {
		return // no disk tier, no directory to scan
	}
	// No stray files: everything in the dir is the index or a cataloged
	// entry (temp files may only exist transiently inside a write).
	des, err := os.ReadDir(rs.dir)
	if err != nil {
		t.Fatalf("read cache dir: %v", err)
	}
	for _, de := range des {
		name := de.Name()
		if name == indexFileName {
			continue
		}
		if !isHexKey(name) {
			t.Fatalf("stray file %s in cache dir", name)
		}
		if j, ok := rs.table[jobID(name)]; !ok || j.key != name || !j.onDisk {
			t.Fatalf("file %s exists but is not a cataloged disk entry", name)
		}
	}
}

// TestStoreRandomOpsProperty interleaves put / promote / demote /
// restart under a byte budget, for several (budget, memLimit) shapes,
// and asserts after every operation that the budget is never exceeded
// and no verified entry is ever lost: every key the store did not
// explicitly evict remains retrievable with its exact original bytes —
// including across a full store reopen. An entry leaves the job table
// only as an eviction that cache_evictions_total counts. The shapes
// without a disk tier have nothing to reopen, and there the store must
// make no filesystem call at all.
func TestStoreRandomOpsProperty(t *testing.T) {
	shapes := []struct {
		budget   int64
		memLimit int
		noDisk   bool
	}{
		{0, 4, false},    // unlimited bytes, tight memory: demotion pressure
		{6000, 2, false}, // both bounds active
		{2500, 1, false}, // aggressive eviction, single resident body
		{100, 3, false},  // budget smaller than most bodies: constant turnover
		{0, 3, true},     // no disk tier, count bound only: LRU eviction
		{2500, 4, true},  // no disk tier, the byte budget binds first
	}
	for si, shape := range shapes {
		name := fmt.Sprintf("budget=%d,mem=%d", shape.budget, shape.memLimit)
		if shape.noDisk {
			name += ",disk=off"
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			var fs FS = OSFS()
			noFS := NewFaultFS(OSFS(), 1) // counts the calls a store without a disk tier makes
			if shape.noDisk {
				dir, fs = "", noFS
				noFS.FailNext(math.MaxInt)
			}
			rng := rand.New(rand.NewSource(int64(si)*101 + 17))
			m := newMetrics(Config{}, nil)
			table := map[string]*job{}
			rs, warm := newResultStore(dir, shape.budget, shape.memLimit, table, fs, newBreaker(3, time.Minute, time.Now, m), m)
			if len(warm) != 0 {
				t.Fatalf("cold dir produced %d warm entries", len(warm))
			}

			jobs := map[string]*job{}     // live key → job
			bodies := map[string][]byte{} // live key → expected bytes
			var lastPut int64
			nextID := 0

			randLive := func() *job {
				for _, j := range jobs {
					return j
				}
				return nil
			}

			const ops = 300
			for op := 0; op < ops; op++ {
				evictedBefore := m.counter("cache_evictions_total")
				switch r := rng.Intn(10); {
				case r < 5: // put a fresh entry
					j := fakeDoneJob(nextID)
					body := fakeBody(rng, nextID)
					nextID++
					rs.put(j, body)
					jobs[j.key] = j
					bodies[j.key] = body
					lastPut = int64(len(body))
				case r < 8 || shape.noDisk: // promote (read) a random live entry
					j := randLive()
					if j == nil {
						continue
					}
					if !rs.promote(j) {
						t.Fatalf("op %d: live entry %s failed promotion", op, j.key)
					}
					if !bytes.Equal(j.result, bodies[j.key]) {
						t.Fatalf("op %d: promoted bytes differ for %s", op, j.key)
					}
				default: // restart: reopen the store from disk
					m, table, evictedBefore = newMetrics(Config{}, nil), map[string]*job{}, 0
					reopened, warm := newResultStore(dir, shape.budget, shape.memLimit, table, OSFS(), newBreaker(3, time.Minute, time.Now, m), m)
					seen := map[string]bool{}
					adopted := map[string]*job{}
					for _, e := range warm {
						body, ok := bodies[e.Key]
						if !ok {
							t.Fatalf("op %d: reopen surfaced unknown key %s", op, e.Key)
						}
						if e.Size != int64(len(body)) {
							t.Fatalf("op %d: reopen entry %s size %d, want %d", op, e.Key, e.Size, len(body))
						}
						j := warmJob(e)
						reopened.adopt(j, e)
						adopted[e.Key] = j
						seen[e.Key] = true
					}
					// Every durable entry must have survived into the warm
					// set; memory-only entries cannot exist here because no
					// writes fail in this test.
					for _, e := range rs.table {
						if !e.onDisk {
							t.Fatalf("op %d: unexpected memory-only entry %s", op, e.key)
						}
						if !seen[e.key] {
							t.Fatalf("op %d: durable entry %s lost across restart", op, e.key)
						}
					}
					// The budget may bind tighter than the persisted set (an
					// oversized final put is durable but over budget); trim
					// LRU-first exactly as Server.New does on warm boot.
					reopened.evictOverflow(nil)
					reopened.flushIndex()
					jobs = adopted
					rs = reopened
					lastPut = 0
				}
				// Every live job the table no longer files was evicted, and
				// each eviction was counted.
				evicted := int64(0)
				for key, j := range jobs {
					if table[j.id] != j {
						evicted++
						delete(jobs, key)
						delete(bodies, key)
					}
				}
				if got := m.counter("cache_evictions_total") - evictedBefore; got != evicted {
					t.Fatalf("op %d: %d jobs left the table, cache_evictions_total rose by %d", op, evicted, got)
				}
				checkStoreInvariants(t, rs, lastPut)
				// The table holds exactly the live set: nothing entered it
				// that the test did not put or adopt.
				if len(table) != len(jobs) {
					t.Fatalf("op %d: table holds %d jobs, %d live", op, len(table), len(jobs))
				}
				if ops, _ := noFS.Stats(); ops != 0 {
					t.Fatalf("op %d: a store without a disk tier made %d filesystem calls", op, ops)
				}
			}

			// Endgame: every surviving entry must still verify and match.
			for key, j := range jobs {
				if !rs.promote(j) {
					t.Fatalf("final: live entry %s failed promotion", key)
				}
				if !bytes.Equal(j.result, bodies[key]) {
					t.Fatalf("final: bytes differ for %s", key)
				}
			}
		})
	}
}

// TestIndexCodecRoundTrip pins decode(encode(f)) == f for a
// representative catalog and the canonical-form fixed point.
func TestIndexCodecRoundTrip(t *testing.T) {
	key1 := hexKeyFor("a")
	key2 := hexKeyFor("b")
	f := indexFile{Version: indexVersion, Entries: []indexEntry{
		{
			Key: key1, ID: jobID(key1), Kind: KindSimulate, Status: StatusDone,
			Hits: 3, Size: 1234, BodySHA256: hexKeyFor("body"),
			SubmittedAt: fixedTime, StartedAt: fixedTime, FinishedAt: fixedTime.Add(time.Second),
			LastUsed: 7,
		},
		{Key: key2, ID: jobID(key2), Kind: KindExperiment, Status: StatusFailed, SubmittedAt: fixedTime},
	}}
	b, err := encodeIndex(f)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := decodeIndex(b)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	b2, err := encodeIndex(got)
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if !bytes.Equal(b, b2) {
		t.Fatalf("codec is not a fixed point:\n%s\nvs\n%s", b, b2)
	}
}

// TestIndexCodecRejects enumerates malformed catalogs the decoder must
// refuse outright; each would otherwise let an unverifiable entry warm.
func TestIndexCodecRejects(t *testing.T) {
	key := hexKeyFor("x")
	valid := func() indexFile {
		return indexFile{Version: indexVersion, Entries: []indexEntry{{
			Key: key, ID: jobID(key), Kind: KindSimulate, Status: StatusDone,
			Size: 10, BodySHA256: hexKeyFor("body"), SubmittedAt: fixedTime,
		}}}
	}
	cases := map[string]func() ([]byte, error){
		"not json":      func() ([]byte, error) { return []byte("]["), nil },
		"wrong version": func() ([]byte, error) { f := valid(); f.Version = 99; b, e := encodeIndexRaw(f); return b, e },
		"bad key":       func() ([]byte, error) { f := valid(); f.Entries[0].Key = "nope"; return encodeIndexRaw(f) },
		"id mismatch":   func() ([]byte, error) { f := valid(); f.Entries[0].ID = "j-0000000000000000"; return encodeIndexRaw(f) },
		"bad status":    func() ([]byte, error) { f := valid(); f.Entries[0].Status = "perhaps"; return encodeIndexRaw(f) },
		"negative size": func() ([]byte, error) { f := valid(); f.Entries[0].Size = -1; return encodeIndexRaw(f) },
		"bad body hash": func() ([]byte, error) { f := valid(); f.Entries[0].BodySHA256 = "zz"; return encodeIndexRaw(f) },
		"duplicate key": func() ([]byte, error) {
			f := valid()
			f.Entries = append(f.Entries, f.Entries[0])
			return encodeIndexRaw(f)
		},
		"done with size, no hash": func() ([]byte, error) {
			f := valid()
			f.Entries[0].BodySHA256 = ""
			return encodeIndexRaw(f)
		},
	}
	for name, build := range cases {
		b, err := build()
		if err != nil {
			t.Fatalf("%s: build: %v", name, err)
		}
		if _, err := decodeIndex(b); err == nil {
			t.Errorf("%s: decoder accepted a malformed index", name)
		}
	}
}

// encodeIndexRaw marshals without encodeIndex's normalization, so the
// rejection tests can produce byte streams the encoder itself would
// never emit.
func encodeIndexRaw(f indexFile) ([]byte, error) {
	return json.MarshalIndent(f, "", "  ")
}

func hexKeyFor(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// TestAtomicWriteFile pins the primitive: content lands whole, replaces
// prior content, and leaves no temp debris.
func TestAtomicWriteFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	for _, content := range []string{"first", "second, longer than before"} {
		if err := atomicWriteFile(OSFS(), path, []byte(content)); err != nil {
			t.Fatalf("atomicWriteFile: %v", err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("read back: %v", err)
		}
		if string(got) != content {
			t.Fatalf("read %q, want %q", got, content)
		}
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp debris left behind: %v", err)
	}
}
