package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// resultFileMagic heads every persisted result body. The full header
// line is
//
//	neofog-result v2 <key> <sha256-of-body> <body-len> <kind> <submitted_at> <started_at> <finished_at>\n
//
// with the times in RFC 3339 nano (the index's JSON form, so they
// round-trip byte-identically), followed by the body bytes verbatim.
// Every cache file is therefore self-verifying — read-back checks the
// filename against the embedded key, the length against the embedded
// length, and the body against the embedded hash before a byte is
// served — and self-describing: the header is the entry's whole catalog
// record bar hits and LRU position, so boot can adopt a file the index
// does not list yet.
const resultFileMagic = "neofog-result v2"

// resultFileMagicV1 heads bodies written before headers carried their
// catalog record (key, hash and length only). They are still read back
// for entries the index lists, but never adopted from their header.
const resultFileMagicV1 = "neofog-result v1"

// indexFileName is the disk tier's catalog inside CacheDir. Result
// bodies live beside it under their canonical key.
const indexFileName = "index.json"

// resultStore places done-result bodies across two tiers: the memory
// tier (job.result, the bytes served verbatim) and the disk tier
// (CacheDir/<key> files written through on completion). With no
// directory the disk tier is off and the memory tier holds the only
// copy, so a body pushed past either bound is evicted with its job. The
// store keeps no map of its own: it shares the owning Server's job table,
// where every done job is a retained result, and dropping a result
// deletes its job from the table. The store's record of a result — its
// size, body hash, on-disk flag and LRU stamp — lives on the job. The
// store is a bookkeeping layer, not a lock domain: every method is called
// with the owning Server's mutex held, so fields need no locking of their
// own.
//
// Tier invariants:
//
//   - write-through: a retained entry's bytes are on disk (crash-safe
//     temp+fsync+rename+dir fsync, one file carrying its own catalog
//     record) unless the persist failed or was skipped by an open
//     circuit breaker, in which case the entry is memory-only and
//     counted by disk_write_errors_total / breaker_skipped_total;
//   - the catalog (index.json) is written only at boot and at drain:
//     files written in between are found by their headers at the next
//     boot, so a put costs one file commit, not a catalog rewrite;
//   - the memory tier is a cache over disk: demotion just drops the RAM
//     copy, promotion reads it back and verifies it against the SHA-256
//     recorded at write time — corrupt or truncated files are discarded
//     and their jobs recomputed, never served;
//   - without a disk tier there is nothing to demote to: past the memory
//     bound the least-recently-used entry is evicted with its job;
//   - the byte budget spans both tiers, counting each entry once (the
//     durable copy); when exceeded, least-recently-used entries are
//     evicted entirely — file, RAM copy, and job — except the entry
//     just written, which survives until the next put even if oversized
//     so a completing job can always serve its own result;
//   - every filesystem touch goes through fs and is guarded by the
//     circuit breaker brk: repeated I/O errors trip it, tripped means
//     skipped (degraded, memory-only, still serving), and a successful
//     half-open probe closes it again and re-persists the backlog.
type resultStore struct {
	dir      string // result files + index live here; empty turns the disk tier off
	budget   int64  // total retained bytes across tiers; 0 = unlimited
	memLimit int    // max memory-resident bodies before demotion
	fs       FS
	brk      *breaker
	metrics  *metrics

	seq       int64           // LRU clock; monotone per store use
	table     map[string]*job // the Server's job table, by ID; its done jobs are the entries
	memCount  int
	memBytes  int64
	diskBytes int64
	total     int64 // each entry counted once, resident or not

	// crashHook, when non-nil, runs between a result file's fsynced temp
	// write and its rename; returning false aborts before the rename,
	// simulating a crash that leaves .tmp debris. Tests set it under the
	// server mutex; production never does.
	crashHook func(key string) bool
}

// errInjectedCrash marks a crashHook abort: a simulated process death,
// not a disk fault, so it must not feed the circuit breaker.
var errInjectedCrash = errors.New("serve: injected crash before rename")

// newResultStore opens (or creates) the disk tier at dir and returns the
// store plus the warm entries to serve: the index's entries whose files
// survived, in catalog (LRU) order, then every unlisted result file
// adopted from its own v2 header, oldest finish first. Boot is the
// recovery point of the crash-safety story: stale .tmp debris is swept,
// an unlisted file is deleted unless its header is v2, names that key
// and a known kind, and holds a record the index would accept (an
// unreadable one is left for a later boot), and a mangled index resets
// the tier — every file is removed and the daemon starts cold rather
// than trust an unverifiable catalog. Bodies are NOT verified here;
// entries warm lazily, on first hit. Only unlisted files — those
// written since the last boot or drain — are read at all, and only for
// their header.
//
// Boot never fails the daemon: a cache directory that cannot even be
// created or listed trips the breaker immediately and the store opens
// cold and degraded — the service runs memory-only and the breaker's
// probes keep trying the disk. An empty dir opens the store with its
// disk tier off: nothing is read, and nothing is ever written. table is
// the job table the store shares with its Server.
func newResultStore(dir string, budget int64, memLimit int, table map[string]*job, fs FS, brk *breaker, m *metrics) (*resultStore, []indexEntry) {
	rs := &resultStore{
		dir: dir, budget: budget, memLimit: memLimit, table: table, fs: fs, brk: brk, metrics: m,
	}
	if dir == "" {
		return rs, nil
	}
	if err := fs.MkdirAll(dir); err != nil {
		brk.trip()
		return rs, nil
	}
	names, err := fs.ReadDir(dir)
	if err != nil {
		brk.trip()
		return rs, nil
	}
	present := map[string]bool{}
	for _, de := range names {
		name := de.Name()
		switch {
		case de.IsDir():
		case strings.HasSuffix(name, ".tmp"):
			fs.Remove(filepath.Join(dir, name)) // crash debris: never servable
		case isHexKey(name):
			present[name] = true
		}
	}

	var warm []indexEntry
	adoptable := true
	raw, err := fs.ReadFile(filepath.Join(dir, indexFileName))
	switch {
	case err != nil && os.IsNotExist(err):
		// Cold start, or a crash before the first boot's catalog write:
		// every file below must vouch for itself.
	case err != nil:
		// The catalog exists but cannot be read: a disk fault, not a
		// mangled file. Degrade rather than guess — the files stay put
		// for a later healthy boot to warm.
		brk.trip()
		return rs, nil
	default:
		idx, derr := decodeIndex(raw)
		if derr != nil {
			// Mangled index: the catalog (and its hashes) cannot be
			// trusted, so neither can any file it might have described.
			rs.metrics.indexResets.Add(1)
			adoptable = false
		} else {
			warm = idx.Entries
		}
	}

	indexed := map[string]bool{}
	kept := warm[:0]
	for _, e := range warm {
		if e.Status != StatusDone || !present[e.Key] {
			continue // only verified done bodies are servable, and only if the file survived
		}
		indexed[e.Key] = true
		kept = append(kept, e)
		if e.LastUsed > rs.seq {
			rs.seq = e.LastUsed
		}
	}
	var adopted []indexEntry
	for name := range present {
		if indexed[name] {
			continue
		}
		path := filepath.Join(dir, name)
		if !adoptable {
			fs.Remove(path)
			continue
		}
		raw, err := fs.ReadFile(path)
		if err != nil {
			continue // unreadable is not proven bad: a later boot retries it
		}
		// Only a v2 header names a kind, so v1 files are never adopted;
		// validate keeps a record the next boot's index decode would
		// reject (and reset the tier over) out of the catalog.
		e, _, err := parseResultFile(raw)
		e.ID, e.Status = jobID(name), StatusDone
		if err == nil && e.Key == name && knownKinds[e.Kind] && e.validate() == nil {
			adopted = append(adopted, e)
		} else {
			fs.Remove(path)
		}
	}
	// Unlisted files are newer than every catalog position; among
	// themselves they queue for LRU eviction in the order they finished.
	sort.Slice(adopted, func(i, k int) bool {
		a, b := adopted[i], adopted[k]
		if !a.FinishedAt.Equal(b.FinishedAt) {
			return a.FinishedAt.Before(b.FinishedAt)
		}
		return a.Key < b.Key
	})
	for i := range adopted {
		adopted[i].LastUsed = rs.tick()
	}
	return rs, append(kept, adopted...)
}

// knownKinds are the job kinds a result file may name.
var knownKinds = map[string]bool{KindSimulate: true, KindFleet: true, KindExperiment: true}

// adopt files a warm-boot job in the table against its index entry;
// bodies stay on disk until first use.
func (rs *resultStore) adopt(j *job, e indexEntry) {
	j.size, j.sum, j.onDisk, j.lastUsed = e.Size, e.BodySHA256, true, e.LastUsed
	rs.table[j.id] = j
	rs.diskBytes += e.Size
	rs.total += e.Size
}

func (rs *resultStore) tick() int64 {
	rs.seq++
	return rs.seq
}

// resultPath is the body file for a key.
func (rs *resultStore) resultPath(key string) string { return filepath.Join(rs.dir, key) }

// put retains a just-completed job's result: bytes into the memory tier,
// and with a disk tier hashed, written through and demoted past the
// memory bound. The bounds may evict other entries, which leave the
// table with their results; j itself stays.
func (rs *resultStore) put(j *job, body []byte) {
	j.result, j.size, j.lastUsed = body, int64(len(body)), rs.tick()
	rs.table[j.id] = j
	rs.memCount++
	rs.memBytes += j.size
	rs.total += j.size
	if rs.dir != "" {
		sum := sha256.Sum256(body)
		j.sum = hex.EncodeToString(sum[:])
		rs.persist(j)
		rs.demoteOverflow(j)
	}
	rs.evictOverflow(j)
	rs.sweepRecovered()
}

// evictOverflow evicts entries entirely — file, RAM copy and job — least
// recently used first, while the byte budget is exceeded or, with no disk
// tier to demote to, the memory bound is. keep is never evicted: a fresh
// entry survives until the next put even if oversized.
func (rs *resultStore) evictOverflow(keep *job) {
	for (rs.budget > 0 && rs.total > rs.budget) || (rs.dir == "" && rs.memCount > rs.memLimit) {
		victim := rs.lru(keep, false)
		if victim == nil {
			break
		}
		rs.dropEntry(victim)
		rs.metrics.cacheEvictions.Add(1)
	}
}

// promote makes j's result RAM-resident and most recently used, reading
// it back from disk and verifying it if demoted. It reports false when
// the result is lost (see load); the caller must recompute. A job the
// table no longer files is a stale pointer to a dropped entry: it is
// neither read back nor dropped again, which would subtract its bytes a
// second time.
func (rs *resultStore) promote(j *job) bool {
	if rs.table[j.id] != j {
		return j.result != nil
	}
	j.lastUsed = rs.tick()
	if j.result != nil {
		return true
	}
	if j.result = rs.load(j); j.result == nil {
		return false
	}
	rs.memCount++
	rs.memBytes += j.size
	rs.metrics.tierPromotions.Add(1)
	rs.demoteOverflow(j)
	rs.sweepRecovered()
	return true
}

// peek returns j's result for a listing without moving it between tiers
// or along the LRU order: the resident bytes, or a demoted body read back
// and verified but not kept. nil means the result was lost and dropped.
func (rs *resultStore) peek(j *job) []byte {
	if j.result != nil || rs.table[j.id] != j {
		return j.result
	}
	return rs.load(j)
}

// load reads j's demoted body back and verifies it. A lost body —
// missing, failing verification, or unreachable behind an open breaker —
// is dropped with its job (and its file, when reachable) and load
// returns nil; bad bytes are never returned.
func (rs *resultStore) load(j *job) []byte {
	body, err := rs.readResult(j)
	if err != nil {
		rs.metrics.tierMissesDisk.Add(1)
		if !os.IsNotExist(err) && !errors.Is(err, errDiskDegraded) {
			rs.metrics.diskCorrupt.Add(1)
		}
		rs.dropEntry(j)
	}
	return body
}

// demoteOverflow drops RAM copies, least recently used first, until the
// memory tier fits its bound; only a disk tier demotes. keep (the entry
// being served right now) is never demoted. An entry that never made it
// to disk is given one more persist attempt; if that fails too it stays
// resident — an overshoot bounded by the number of failing writes —
// because dropping its only copy would violate "never lose a verified
// entry". With the breaker open demotion stops entirely: nothing can be
// safely written out, so the memory tier overshoots its bound for the
// outage's duration.
func (rs *resultStore) demoteOverflow(keep *job) {
	guard := len(rs.table)
	for rs.memCount > rs.memLimit && guard > 0 {
		guard--
		victim := rs.lru(keep, true)
		if victim == nil {
			return
		}
		if !victim.onDisk {
			if err := rs.persist(victim); errors.Is(err, errDiskDegraded) {
				return // breaker open: stop demoting, overshoot until recovery
			} else if err != nil {
				victim.lastUsed = rs.tick() // stop reselecting the same unpersistable entry
				continue
			}
		}
		victim.result = nil
		victim.prefix = nil // rebuilt at first use after promotion, as for a warm-boot job
		rs.memCount--
		rs.memBytes -= victim.size
		rs.metrics.tierDemotions.Add(1)
	}
}

// sweepRecovered re-persists the outage backlog after a half-open probe
// closes the breaker: every memory-only entry is written through again,
// restoring the write-through invariant that held before the trip. A
// write failure during the sweep can re-trip the breaker, which simply
// ends the sweep early.
func (rs *resultStore) sweepRecovered() {
	if !rs.brk.takeRecovered() {
		return
	}
	for _, j := range rs.table {
		if j.onDisk || j.result == nil {
			continue
		}
		if errors.Is(rs.persist(j), errDiskDegraded) {
			break // re-tripped mid-sweep
		}
	}
}

// persist writes a resident entry through to the disk tier and records
// the outcome: on success the entry is on disk; a failed write (not one
// the open breaker skipped, which it counts itself) is counted.
func (rs *resultStore) persist(j *job) error {
	err := rs.writeResult(j)
	switch {
	case err == nil:
		j.onDisk = true
		rs.diskBytes += j.size
	case !errors.Is(err, errDiskDegraded):
		rs.metrics.diskWriteErrors.Add(1)
	}
	return err
}

// lru returns the least-recently-used entry other than keep, optionally
// restricted to RAM-resident entries; nil when no candidate exists. A
// job that is not done holds no entry.
func (rs *resultStore) lru(keep *job, memoryOnly bool) *job {
	var victim *job
	for _, j := range rs.table {
		if j == keep || j.status != StatusDone || (memoryOnly && j.result == nil) {
			continue
		}
		if victim == nil || j.lastUsed < victim.lastUsed {
			victim = j
		}
	}
	return victim
}

// dropEntry removes an entry from both tiers and the accounting, and
// its job from the table.
func (rs *resultStore) dropEntry(j *job) {
	if j.result != nil {
		j.result = nil
		rs.memCount--
		rs.memBytes -= j.size
	}
	if j.onDisk {
		rs.removeFile(rs.resultPath(j.key))
		rs.diskBytes -= j.size
	}
	rs.total -= j.size
	delete(rs.table, j.id)
}

// removeFile deletes one file under the breaker's guard; a missing file
// is success (the desired state holds), anything else feeds the breaker.
func (rs *resultStore) removeFile(path string) {
	if !rs.brk.allow() {
		rs.metrics.breakerSkipped.Add(1)
		return
	}
	err := rs.fs.Remove(path)
	if err != nil && os.IsNotExist(err) {
		err = nil
	}
	rs.brk.record(err)
}

// writeResult persists one resident entry crash-safely: its v2 header
// and body to <key>.tmp, fsync, rename over <key>, fsync the directory.
// The crash hook sits exactly in the window the rename closes. The whole
// operation runs under the breaker: skipped outright while open, and its
// outcome (crash-hook aborts excepted — those simulate process death,
// not disk failure) feeds the breaker's failure streak.
func (rs *resultStore) writeResult(j *job) error {
	if !rs.brk.allow() {
		rs.metrics.breakerSkipped.Add(1)
		return errDiskDegraded
	}
	data := fmt.Appendf(nil, "%s %s %s %d %s %s %s %s\n", resultFileMagic, j.key, j.sum, j.size, j.kind,
		j.submittedAt.Format(time.RFC3339Nano), j.startedAt.Format(time.RFC3339Nano), j.finishedAt.Format(time.RFC3339Nano))
	data = append(data, j.result...)
	err := commitFile(rs.fs, rs.resultPath(j.key), data, rs.crashHook)
	if errors.Is(err, errInjectedCrash) {
		rs.brk.record(nil) // the disk itself behaved; the "process" died
		return fmt.Errorf("%w of %s", err, j.key)
	}
	rs.brk.record(err)
	return err
}

// parseResultFile splits a result file into the catalog fields its
// header carries — Key, BodySHA256 and Size, plus Kind and the three
// times for a v2 header (a v1 header leaves those zero) — and the body.
// It checks the header's shape only (magic, field count, an integer
// length and RFC 3339 times); matching the fields against the filename,
// the catalog and the body is the caller's job.
func parseResultFile(raw []byte) (indexEntry, []byte, error) {
	var e indexEntry
	nl := bytes.IndexByte(raw, '\n')
	if nl < 0 {
		return e, nil, errors.New("no header")
	}
	f := strings.Fields(string(raw[:nl]))
	v1 := len(f) == 5 && f[0]+" "+f[1] == resultFileMagicV1
	if !v1 && (len(f) != 9 || f[0]+" "+f[1] != resultFileMagic) {
		return e, nil, errors.New("bad header")
	}
	e.Key, e.BodySHA256 = f[2], f[3]
	var err error
	if e.Size, err = strconv.ParseInt(f[4], 10, 64); err != nil {
		return e, nil, errors.New("bad header length")
	}
	if !v1 {
		e.Kind = f[5]
		for i, t := range []*time.Time{&e.SubmittedAt, &e.StartedAt, &e.FinishedAt} {
			if *t, err = time.Parse(time.RFC3339Nano, f[6+i]); err != nil {
				return e, nil, errors.New("bad header time")
			}
		}
	}
	return e, raw[nl+1:], nil
}

// readResult reads j's body back and verifies it end to end: the
// header's shape, its embedded key against the filename, the embedded
// and cataloged lengths, and the body's SHA-256 against both the
// header's copy and the catalog's copy. v1 and v2 headers both pass, so
// a directory written before v2 still warms from its index. Any mismatch
// is one error; the caller discards the entry. Only the I/O feeds the
// breaker — a verification failure means the disk answered fine and the
// content was bad, which is corruption, not unavailability.
func (rs *resultStore) readResult(j *job) ([]byte, error) {
	key := j.key
	if !rs.brk.allow() {
		rs.metrics.breakerSkipped.Add(1)
		return nil, errDiskDegraded
	}
	raw, err := rs.fs.ReadFile(rs.resultPath(key))
	if err != nil && !os.IsNotExist(err) {
		rs.brk.record(err)
		return nil, err
	}
	rs.brk.record(nil)
	if err != nil {
		return nil, err
	}
	h, body, err := parseResultFile(raw)
	if err != nil {
		return nil, fmt.Errorf("serve: result %s: %w", key, err)
	}
	if h.Key != key {
		return nil, fmt.Errorf("serve: result %s: header names key %s", key, h.Key)
	}
	if h.Size != int64(len(body)) || h.Size != j.size {
		return nil, fmt.Errorf("serve: result %s: length mismatch (header %d, body %d, index %d)",
			key, h.Size, len(body), j.size)
	}
	sum := sha256.Sum256(body)
	got := hex.EncodeToString(sum[:])
	if got != h.BodySHA256 || got != j.sum {
		return nil, fmt.Errorf("serve: result %s: body hash mismatch", key)
	}
	return body, nil
}

// indexSnapshot renders the current catalog: every retained done entry,
// in LRU order (stable across encode/decode, and the order warm jobs are
// re-listed in after a restart).
func (rs *resultStore) indexSnapshot() indexFile {
	entries := make([]indexEntry, 0, len(rs.table))
	for _, j := range rs.table {
		if !j.onDisk {
			continue // memory-only entries die with the process; cataloging them would lie
		}
		entries = append(entries, indexEntryFor(j))
	}
	sort.Slice(entries, func(i, k int) bool { return entries[i].LastUsed < entries[k].LastUsed })
	return indexFile{Version: indexVersion, Entries: entries}
}

// flushIndex writes the catalog atomically beside the bodies: once at
// boot, after reconciliation, and once at drain. Between the two the
// on-disk catalog goes stale by design — files committed since carry
// their own records and the next boot adopts them; entries dropped since
// are skipped because their files are gone. It records hits and LRU
// positions, which the file headers do not. Skipped entirely while the
// breaker is open, and there is nothing to write without a disk tier.
func (rs *resultStore) flushIndex() {
	if rs.dir == "" {
		return
	}
	if !rs.brk.allow() {
		rs.metrics.breakerSkipped.Add(1)
		return
	}
	b, err := encodeIndex(rs.indexSnapshot())
	if err != nil {
		rs.metrics.diskWriteErrors.Add(1)
		rs.brk.record(nil) // encoding is not a disk outcome
		return
	}
	err = atomicWriteFile(rs.fs, filepath.Join(rs.dir, indexFileName), b)
	rs.brk.record(err)
	if err != nil {
		rs.metrics.diskWriteErrors.Add(1)
	}
}

// indexEntryFor builds the persistent record of one job.
func indexEntryFor(j *job) indexEntry {
	return indexEntry{
		Key:         j.key,
		ID:          j.id,
		Kind:        j.kind,
		Status:      j.status,
		Hits:        j.hits,
		Size:        j.size,
		BodySHA256:  j.sum,
		SubmittedAt: j.submittedAt,
		StartedAt:   j.startedAt,
		FinishedAt:  j.finishedAt,
		LastUsed:    j.lastUsed,
	}
}

// auditEntry is indexEntryFor for the drain-time audit dump, which
// covers jobs in any state. A result held without a disk tier was never
// hashed; it is hashed here, so the dump is self-consistent with the
// disk tier's records.
func auditEntry(j *job) indexEntry {
	e := indexEntryFor(j)
	if e.BodySHA256 == "" && j.result != nil {
		sum := sha256.Sum256(j.result)
		e.BodySHA256 = hex.EncodeToString(sum[:])
	}
	return e
}
