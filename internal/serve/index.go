package serve

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"time"
)

// indexVersion is the on-disk index schema version. Decoding rejects any
// other version outright: a daemon never guesses at a future (or
// corrupted) layout, it recomputes instead.
const indexVersion = 1

// indexFile is the persistent cache index: the disk tier's catalog of
// verified result entries, and also the drain-time audit dump (which
// reuses the same codec so steady-state and drain share one code path).
type indexFile struct {
	Version int          `json:"version"`
	Entries []indexEntry `json:"entries"`
}

// indexEntry describes one persisted (or, in the audit dump, retained)
// job. For disk-tier entries Status is always "done" and BodySHA256 is
// the hex SHA-256 of the result body at cache/<Key>; read-back verifies
// against it before a byte is ever served.
type indexEntry struct {
	Key         string    `json:"key"`
	ID          string    `json:"id"`
	Kind        string    `json:"kind"`
	Status      string    `json:"status"`
	Hits        int64     `json:"hits"`
	Size        int64     `json:"size,omitempty"`
	BodySHA256  string    `json:"body_sha256,omitempty"`
	SubmittedAt time.Time `json:"submitted_at"`
	StartedAt   time.Time `json:"started_at,omitempty"`
	FinishedAt  time.Time `json:"finished_at,omitempty"`
	LastUsed    int64     `json:"last_used,omitempty"`
}

// validStatuses guards decoded entries; an index claiming any other
// lifecycle state is corrupt.
var validStatuses = map[string]bool{
	StatusQueued: true, StatusRunning: true, StatusDone: true,
	StatusFailed: true, StatusCancelled: true, StatusPoisoned: true,
}

// validate rejects entries that could not have been written by this
// codec: malformed keys, IDs that do not derive from the key, impossible
// sizes. Strictness here is what lets the fuzz target prove the decoder
// never round-trips garbage into something servable.
func (e indexEntry) validate() error {
	if !isHexKey(e.Key) {
		return fmt.Errorf("index: bad key %q", e.Key)
	}
	if e.ID != jobID(e.Key) {
		return fmt.Errorf("index: id %q does not derive from key %q", e.ID, e.Key)
	}
	if !validStatuses[e.Status] {
		return fmt.Errorf("index: unknown status %q", e.Status)
	}
	if e.Size < 0 {
		return fmt.Errorf("index: negative size %d", e.Size)
	}
	if e.Hits < 0 {
		return fmt.Errorf("index: negative hits %d", e.Hits)
	}
	if e.LastUsed < 0 {
		return fmt.Errorf("index: negative last_used %d", e.LastUsed)
	}
	if e.BodySHA256 != "" && !isHexKey(e.BodySHA256) {
		return fmt.Errorf("index: bad body hash %q", e.BodySHA256)
	}
	if e.Status == StatusDone && e.BodySHA256 == "" && e.Size != 0 {
		return fmt.Errorf("index: done entry %s has size but no body hash", e.Key)
	}
	return nil
}

// isHexKey reports whether s is a lowercase hex SHA-256 (the shape of
// both canonical keys and body hashes).
func isHexKey(s string) bool {
	if len(s) != 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// encodeIndex renders the canonical index bytes: indented JSON, one
// trailing newline. decode(encode(f)) == f for every valid f, and
// encode(decode(b)) is a fixed point — the fuzz target enforces both.
func encodeIndex(f indexFile) ([]byte, error) {
	f.Version = indexVersion
	if f.Entries == nil {
		f.Entries = []indexEntry{}
	}
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// decodeIndex parses and validates index bytes. Any malformation —
// syntax, version, duplicate keys, invalid entries — is one error: the
// caller treats the whole index as lost and recomputes, never serving a
// partially-trusted catalog.
func decodeIndex(b []byte) (indexFile, error) {
	var f indexFile
	if err := json.Unmarshal(b, &f); err != nil {
		return indexFile{}, err
	}
	if f.Version != indexVersion {
		return indexFile{}, fmt.Errorf("index: version %d, want %d", f.Version, indexVersion)
	}
	seen := make(map[string]bool, len(f.Entries))
	for _, e := range f.Entries {
		if err := e.validate(); err != nil {
			return indexFile{}, err
		}
		if seen[e.Key] {
			return indexFile{}, fmt.Errorf("index: duplicate key %s", e.Key)
		}
		seen[e.Key] = true
	}
	if f.Entries == nil {
		f.Entries = []indexEntry{}
	}
	return f, nil
}

// atomicWriteFile is the one durable-write primitive every persistent
// artifact (result bodies, the cache index, the audit dump) goes
// through: write to <path>.tmp, fsync, rename over the final path, fsync
// the directory. A crash at any point leaves either the old bytes or the
// new bytes at path — never a torn file — plus at worst one .tmp that
// the boot sweep removes. It runs on the caller's FS so the disk-tier
// copy shares the store's fault injection and breaker accounting.
func atomicWriteFile(fsys FS, path string, data []byte) error {
	return commitFile(fsys, path, data, nil)
}

// commitFile is atomicWriteFile with an optional crash hook, called with
// the file's base name between the fsynced temp write and the rename.
// Returning false stops the write there with errInjectedCrash, leaving
// the .tmp debris a process death in that window would.
func commitFile(fsys FS, path string, data []byte, beforeRename func(name string) bool) error {
	tmp := path + ".tmp"
	f, err := fsys.OpenWrite(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		fsys.Remove(tmp)
		return err
	}
	if beforeRename != nil && !beforeRename(filepath.Base(path)) {
		return errInjectedCrash
	}
	if err := fsys.Rename(tmp, path); err != nil {
		fsys.Remove(tmp)
		return err
	}
	return fsys.SyncDir(filepath.Dir(path))
}
