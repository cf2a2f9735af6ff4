package serve

import "sync"

// memoMaxBody is the longest body a Memo remembers. A submission is a few
// hundred bytes (a simulate config with every key written out is about
// 500 B), so 4 KiB keeps every body a client repeats. A longer one is
// decoded each time, which holds a memo's bytes to its entry count ×
// 4 KiB whatever a client sends: a 1 MiB body of whitespace around a hot
// config is never kept.
const memoMaxBody = 4 << 10

// Memo remembers, for request bodies that were already answered from a
// result cache, the normalized request and cache key their decode
// produced, so a repeated body skips the strict decode, the
// normalization and the hash. Only a cache answer makes a body worth
// remembering: the body was valid, and its result is hot. A body that
// was refused, or that started a run, is not remembered, so a first
// sighting always takes the full path and every 400 keeps its text. The
// daemon and the router each hold one; its mutex is its own.
//
// The remembered Request is shared by every hit on its body and is
// read-only: its Config and Options pointers are never written through.
// The router, which routes by key alone, remembers a zero Request.
type Memo struct {
	mu      sync.Mutex
	max     int
	entries map[string]memoEntry
}

type memoEntry struct {
	req Request
	key string
}

// NewMemo returns an empty memo of at most entries bodies.
func NewMemo(entries int) *Memo {
	return &Memo{max: entries, entries: make(map[string]memoEntry)}
}

// Lookup returns the normalized request and key remembered for body.
func (m *Memo) Lookup(body []byte) (Request, string, bool) {
	m.mu.Lock()
	e, ok := m.entries[string(body)]
	m.mu.Unlock()
	return e.req, e.key, ok
}

// Remember records body's normalized request and key, once a cache has
// answered body. A body past memoMaxBody is not kept; a full memo makes
// room by forgetting an arbitrary body.
func (m *Memo) Remember(body []byte, req Request, key string) {
	if len(body) > memoMaxBody {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.entries[string(body)]; ok {
		return
	}
	if len(m.entries) >= m.max {
		for b := range m.entries {
			delete(m.entries, b)
			break
		}
	}
	m.entries[string(body)] = memoEntry{req: req, key: key}
}
