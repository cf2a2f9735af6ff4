// Package nvm provides the nonvolatile storage primitives an NV-mote is
// built from: a nonvolatile register file (the NVFF array inside an NVRF
// controller, §2.2) and a nonvolatile FIFO (the NVBuffer that decouples
// sensors from the NVP, Fig. 2b). Both survive power failure by
// construction — there is nothing to model on power-down — so their role in
// the simulator is capacity accounting, drop accounting, and state cloning
// (NVD4Q clones a neighbour's NVRF register file, Algorithm 2 line 3).
package nvm

import "fmt"

// RegisterFile is a byte-addressable nonvolatile register file. Writes are
// versioned so that tests (and NVD4Q clone-freshness checks) can tell
// whether two files have diverged.
type RegisterFile struct {
	data    []byte
	version uint64
}

// NewRegisterFile allocates a zeroed register file of the given size.
func NewRegisterFile(size int) *RegisterFile {
	if size <= 0 {
		panic("nvm: non-positive register file size")
	}
	return &RegisterFile{data: make([]byte, size)}
}

// Size reports the register file's capacity in bytes.
func (r *RegisterFile) Size() int { return len(r.data) }

// Version reports a counter incremented on every write.
func (r *RegisterFile) Version() uint64 { return r.version }

// Write stores b at offset off.
func (r *RegisterFile) Write(off int, b []byte) {
	if off < 0 || off+len(b) > len(r.data) {
		panic(fmt.Sprintf("nvm: write [%d,%d) out of range %d", off, off+len(b), len(r.data)))
	}
	copy(r.data[off:], b)
	r.version++
}

// Read returns a copy of n bytes at offset off.
func (r *RegisterFile) Read(off, n int) []byte {
	if off < 0 || n < 0 || off+n > len(r.data) {
		panic(fmt.Sprintf("nvm: read [%d,%d) out of range %d", off, off+n, len(r.data)))
	}
	out := make([]byte, n)
	copy(out, r.data[off:])
	return out
}

// Clone returns an independent copy of the register file, version included.
// This is the NVD4Q state-clone primitive: a joining node copies the NVFF
// state of its closest neighbour's NVRF controller.
func (r *RegisterFile) Clone() *RegisterFile {
	c := &RegisterFile{data: make([]byte, len(r.data)), version: r.version}
	copy(c.data, r.data)
	return c
}

// Equal reports whether two register files hold identical contents.
func (r *RegisterFile) Equal(o *RegisterFile) bool {
	if len(r.data) != len(o.data) {
		return false
	}
	for i := range r.data {
		if r.data[i] != o.data[i] {
			return false
		}
	}
	return true
}

// FIFO is a bounded nonvolatile byte FIFO — the NVBuffer. Sensor samples
// are pushed as records; when the buffer lacks room for a whole record the
// record is dropped and counted ("if the node lacks energy to process or
// send the buffered data out, the sampled data are discarded", §5.1).
type FIFO struct {
	// buf is the ring, allocated by the first Push. Until then only blank
	// records have been stored, so every stored byte is zero and nothing
	// needs backing memory.
	buf      []byte
	capacity int
	head     int // index of the oldest byte
	size     int // bytes currently stored
	dropped  uint64
	pushed   uint64
}

// NewFIFO builds a FIFO with the given capacity in bytes. The paper's
// deployed NVBuffer is 64 kB.
func NewFIFO(capacity int) *FIFO {
	if capacity <= 0 {
		panic("nvm: non-positive FIFO capacity")
	}
	return &FIFO{capacity: capacity}
}

// Cap reports the FIFO capacity in bytes.
func (f *FIFO) Cap() int { return f.capacity }

// Len reports the bytes currently buffered.
func (f *FIFO) Len() int { return f.size }

// Free reports the remaining room in bytes.
func (f *FIFO) Free() int { return f.capacity - f.size }

// Full reports whether the buffer is at capacity.
func (f *FIFO) Full() bool { return f.size == f.capacity }

// Dropped reports how many records have been rejected for lack of room.
func (f *FIFO) Dropped() uint64 { return f.dropped }

// Pushed reports how many records have been accepted.
func (f *FIFO) Pushed() uint64 { return f.pushed }

// Push appends one record atomically. If the record does not fit it is
// dropped whole and Push reports false.
func (f *FIFO) Push(rec []byte) bool {
	if len(rec) > f.Free() {
		f.dropped++
		return false
	}
	if f.buf == nil {
		f.buf = make([]byte, f.capacity)
	}
	tail := (f.head + f.size) % f.capacity
	n := copy(f.buf[tail:], rec)
	copy(f.buf, rec[n:])
	f.size += len(rec)
	f.pushed++
	return true
}

// PushBlank appends one n-byte all-zero record atomically, without the
// caller materialising a source slice — the zero-allocation twin of
// Push(make([]byte, n)). Drop accounting is identical to Push.
func (f *FIFO) PushBlank(n int) bool {
	if n < 0 {
		panic("nvm: negative blank record")
	}
	if n > f.Free() {
		f.dropped++
		return false
	}
	if f.buf != nil { // without a ring the record is zero already
		tail := (f.head + f.size) % f.capacity
		m := n
		if tail+m > f.capacity {
			m = f.capacity - tail
		}
		zero(f.buf[tail : tail+m])
		zero(f.buf[:n-m])
	}
	f.size += n
	f.pushed++
	return true
}

func zero(b []byte) {
	for i := range b {
		b[i] = 0
	}
}

// Pop removes and returns up to n oldest bytes.
func (f *FIFO) Pop(n int) []byte {
	if n < 0 {
		panic("nvm: negative pop")
	}
	if n > f.size {
		n = f.size
	}
	out := make([]byte, n)
	if f.buf != nil {
		m := copy(out, f.buf[f.head:min(f.head+n, f.capacity)])
		copy(out[m:], f.buf)
	}
	f.head = (f.head + n) % f.capacity
	f.size -= n
	return out
}

// Discard removes up to n oldest bytes without copying them out — the
// zero-allocation form of Pop for callers that only retire buffered data.
// It returns the number of bytes removed.
func (f *FIFO) Discard(n int) int {
	if n < 0 {
		panic("nvm: negative discard")
	}
	if n > f.size {
		n = f.size
	}
	f.head = (f.head + n) % f.capacity
	f.size -= n
	return n
}

// Clear discards all buffered bytes without counting them as drops.
func (f *FIFO) Clear() {
	f.head, f.size = 0, 0
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
