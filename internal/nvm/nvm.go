// Package nvm provides the nonvolatile FIFO an NV-mote is built around:
// the NVBuffer that decouples sensors from the NVP (Fig. 2b). It survives
// power failure by construction — there is nothing to model on
// power-down — and sensed data matter to the simulator only by size, so
// its role is capacity and drop accounting over whole records.
package nvm

// FIFO is a bounded nonvolatile FIFO — the NVBuffer. Sensor samples are
// pushed as whole records; when the buffer lacks room for a whole record
// the record is dropped ("if the node lacks energy to process or send the
// buffered data out, the sampled data are discarded", §5.1). Only the
// occupancy is kept: nothing reads the buffered bytes back.
type FIFO struct {
	capacity int
	size     int // bytes currently stored
}

// NewFIFO builds a FIFO with the given capacity in bytes. The paper's
// deployed NVBuffer is 64 kB.
func NewFIFO(capacity int) *FIFO {
	if capacity <= 0 {
		panic("nvm: non-positive FIFO capacity")
	}
	return &FIFO{capacity: capacity}
}

// Len reports the bytes currently buffered.
func (f *FIFO) Len() int { return f.size }

// Free reports the remaining room in bytes.
func (f *FIFO) Free() int { return f.capacity - f.size }

// PushBlank appends one n-byte record atomically. If the record does not
// fit it is dropped whole and PushBlank reports false.
func (f *FIFO) PushBlank(n int) bool {
	if n < 0 {
		panic("nvm: negative blank record")
	}
	if n > f.Free() {
		return false
	}
	f.size += n
	return true
}

// Discard removes up to n oldest bytes and returns the number removed.
func (f *FIFO) Discard(n int) int {
	if n < 0 {
		panic("nvm: negative discard")
	}
	if n > f.size {
		n = f.size
	}
	f.size -= n
	return n
}
