package nvm

import (
	"testing"
	"testing/quick"
)

func TestFIFODropWholeRecords(t *testing.T) {
	f := NewFIFO(4)
	if !f.PushBlank(3) {
		t.Fatal("first record fits")
	}
	if f.PushBlank(2) {
		t.Fatal("a record that does not fit whole must be dropped")
	}
	// The failed push must leave the occupancy untouched.
	if f.Len() != 3 || f.Free() != 1 {
		t.Fatalf("len=%d free=%d after a drop", f.Len(), f.Free())
	}
	if !f.PushBlank(1) || f.Free() != 0 {
		t.Fatal("a record that fits exactly must be accepted")
	}
}

// Property: over any interleaving of pushes and discards, the occupancy
// matches a model that accepts a record only when it fits whole and
// discards at most what is buffered.
func TestFIFOInterleavedProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		fifo := NewFIFO(16)
		model := 0
		for _, op := range ops {
			if op%2 == 0 {
				n := int(op % 7)
				fits := model+n <= 16
				if fifo.PushBlank(n) != fits {
					return false
				}
				if fits {
					model += n
				}
			} else {
				n := int(op % 9)
				if fifo.Discard(n) != min(n, model) {
					return false
				}
				model -= min(n, model)
			}
			if fifo.Len() != model || fifo.Free() != 16-model {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFIFOPushBlankZeroAlloc(t *testing.T) {
	f := NewFIFO(64)
	allocs := testing.AllocsPerRun(100, func() {
		f.PushBlank(8)
		f.Discard(8)
	})
	if allocs != 0 {
		t.Fatalf("PushBlank+Discard allocs = %v, want 0", allocs)
	}
}

var fifoSink *FIFO

// A FIFO allocates only its header, however much it buffers: the
// simulator's NVBuffers never allocate or clear 64 kB each.
func TestFIFOBlankOnlyAllocatesHeader(t *testing.T) {
	allocs := testing.AllocsPerRun(20, func() {
		f := NewFIFO(64 << 10)
		for i := 0; i < 200; i++ {
			f.PushBlank(1024)
			f.Discard(1024)
		}
		fifoSink = f
	})
	if allocs != 1 {
		t.Fatalf("NewFIFO + PushBlank/Discard allocs = %v, want 1 (the header)", allocs)
	}
}
