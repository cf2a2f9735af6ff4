package nvm

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestRegisterFileReadWrite(t *testing.T) {
	r := NewRegisterFile(16)
	if r.Size() != 16 || r.Version() != 0 {
		t.Fatal("fresh register file state wrong")
	}
	r.Write(4, []byte{1, 2, 3})
	if got := r.Read(4, 3); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("Read = %v", got)
	}
	if r.Version() != 1 {
		t.Fatalf("version = %d, want 1", r.Version())
	}
	// Read returns a copy; mutating it must not affect the file.
	got := r.Read(4, 3)
	got[0] = 99
	if r.Read(4, 1)[0] != 1 {
		t.Fatal("Read must return a copy")
	}
}

func TestRegisterFileCloneAndEqual(t *testing.T) {
	r := NewRegisterFile(8)
	r.Write(0, []byte("abcd"))
	c := r.Clone()
	if !r.Equal(c) || c.Version() != r.Version() {
		t.Fatal("clone should be identical")
	}
	c.Write(0, []byte("x"))
	if r.Equal(c) {
		t.Fatal("clone must be independent")
	}
	if r.Read(0, 1)[0] != 'a' {
		t.Fatal("original mutated by clone write")
	}
	other := NewRegisterFile(4)
	if r.Equal(other) {
		t.Fatal("different sizes cannot be equal")
	}
}

func TestRegisterFileBounds(t *testing.T) {
	r := NewRegisterFile(4)
	for name, fn := range map[string]func(){
		"write past end": func() { r.Write(2, []byte{1, 2, 3}) },
		"negative write": func() { r.Write(-1, []byte{1}) },
		"read past end":  func() { r.Read(3, 2) },
		"negative read":  func() { r.Read(0, -1) },
		"zero size":      func() { NewRegisterFile(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestFIFOPushPopOrder(t *testing.T) {
	f := NewFIFO(8)
	if !f.Push([]byte{1, 2, 3}) || !f.Push([]byte{4, 5}) {
		t.Fatal("pushes should fit")
	}
	if f.Len() != 5 || f.Free() != 3 {
		t.Fatalf("len=%d free=%d", f.Len(), f.Free())
	}
	if got := f.Pop(4); !bytes.Equal(got, []byte{1, 2, 3, 4}) {
		t.Fatalf("Pop = %v", got)
	}
	if got := f.Pop(10); !bytes.Equal(got, []byte{5}) {
		t.Fatalf("Pop = %v", got)
	}
	if f.Len() != 0 {
		t.Fatal("should be empty")
	}
}

func TestFIFOWraparound(t *testing.T) {
	f := NewFIFO(4)
	f.Push([]byte{1, 2, 3})
	f.Pop(3)
	// head is now at 3; this record wraps around the ring.
	if !f.Push([]byte{7, 8, 9}) {
		t.Fatal("wrapping push should fit")
	}
	if got := f.Pop(3); !bytes.Equal(got, []byte{7, 8, 9}) {
		t.Fatalf("wrapped Pop = %v", got)
	}
}

func TestFIFODropWholeRecords(t *testing.T) {
	f := NewFIFO(4)
	if !f.Push([]byte{1, 2, 3}) {
		t.Fatal("first push fits")
	}
	if f.Push([]byte{4, 5}) {
		t.Fatal("push must drop records that do not fit whole")
	}
	if f.Dropped() != 1 || f.Pushed() != 1 {
		t.Fatalf("dropped=%d pushed=%d", f.Dropped(), f.Pushed())
	}
	// The buffer contents must be untouched by the failed push.
	if got := f.Pop(3); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("Pop = %v", got)
	}
}

func TestFIFOClear(t *testing.T) {
	f := NewFIFO(4)
	f.Push([]byte{1, 2})
	f.Clear()
	if f.Len() != 0 || f.Dropped() != 0 {
		t.Fatal("clear should empty without counting drops")
	}
	if !f.Push([]byte{9, 9, 9, 9}) || !f.Full() {
		t.Fatal("cleared FIFO should accept a full-capacity record")
	}
}

// Property: any sequence of pushes then pops returns exactly the pushed
// bytes in order (records that were accepted, concatenated).
func TestFIFOFIFOOrderProperty(t *testing.T) {
	f := func(records [][]byte) bool {
		fifo := NewFIFO(64)
		var want []byte
		for _, r := range records {
			if len(r) > 8 {
				r = r[:8]
			}
			if fifo.Push(r) {
				want = append(want, r...)
			}
		}
		got := fifo.Pop(fifo.Len())
		return bytes.Equal(got, want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: interleaved pushes and pops never violate ordering, even when
// the ring wraps many times.
func TestFIFOInterleavedProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		fifo := NewFIFO(16)
		var model []byte
		next := byte(0)
		for _, op := range ops {
			if op%2 == 0 {
				n := int(op%5) + 1
				rec := make([]byte, n)
				for i := range rec {
					rec[i] = next
					next++
				}
				if fifo.Push(rec) {
					model = append(model, rec...)
				}
			} else {
				n := int(op % 7)
				got := fifo.Pop(n)
				take := n
				if take > len(model) {
					take = len(model)
				}
				if !bytes.Equal(got, model[:take]) {
					return false
				}
				model = model[take:]
			}
			if fifo.Len() != len(model) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: PushBlank(n) is observationally identical to Push(make([]byte, n))
// — same accept/drop decisions, same accounting, and every byte popped later
// is zero even when the ring has wrapped through stale nonzero data.
func TestFIFOPushBlankEquivalence(t *testing.T) {
	f := func(ops []uint8) bool {
		a := NewFIFO(16) // Push(make([]byte, n))
		b := NewFIFO(16) // PushBlank(n)
		// Poison both rings with nonzero data first so PushBlank must
		// actively zero recycled bytes, then drain.
		poison := []byte{0xff, 0xee, 0xdd, 0xcc, 0xbb, 0xaa, 0x99, 0x88}
		a.Push(poison)
		b.Push(poison)
		a.Pop(len(poison))
		b.Pop(len(poison))
		for _, op := range ops {
			if op%2 == 0 {
				n := int(op % 7)
				if a.Push(make([]byte, n)) != b.PushBlank(n) {
					return false
				}
			} else {
				n := int(op % 9)
				ga, gb := a.Pop(n), b.Pop(n)
				if !bytes.Equal(ga, gb) {
					return false
				}
				for _, c := range gb {
					if c != 0 {
						return false
					}
				}
			}
			if a.Len() != b.Len() || a.Dropped() != b.Dropped() || a.Pushed() != b.Pushed() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Discard(n) leaves the FIFO in the same state as Pop(n), it just
// skips materialising the bytes.
func TestFIFODiscardEquivalence(t *testing.T) {
	f := func(ops []uint8) bool {
		a := NewFIFO(16) // Pop
		b := NewFIFO(16) // Discard
		next := byte(1)
		for _, op := range ops {
			if op%2 == 0 {
				n := int(op%5) + 1
				rec := make([]byte, n)
				for i := range rec {
					rec[i] = next
					next++
				}
				if a.Push(rec) != b.Push(rec) {
					return false
				}
			} else {
				n := int(op % 7)
				got := a.Pop(n)
				if b.Discard(n) != len(got) {
					return false
				}
			}
			if a.Len() != b.Len() || a.Free() != b.Free() {
				return false
			}
			// The surviving contents must agree: drain copies and refill.
			sa, sb := a.Pop(a.Len()), b.Pop(b.Len())
			if !bytes.Equal(sa, sb) {
				return false
			}
			a.Push(sa)
			b.Push(sb)
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

// Property: a FIFO that has only taken blank records, wrapping and
// discarding before its ring exists, and then takes its first real Push
// reads back the same bytes and counts as one fed Push(make([]byte, n))
// from the start.
func TestFIFOBlanksBeforeFirstPush(t *testing.T) {
	same := func(a, b *FIFO) bool {
		return a.Len() == b.Len() && a.Free() == b.Free() &&
			a.Dropped() == b.Dropped() && a.Pushed() == b.Pushed()
	}
	f := func(ops []uint8, rec []byte) bool {
		a := NewFIFO(16) // Push(make([]byte, n)) and Pop
		b := NewFIFO(16) // PushBlank(n) and Discard
		for _, op := range ops {
			if op%2 == 0 {
				n := int(op % 7)
				if a.Push(make([]byte, n)) != b.PushBlank(n) {
					return false
				}
			} else {
				n := int(op % 9)
				if len(a.Pop(n)) != b.Discard(n) {
					return false
				}
			}
			if !same(a, b) {
				return false
			}
		}
		if b.buf != nil {
			return false // blanks and discards alone must not build the ring
		}
		if len(rec) > 8 {
			rec = rec[:8]
		}
		if a.Push(rec) != b.Push(rec) || !same(a, b) {
			return false
		}
		return bytes.Equal(a.Pop(a.Len()), b.Pop(b.Len())) && same(a, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

var fifoSink *FIFO

// A FIFO that only ever takes blank records allocates its header and no
// ring: the simulator's NVBuffers never allocate or clear 64 kB each.
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
