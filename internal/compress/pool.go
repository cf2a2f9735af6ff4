package compress

import (
	"errors"
	"sync"
)

var (
	errCodeTooLong = errors.New("compress: code length exceeds 15")
	errEmptyTable  = errors.New("compress: empty code table")
)

// This file holds the pooled scratch state behind Compress, CompressImage
// and DecompressImage (and the Decompress oracle in reference_test.go):
// the one entropy-coder path both codecs run. Callers receive freshly
// allocated output slices they own outright. Only the working buffers —
// delta planes, symbol streams, histograms, Huffman trees, bit buffers —
// are recycled through sync.Pool.
//
// Reset invariants (see DESIGN.md): every pooled buffer is either fully
// overwritten before its first read (delta planes, code tables read only at
// indices written this call) or explicitly reset on acquisition (freq
// zero-filled, append targets re-sliced to length zero, the Huffman node
// arena emptied, the bit writer and decoder cleared). Nothing returned to a
// caller may alias pool memory — FuzzPooledCompress proves a recycled
// buffer never leaks bytes from a previous packet.

// encState is one Compress or CompressImage call's working set.
type encState struct {
	plane1, plane2 []byte   // transpose / delta ping-pong planes
	syms           []uint16 // RLE or image symbol stream
	extras         []byte   // zero-run length bytes
	freq           []int    // symbol histogram (zeroed per call)
	flat           []int    // buildCodeLengthsInto's flattening copy
	lengths        []uint8  // code lengths (zeroed per call)
	codes          []code   // canonical code table (zeroed per call)
	table          []byte   // packed length table
	bw             bitWriter
	nodes          []hnode // Huffman tree arena; capacity fixed, never grown
	heap           hheap
}

// decState is one Decompress or DecompressImage call's working set.
type decState struct {
	lengths []uint8
	codes   []code
	dec     decoder
	work    []byte // decoded plane before the caller-owned copy
}

var encPool = sync.Pool{New: func() interface{} {
	return &encState{
		freq:    make([]int, numSyms),
		lengths: make([]uint8, numSyms),
		codes:   make([]code, numSyms),
		flat:    make([]int, numSyms),
		// The tree over k ≤ numSyms leaves has at most 2k-1 nodes. The
		// arena must never reallocate mid-build — heap entries are
		// pointers into it — so the capacity is the worst case up front.
		nodes: make([]hnode, 0, 2*numSyms),
		heap:  make(hheap, 0, numSyms),
	}
}}

var decPool = sync.Pool{New: func() interface{} {
	return &decState{
		lengths: make([]uint8, numSyms),
		codes:   make([]code, numSyms),
	}
}}

// grow returns buf with length n, reusing capacity when possible. Contents
// are unspecified: callers must overwrite every index they later read.
func grow(buf []byte, n int) []byte {
	if cap(buf) < n {
		return make([]byte, n)
	}
	return buf[:n]
}

// transposeInto reorders whole records into plane-major order in a reused
// plane: byte k of every record is grouped together, and a trailing
// partial record stays in place at the end.
func (st *encState) transposeInto(in []byte, stride int) []byte {
	st.plane1 = grow(st.plane1, len(in))
	out := st.plane1
	n := len(in) / stride * stride
	rows := n / stride
	idx := 0
	for p := 0; p < stride; p++ {
		for r := 0; r < rows; r++ {
			out[idx] = in[r*stride+p]
			idx++
		}
	}
	copy(out[n:], in[n:])
	return out
}

// deltaInto writes dst[i] = in[i] - in[i-1] (first byte verbatim) into a
// reused plane: the delta filter at stride 1, the only stride Compress
// uses after transposition. It must never be handed an input aliasing its
// output plane; Compress alternates plane2 and plane1 to guarantee that.
func deltaInto(dst, in []byte) []byte {
	dst = grow(dst, len(in))
	copy(dst, in[:1])
	for i := 1; i < len(in); i++ {
		dst[i] = in[i] - in[i-1]
	}
	return dst
}

// rleInto converts bytes to a symbol stream in the reused buffers: a run
// of at least minRun zeros becomes zrunSym with an extra byte (run length
// - 1, at most maxRun per token).
func (st *encState) rleInto(in []byte) (syms []uint16, extras []byte) {
	st.syms, st.extras = st.syms[:0], st.extras[:0]
	i := 0
	for i < len(in) {
		if in[i] == 0 {
			run := 1
			for i+run < len(in) && in[i+run] == 0 && run < maxRun {
				run++
			}
			if run >= minRun {
				st.syms = append(st.syms, zrunSym)
				st.extras = append(st.extras, byte(run-1))
				i += run
				continue
			}
			for j := 0; j < run; j++ {
				st.syms = append(st.syms, 0)
			}
			i += run
			continue
		}
		st.syms = append(st.syms, uint16(in[i]))
		i++
	}
	return st.syms, st.extras
}

// buildCodeLengthsInto assigns Huffman code lengths to the symbols of
// st.freq, limited to maxLen bits; zero-frequency symbols get length 0.
// If the natural tree exceeds maxLen, frequencies are repeatedly
// flattened (halved with a floor of 1) until it fits — a standard
// length-limiting fallback that is near-optimal for these alphabets.
func (st *encState) buildCodeLengthsInto(maxLen int) []uint8 {
	copy(st.flat, st.freq)
	for {
		ok := st.huffLengthsInto(st.flat, maxLen)
		if ok {
			return st.lengths
		}
		for i, v := range st.flat {
			if v > 1 {
				st.flat[i] = (v + 1) / 2
			}
		}
	}
}

// huffLengthsInto builds the Huffman tree over freq with nodes drawn from
// the arena, writes each symbol's depth into st.lengths, and reports
// whether every depth fits maxLen. The heap orders by frequency, then
// symbol, so the tree is deterministic.
func (st *encState) huffLengthsInto(freq []int, maxLen int) bool {
	st.nodes = st.nodes[:0]
	newNode := func(f, sym int, l, r *hnode) *hnode {
		st.nodes = append(st.nodes, hnode{freq: f, sym: sym, left: l, right: r})
		return &st.nodes[len(st.nodes)-1]
	}
	h := &st.heap
	*h = (*h)[:0]
	for s, f := range freq {
		if f > 0 {
			pushNode(h, newNode(f, s, nil, nil))
		}
	}
	for i := range st.lengths {
		st.lengths[i] = 0
	}
	switch h.Len() {
	case 0:
		return true
	case 1:
		st.lengths[(*h)[0].sym] = 1
		return true
	}
	for h.Len() > 1 {
		a := popNode(h)
		b := popNode(h)
		pushNode(h, newNode(a.freq+b.freq, -1, a, b))
	}
	root := popNode(h)
	ok := true
	var walk func(n *hnode, depth int)
	walk = func(n *hnode, depth int) {
		if n.sym >= 0 {
			if depth == 0 {
				depth = 1
			}
			if depth > maxLen {
				ok = false
			} else {
				st.lengths[n.sym] = uint8(depth)
			}
			return
		}
		walk(n.left, depth+1)
		walk(n.right, depth+1)
	}
	walk(root, 0)
	return ok
}

// canonicalCodesInto fills dst (zeroing stale entries) with the canonical
// codes for lengths: shorter codes first, ties broken by symbol order.
func canonicalCodesInto(dst []code, lengths []uint8) []code {
	maxLen := uint8(0)
	for _, l := range lengths {
		if l > maxLen {
			maxLen = l
		}
	}
	for i := range dst {
		dst[i] = code{}
	}
	next := uint32(0)
	for l := uint8(1); l <= maxLen; l++ {
		for s, sl := range lengths {
			if sl == l {
				dst[s] = code{bits: next, n: l}
				next++
			}
		}
		next <<= 1
	}
	return dst
}

// packLengthsInto stores one 4-bit length per symbol (two per byte) in a
// reused buffer. Code lengths are limited to 15, so 4 bits suffice.
func (st *encState) packLengthsInto(lengths []uint8) []byte {
	st.table = grow(st.table, (len(lengths)+1)/2)
	for i := range st.table {
		st.table[i] = 0
	}
	for i, l := range lengths {
		if i%2 == 0 {
			st.table[i/2] = l & 0x0F
		} else {
			st.table[i/2] |= (l & 0x0F) << 4
		}
	}
	return st.table
}

// unpackLengthsInto inverts packLengthsInto into the reused length buffer.
func (ds *decState) unpackLengthsInto(packed []byte) []uint8 {
	for i := range ds.lengths {
		b := packed[i/2]
		if i%2 == 0 {
			ds.lengths[i] = b & 0x0F
		} else {
			ds.lengths[i] = b >> 4
		}
	}
	return ds.lengths
}

// resetDecoderInto rebuilds ds.dec in place from canonical lengths and
// codes: per length, the first code, its index among the symbols ordered
// by (length, symbol), and the count.
func (ds *decState) resetDecoderInto(lengths []uint8, codes []code) (*decoder, error) {
	d := &ds.dec
	d.firstCode = [16]uint32{}
	d.firstIndex = [16]int{}
	d.count = [16]int{}
	d.symsByLen = d.symsByLen[:0]
	d.maxLen = 0
	for _, l := range lengths {
		if l > 15 {
			return nil, errCodeTooLong
		}
		if l > 0 {
			d.count[l]++
			if l > d.maxLen {
				d.maxLen = l
			}
		}
	}
	if d.maxLen == 0 {
		return nil, errEmptyTable
	}
	idx := 0
	for l := uint8(1); l <= d.maxLen; l++ {
		d.firstIndex[l] = idx
		first := true
		for s, sl := range lengths {
			if sl == l {
				if first {
					d.firstCode[l] = codes[s].bits
					first = false
				}
				d.symsByLen = append(d.symsByLen, s)
				idx++
			}
		}
	}
	return d, nil
}

// pushNode and popNode are container/heap's Push/Pop specialised to hheap,
// avoiding the interface{} boxing of the generic API while performing the
// identical sift operations (so the tie-broken pop order cannot change;
// reference_test.go keeps the container/heap build as the oracle).
func pushNode(h *hheap, n *hnode) {
	*h = append(*h, n)
	// Sift up.
	j := len(*h) - 1
	for j > 0 {
		parent := (j - 1) / 2
		if !h.Less(j, parent) {
			break
		}
		h.Swap(j, parent)
		j = parent
	}
}

func popNode(h *hheap) *hnode {
	old := *h
	n := len(old) - 1
	old.Swap(0, n)
	top := old[n]
	*h = old[:n]
	// Sift down from the root.
	s := *h
	j := 0
	for {
		l, r := 2*j+1, 2*j+2
		smallest := j
		if l < len(s) && s.Less(l, smallest) {
			smallest = l
		}
		if r < len(s) && s.Less(r, smallest) {
			smallest = r
		}
		if smallest == j {
			break
		}
		s.Swap(j, smallest)
		j = smallest
	}
	return top
}
