package compress

import (
	"container/heap"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// The reference implementations of the entropy coder and the byte filters:
// one fresh allocation per step, no pooling. Production runs the pooled
// versions in pool.go; these stay as the oracles the pooled and image
// paths are checked against. Decompress, the inverse of Compress, is the
// oracle every Compress round trip is checked against: nodes only ever
// compress, and the cloud side that decodes is outside the model.

// buildCodeLengths assigns Huffman code lengths to symbols with the given
// frequencies, limited to maxLen bits. Symbols with zero frequency get
// length 0. If the natural tree exceeds maxLen, frequencies are repeatedly
// flattened (halved with a floor of 1) until it fits — a standard
// length-limiting fallback that is near-optimal for these alphabets.
func buildCodeLengths(freq []int, maxLen int) []uint8 {
	f := make([]int, len(freq))
	copy(f, freq)
	for {
		lengths, ok := huffLengths(f, maxLen)
		if ok {
			return lengths
		}
		for i, v := range f {
			if v > 1 {
				f[i] = (v + 1) / 2
			}
		}
	}
}

func (h *hheap) Push(x interface{}) { *h = append(*h, x.(*hnode)) }
func (h *hheap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

func huffLengths(freq []int, maxLen int) ([]uint8, bool) {
	h := &hheap{}
	for s, f := range freq {
		if f > 0 {
			heap.Push(h, &hnode{freq: f, sym: s})
		}
	}
	lengths := make([]uint8, len(freq))
	switch h.Len() {
	case 0:
		return lengths, true
	case 1:
		lengths[(*h)[0].sym] = 1
		return lengths, true
	}
	for h.Len() > 1 {
		a := heap.Pop(h).(*hnode)
		b := heap.Pop(h).(*hnode)
		heap.Push(h, &hnode{freq: a.freq + b.freq, sym: -1, left: a, right: b})
	}
	root := heap.Pop(h).(*hnode)
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
				lengths[n.sym] = uint8(depth)
			}
			return
		}
		walk(n.left, depth+1)
		walk(n.right, depth+1)
	}
	walk(root, 0)
	return lengths, ok
}

// canonicalCodes converts code lengths to canonical codes (shorter codes
// first, ties broken by symbol order).
func canonicalCodes(lengths []uint8) []code {
	maxLen := uint8(0)
	for _, l := range lengths {
		if l > maxLen {
			maxLen = l
		}
	}
	codes := make([]code, len(lengths))
	next := uint32(0)
	for l := uint8(1); l <= maxLen; l++ {
		for s, sl := range lengths {
			if sl == l {
				codes[s] = code{bits: next, n: l}
				next++
			}
		}
		next <<= 1
	}
	return codes
}

// packLengths stores one 4-bit length per symbol (two per byte). Code
// lengths are limited to 15, so 4 bits suffice.
func packLengths(lengths []uint8) []byte {
	out := make([]byte, (len(lengths)+1)/2)
	for i, l := range lengths {
		if i%2 == 0 {
			out[i/2] = l & 0x0F
		} else {
			out[i/2] |= (l & 0x0F) << 4
		}
	}
	return out
}

func unpackLengths(packed []byte) []uint8 {
	out := make([]uint8, numSyms)
	for i := range out {
		b := packed[i/2]
		if i%2 == 0 {
			out[i] = b & 0x0F
		} else {
			out[i] = b >> 4
		}
	}
	return out
}

func newDecoder(lengths []uint8, codes []code) (*decoder, error) {
	d := &decoder{}
	for _, l := range lengths {
		if l > 15 {
			return nil, errors.New("compress: code length exceeds 15")
		}
		if l > 0 {
			d.count[l]++
			if l > d.maxLen {
				d.maxLen = l
			}
		}
	}
	if d.maxLen == 0 {
		return nil, errors.New("compress: empty code table")
	}
	// Symbols ordered by (length, symbol) — canonical order.
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

// transpose reorders whole records into plane-major order: byte k of every
// record is grouped together. A trailing partial record stays in place at
// the end.
func transpose(in []byte, stride int) []byte {
	n := len(in) / stride * stride
	out := make([]byte, len(in))
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

// deltaEncode returns out[i] = in[i] - in[i-stride] (first stride bytes
// verbatim).
func deltaEncode(in []byte, stride int) []byte {
	out := make([]byte, len(in))
	copy(out, in[:stride])
	for i := stride; i < len(in); i++ {
		out[i] = in[i] - in[i-stride]
	}
	return out
}

// rleEncode converts bytes to a symbol stream where runs of zeros become
// zrunSym with an extra byte (run length - 1, max 256 per token).
func rleEncode(in []byte) (syms []uint16, extras []byte) {
	syms = make([]uint16, 0, len(in)/2+16)
	i := 0
	for i < len(in) {
		if in[i] == 0 {
			run := 1
			for i+run < len(in) && in[i+run] == 0 && run < maxRun {
				run++
			}
			if run >= minRun {
				syms = append(syms, zrunSym)
				extras = append(extras, byte(run-1))
				i += run
				continue
			}
			for j := 0; j < run; j++ {
				syms = append(syms, 0)
			}
			i += run
			continue
		}
		syms = append(syms, uint16(in[i]))
		i++
	}
	return syms, extras
}

// Decompress decodes a blob produced by Compress.
func Decompress(blob []byte) ([]byte, Stats, error) {
	var inst int64
	if len(blob) < 8 {
		return nil, Stats{}, errors.New("compress: blob too short")
	}
	if binary.LittleEndian.Uint16(blob[0:]) != magic {
		return nil, Stats{}, errors.New("compress: bad magic")
	}
	mode := blob[2]
	stride := int(blob[3] & 0x0F)
	order := int(blob[3] >> 4)
	origLen := int(binary.LittleEndian.Uint32(blob[4:]))
	rest := blob[8:]

	if mode == modeRaw {
		if len(rest) != origLen {
			return nil, Stats{}, fmt.Errorf("compress: stored block length %d, want %d", len(rest), origLen)
		}
		out := make([]byte, origLen)
		copy(out, rest)
		return out, Stats{InBytes: len(blob), OutBytes: origLen, Instructions: int64(origLen)}, nil
	}
	if mode != modeHuff {
		return nil, Stats{}, fmt.Errorf("compress: unknown mode %d", mode)
	}

	tableLen := numSyms / 2
	if len(rest) < tableLen {
		return nil, Stats{}, errors.New("compress: truncated code table")
	}
	ds := decPool.Get().(*decState)
	defer decPool.Put(ds)
	lengths := ds.unpackLengthsInto(rest[:tableLen])
	codes := canonicalCodesInto(ds.codes, lengths)
	dec, err := ds.resetDecoderInto(lengths, codes)
	if err != nil {
		return nil, Stats{}, err
	}

	br := bitReader{data: rest[tableLen:]}
	if cap(ds.work) < origLen {
		ds.work = make([]byte, 0, origLen)
	}
	work := ds.work[:0]
	for {
		s, bits, err := dec.next(&br)
		inst += int64(bits) * instPerDecodeBit
		if err != nil {
			return nil, Stats{}, err
		}
		if s == eobSym {
			break
		}
		if s == zrunSym {
			n, err := br.read(8)
			if err != nil {
				return nil, Stats{}, err
			}
			run := int(n) + 1
			for i := 0; i < run; i++ {
				work = append(work, 0)
			}
			continue
		}
		work = append(work, byte(s))
	}
	ds.work = work // retain the grown buffer for the next call
	if len(work) != origLen {
		return nil, Stats{}, fmt.Errorf("compress: decoded %d bytes, want %d", len(work), origLen)
	}

	for i := 0; i < order && stride > 0; i++ {
		deltaDecode(work, 1)
		inst += int64(len(work)) * instPerUndeltaByte
	}
	if stride > 1 && order > 0 {
		// untranspose writes into a fresh slice, so the caller never sees
		// pool memory.
		out := untranspose(work, stride)
		inst += int64(len(work)) * instPerUndeltaByte
		return out, Stats{InBytes: len(blob), OutBytes: origLen, Instructions: inst}, nil
	}
	out := make([]byte, len(work))
	copy(out, work)
	return out, Stats{InBytes: len(blob), OutBytes: origLen, Instructions: inst}, nil
}

// untranspose inverts Compress's plane-major transposition.
func untranspose(in []byte, stride int) []byte {
	n := len(in) / stride * stride
	out := make([]byte, len(in))
	rows := n / stride
	idx := 0
	for p := 0; p < stride; p++ {
		for r := 0; r < rows; r++ {
			out[r*stride+p] = in[idx]
			idx++
		}
	}
	copy(out[n:], in[n:])
	return out
}

// deltaDecode inverts the delta filter in place: b[i] += b[i-stride].
func deltaDecode(b []byte, stride int) {
	for i := stride; i < len(b); i++ {
		b[i] += b[i-stride]
	}
}

// refDCT8 and refIDCT8 are the 1-D transforms with each cosine evaluated
// inside its multiply-add. dct8 and idct8 read the same cosines from a
// table built once; these are the oracles that prove the table changes no
// bit.
func refDCT8(in, out []float64) {
	for k := 0; k < blockSize; k++ {
		var acc float64
		for n := 0; n < blockSize; n++ {
			acc += in[n] * math.Cos(math.Pi*float64(k)*(2*float64(n)+1)/16)
		}
		c := 0.5
		if k == 0 {
			c = 1 / (2 * math.Sqrt2)
		}
		out[k] = c * acc
	}
}

func refIDCT8(in, out []float64) {
	for n := 0; n < blockSize; n++ {
		var acc float64
		for k := 0; k < blockSize; k++ {
			c := 1.0
			if k == 0 {
				c = 1 / math.Sqrt2
			}
			acc += c * in[k] * math.Cos(math.Pi*float64(k)*(2*float64(n)+1)/16)
		}
		out[n] = acc / 2
	}
}
