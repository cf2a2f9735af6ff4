package compress

import "errors"

// code is one canonical Huffman code: the low n bits of bits, MSB-first.
type code struct {
	bits uint32
	n    uint8
}

// hnode is one Huffman tree node; hheap orders them by frequency, then
// symbol, for the tree build in pool.go.
type hnode struct {
	freq  int
	sym   int // -1 for internal
	left  *hnode
	right *hnode
}

type hheap []*hnode

func (h hheap) Len() int { return len(h) }
func (h hheap) Less(i, j int) bool {
	if h[i].freq != h[j].freq {
		return h[i].freq < h[j].freq
	}
	return h[i].sym < h[j].sym // deterministic tie-break
}
func (h hheap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

// bitWriter packs bits MSB-first.
type bitWriter struct {
	buf  []byte
	cur  uint64
	nCur uint
}

func (w *bitWriter) write(bits uint32, n uint8) {
	w.cur = w.cur<<n | uint64(bits)&((1<<n)-1)
	w.nCur += uint(n)
	for w.nCur >= 8 {
		w.nCur -= 8
		w.buf = append(w.buf, byte(w.cur>>w.nCur))
	}
}

// reset prepares a recycled writer: the byte buffer keeps its capacity but
// no bit of the previous stream survives.
func (w *bitWriter) reset() {
	w.buf = w.buf[:0]
	w.cur, w.nCur = 0, 0
}

func (w *bitWriter) finish() []byte {
	if w.nCur > 0 {
		w.buf = append(w.buf, byte(w.cur<<(8-w.nCur)))
		w.nCur = 0
	}
	return w.buf
}

// bitReader reads bits MSB-first.
type bitReader struct {
	data []byte
	pos  int
	cur  uint64
	nCur uint
}

var errOutOfBits = errors.New("compress: bitstream exhausted")

func (r *bitReader) read(n uint8) (uint32, error) {
	for r.nCur < uint(n) {
		if r.pos >= len(r.data) {
			return 0, errOutOfBits
		}
		r.cur = r.cur<<8 | uint64(r.data[r.pos])
		r.pos++
		r.nCur += 8
	}
	r.nCur -= uint(n)
	return uint32(r.cur>>r.nCur) & ((1 << n) - 1), nil
}

// decoder performs canonical Huffman decoding bit by bit using
// first-code/offset tables per length.
type decoder struct {
	firstCode  [16]uint32
	firstIndex [16]int
	count      [16]int
	symsByLen  []int
	maxLen     uint8
}

// next decodes one symbol, returning it and the number of bits consumed.
func (d *decoder) next(br *bitReader) (int, int, error) {
	var v uint32
	for l := uint8(1); l <= d.maxLen; l++ {
		b, err := br.read(1)
		if err != nil {
			return 0, int(l), err
		}
		v = v<<1 | b
		if d.count[l] > 0 {
			off := int(v) - int(d.firstCode[l])
			if off >= 0 && off < d.count[l] {
				return d.symsByLen[d.firstIndex[l]+off], int(l), nil
			}
		}
	}
	return 0, int(d.maxLen), errors.New("compress: invalid code")
}
