package compress

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// This file implements the lossy image codec the buffered strategy uses
// for camera nodes ("compression (bzip or jpeg depending on application)",
// §5.1): a baseline-JPEG-style pipeline — 8×8 blocks, 2-D DCT, quality-
// scaled quantisation, zig-zag ordering, zero-run coding, and the same
// canonical Huffman entropy coder as the lossless path. Greyscale only;
// the WispCam-class sensors this stands in for produce 8-bit luminance.

const (
	imgMagic  = 0x4A46 // "FJ"
	blockSize = 8
	eobImgSym = 256 // end-of-block
	zrlImgSym = 257 // run of 16 zeros
	// numImgSyms matches the lossless alphabet, so the image codec runs
	// on the same pooled Huffman state as Compress.
	numImgSyms = numSyms
)

// baseQuant is the JPEG Annex K luminance quantisation matrix.
var baseQuant = [64]int{
	16, 11, 10, 16, 24, 40, 51, 61,
	12, 12, 14, 19, 26, 58, 60, 55,
	14, 13, 16, 24, 40, 57, 69, 56,
	14, 17, 22, 29, 51, 87, 80, 62,
	18, 22, 37, 56, 68, 109, 103, 77,
	24, 35, 55, 64, 81, 104, 113, 92,
	49, 64, 78, 87, 103, 121, 120, 101,
	72, 92, 95, 98, 112, 100, 103, 99,
}

// zigzag maps scan order → block position.
var zigzag = buildZigzag()

func buildZigzag() [64]int {
	var order [64]int
	x, y, dir := 0, 0, 1
	for i := 0; i < 64; i++ {
		order[i] = y*blockSize + x
		if dir == 1 { // moving up-right
			switch {
			case x == blockSize-1:
				y, dir = y+1, -1
			case y == 0:
				x, dir = x+1, -1
			default:
				x, y = x+1, y-1
			}
		} else { // moving down-left
			switch {
			case y == blockSize-1:
				x, dir = x+1, 1
			case x == 0:
				y, dir = y+1, 1
			default:
				x, y = x-1, y+1
			}
		}
	}
	return order
}

// quantTable scales the base matrix for a quality in [1,100], the libjpeg
// convention.
func quantTable(quality int) [64]int {
	if quality < 1 {
		quality = 1
	}
	if quality > 100 {
		quality = 100
	}
	scale := 5000 / quality
	if quality >= 50 {
		scale = 200 - 2*quality
	}
	var q [64]int
	for i, v := range baseQuant {
		s := (v*scale + 50) / 100
		if s < 1 {
			s = 1
		}
		if s > 255 {
			s = 255
		}
		q[i] = s
	}
	return q
}

// dctCos[k][n] is cos(π·k·(2n+1)/16), the basis both 1-D transforms
// multiply by, built once. Each entry is math.Cos of the same float64
// angle a per-multiply-add call would take, so dct8 and idct8 match the
// refDCT8/refIDCT8 oracles bit for bit.
var dctCos = func() (t [blockSize][blockSize]float64) {
	for k := range t {
		for n := range t[k] {
			t[k][n] = math.Cos(math.Pi * float64(k) * (2*float64(n) + 1) / 16)
		}
	}
	return t
}()

// dct8 performs the 8-point forward DCT-II on one row/column.
func dct8(in, out []float64) {
	for k := 0; k < blockSize; k++ {
		var acc float64
		for n := 0; n < blockSize; n++ {
			acc += in[n] * dctCos[k][n]
		}
		c := 0.5
		if k == 0 {
			c = 1 / (2 * math.Sqrt2)
		}
		out[k] = c * acc
	}
}

// idct8 inverts dct8.
func idct8(in, out []float64) {
	for n := 0; n < blockSize; n++ {
		var acc float64
		for k := 0; k < blockSize; k++ {
			c := 1.0
			if k == 0 {
				c = 1 / math.Sqrt2
			}
			acc += c * in[k] * dctCos[k][n]
		}
		out[n] = acc / 2
	}
}

func forwardDCT(block *[64]float64) {
	var tmp, row, out [8]float64
	// Rows.
	for y := 0; y < blockSize; y++ {
		copy(row[:], block[y*8:y*8+8])
		dct8(row[:], out[:])
		copy(block[y*8:y*8+8], out[:])
	}
	// Columns.
	for x := 0; x < blockSize; x++ {
		for y := 0; y < blockSize; y++ {
			tmp[y] = block[y*8+x]
		}
		dct8(tmp[:], out[:])
		for y := 0; y < blockSize; y++ {
			block[y*8+x] = out[y]
		}
	}
}

func inverseDCT(block *[64]float64) {
	var tmp, out [8]float64
	for x := 0; x < blockSize; x++ {
		for y := 0; y < blockSize; y++ {
			tmp[y] = block[y*8+x]
		}
		idct8(tmp[:], out[:])
		for y := 0; y < blockSize; y++ {
			block[y*8+x] = out[y]
		}
	}
	for y := 0; y < blockSize; y++ {
		copy(tmp[:], block[y*8:y*8+8])
		idct8(tmp[:], out[:])
		copy(block[y*8:y*8+8], out[:])
	}
}

// Per-block instruction estimate for the 8051-class core with soft float:
// two 1-D DCT passes (8×8×8 MACs each) plus quantisation and coding.
const instPerBlock = 2*8*8*8*45 + 64*60

// CompressImage encodes an 8-bit greyscale image. quality follows the JPEG
// convention (1–100). The return blob round-trips through DecompressImage
// with bounded loss.
func CompressImage(pixels []byte, w, h, quality int) ([]byte, Stats, error) {
	if w <= 0 || h <= 0 || w%blockSize != 0 || h%blockSize != 0 {
		return nil, Stats{}, fmt.Errorf("compress: image %dx%d must be positive multiples of 8", w, h)
	}
	if len(pixels) != w*h {
		return nil, Stats{}, fmt.Errorf("compress: %d pixels for %dx%d image", len(pixels), w, h)
	}
	q := quantTable(quality)
	var inst int64
	st := encPool.Get().(*encState)
	defer encPool.Put(st)

	// Transform and quantise every block, building the symbol stream:
	// DC delta first, then AC run/value pairs ending in EOB.
	syms := st.syms[:0]
	var values []int16
	prevDC := 0
	for by := 0; by < h; by += blockSize {
		for bx := 0; bx < w; bx += blockSize {
			var block [64]float64
			for y := 0; y < blockSize; y++ {
				for x := 0; x < blockSize; x++ {
					block[y*8+x] = float64(pixels[(by+y)*w+bx+x]) - 128
				}
			}
			forwardDCT(&block)
			inst += instPerBlock

			var coef [64]int
			for i := 0; i < 64; i++ {
				pos := zigzag[i]
				coef[i] = int(math.Round(block[pos] / float64(q[pos])))
			}

			// DC: delta from the previous block.
			dc := coef[0] - prevDC
			prevDC = coef[0]
			syms = append(syms, dcSymbol(dc))
			values = append(values, int16(dc))

			// AC: zero-run coding.
			run := 0
			lastNZ := 0
			for i := 63; i >= 1; i-- {
				if coef[i] != 0 {
					lastNZ = i
					break
				}
			}
			for i := 1; i <= lastNZ; i++ {
				if coef[i] == 0 {
					run++
					if run == 16 {
						syms = append(syms, zrlImgSym)
						run = 0
					}
					continue
				}
				syms = append(syms, acSymbol(run, coef[i]))
				values = append(values, int16(coef[i]))
				run = 0
			}
			syms = append(syms, eobImgSym)
		}
	}

	st.syms = syms // keep the grown buffer for the next call

	// Entropy-code the symbol stream; coefficient values follow each
	// symbol as sign+magnitude bits of the symbol's size class.
	for i := range st.freq {
		st.freq[i] = 0
	}
	for _, s := range syms {
		st.freq[s]++
	}
	lengths := st.buildCodeLengthsInto(15)
	codes := canonicalCodesInto(st.codes, lengths)

	st.bw.reset()
	bw := &st.bw
	vi := 0
	for _, s := range syms {
		bw.write(codes[s].bits, codes[s].n)
		if s == eobImgSym || s == zrlImgSym {
			continue
		}
		size := int(s) & 0x0F
		if size > 0 {
			bw.write(encodeMagnitude(int(values[vi]), size), uint8(size))
		}
		vi++
	}
	body := bw.finish()
	inst += int64(len(syms)) * instPerSymbol

	table := st.packLengthsInto(lengths)
	out := make([]byte, 12, 12+len(table)+len(body))
	binary.LittleEndian.PutUint16(out[0:], imgMagic)
	out[2] = byte(quality)
	binary.LittleEndian.PutUint16(out[4:], uint16(w))
	binary.LittleEndian.PutUint16(out[6:], uint16(h))
	binary.LittleEndian.PutUint32(out[8:], uint32(len(syms)))
	out = append(out, table...)
	out = append(out, body...)

	return out, Stats{InBytes: len(pixels), OutBytes: len(out), Instructions: inst}, nil
}

// dcSymbol encodes a DC delta as its size class in the low nibble (high
// nibble zero, distinguishing it from AC run/size symbols by position).
func dcSymbol(v int) uint16 { return uint16(sizeClass(v)) }

// acSymbol packs (run, size) like JPEG: run in the high nibble.
func acSymbol(run, v int) uint16 { return uint16(run<<4 | sizeClass(v)) }

func sizeClass(v int) int {
	if v < 0 {
		v = -v
	}
	size := 0
	for v > 0 {
		size++
		v >>= 1
	}
	return size
}

// encodeMagnitude is JPEG's one's-complement magnitude coding.
func encodeMagnitude(v, size int) uint32 {
	if v >= 0 {
		return uint32(v)
	}
	return uint32(v + (1 << size) - 1)
}

func decodeMagnitude(bits uint32, size int) int {
	if size == 0 {
		return 0
	}
	if bits>>(size-1) != 0 {
		return int(bits)
	}
	return int(bits) - (1 << size) + 1
}

var errCorruptAC = errors.New("compress: corrupt AC stream")

// DecompressImage decodes CompressImage's output, returning the pixels and
// dimensions.
func DecompressImage(blob []byte) ([]byte, int, int, Stats, error) {
	if len(blob) < 12 || binary.LittleEndian.Uint16(blob) != imgMagic {
		return nil, 0, 0, Stats{}, errors.New("compress: not an image blob")
	}
	quality := int(blob[2])
	w := int(binary.LittleEndian.Uint16(blob[4:]))
	h := int(binary.LittleEndian.Uint16(blob[6:]))
	nSyms := int(binary.LittleEndian.Uint32(blob[8:]))
	if w <= 0 || h <= 0 || w%blockSize != 0 || h%blockSize != 0 {
		return nil, 0, 0, Stats{}, errors.New("compress: bad image dimensions")
	}
	rest := blob[12:]
	tableLen := numImgSyms / 2
	if len(rest) < tableLen {
		return nil, 0, 0, Stats{}, errors.New("compress: truncated image code table")
	}
	ds := decPool.Get().(*decState)
	defer decPool.Put(ds)
	lengths := ds.unpackLengthsInto(rest[:tableLen])
	codes := canonicalCodesInto(ds.codes, lengths)
	dec, err := ds.resetDecoderInto(lengths, codes)
	if err != nil {
		return nil, 0, 0, Stats{}, err
	}

	q := quantTable(quality)
	br := bitReader{data: rest[tableLen:]}
	pixels := make([]byte, w*h)
	var inst int64

	blocks := (w / blockSize) * (h / blockSize)
	prevDC := 0
	symCount := 0
	bi := 0
	for b := 0; b < blocks; b++ {
		var coef [64]int
		// DC.
		s, _, err := dec.next(&br)
		if err != nil {
			return nil, 0, 0, Stats{}, err
		}
		symCount++
		size := s & 0x0F
		bits := uint32(0)
		if size > 0 {
			if bits, err = br.read(uint8(size)); err != nil {
				return nil, 0, 0, Stats{}, err
			}
		}
		prevDC += decodeMagnitude(bits, size)
		coef[0] = prevDC

		// AC until EOB. The encoder ends every block with EOB, also one
		// whose last (64th) coefficient is nonzero, so EOB is read in
		// every block and any other symbol past the 64th is corrupt.
		for i := 1; ; {
			s, _, err := dec.next(&br)
			if err != nil {
				return nil, 0, 0, Stats{}, err
			}
			symCount++
			if s == eobImgSym {
				break
			}
			if s == zrlImgSym {
				if i += 16; i >= 64 {
					return nil, 0, 0, Stats{}, errCorruptAC
				}
				continue
			}
			run, size := s>>4, s&0x0F
			i += run
			if i >= 64 || size == 0 {
				return nil, 0, 0, Stats{}, errCorruptAC
			}
			bits, err := br.read(uint8(size))
			if err != nil {
				return nil, 0, 0, Stats{}, err
			}
			coef[i] = decodeMagnitude(bits, size)
			i++
		}

		// Dequantise (undoing zig-zag), inverse transform, store.
		var block [64]float64
		for k := 0; k < 64; k++ {
			pos := zigzag[k]
			block[pos] = float64(coef[k] * q[pos])
		}
		inverseDCT(&block)
		inst += instPerBlock

		bw := w / blockSize
		bx, by := (bi%bw)*blockSize, (bi/bw)*blockSize
		for y := 0; y < blockSize; y++ {
			for x := 0; x < blockSize; x++ {
				v := math.Round(block[y*8+x] + 128)
				if v < 0 {
					v = 0
				}
				if v > 255 {
					v = 255
				}
				pixels[(by+y)*w+bx+x] = byte(v)
			}
		}
		bi++
	}
	if symCount != nSyms {
		return nil, 0, 0, Stats{}, fmt.Errorf("compress: decoded %d symbols, header says %d", symCount, nSyms)
	}
	return pixels, w, h, Stats{InBytes: len(blob), OutBytes: len(pixels), Instructions: inst}, nil
}

// PSNR reports the peak signal-to-noise ratio between two equal-length
// 8-bit images, the standard lossy-codec quality metric (dB; +Inf for
// identical inputs).
func PSNR(a, b []byte) float64 {
	if len(a) != len(b) || len(a) == 0 {
		panic("compress: PSNR needs equal non-empty inputs")
	}
	var mse float64
	for i := range a {
		d := float64(a[i]) - float64(b[i])
		mse += d * d
	}
	mse /= float64(len(a))
	if mse == 0 {
		return math.Inf(1)
	}
	return 10 * math.Log10(255*255/mse)
}
