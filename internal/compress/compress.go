// Package compress implements the node-local lossless compressor used by
// the buffered sensing-buffering-computing-compression-transmission
// strategy (§5.1). The deployed systems used bzip or jpeg; this is a
// stdlib-free equivalent tuned for WSN sample streams:
//
//  1. a byte-wise delta filter at the record stride, which turns smooth
//     multi-byte sample streams into long runs of zeros and small values;
//  2. zero run-length encoding; and
//  3. a canonical Huffman entropy coder.
//
// On the synthetic sensor streams of this repository it reaches the paper's
// 3–14.5% compressed-size band for 64 kB buffers. Every call also reports
// an instruction-count estimate so callers can charge the compression work
// to the node's CPU energy budget (compression "requires a large amount of
// computation energy", §5.1).
package compress

import "encoding/binary"

// Stats reports the work done by a codec call.
type Stats struct {
	// InBytes and OutBytes are the payload sizes before and after.
	InBytes, OutBytes int
	// Instructions estimates the 8051-class instruction count of the call,
	// for CPU energy accounting.
	Instructions int64
}

// Ratio is OutBytes/InBytes (0 for empty input).
func (s Stats) Ratio() float64 {
	if s.InBytes == 0 {
		return 0
	}
	return float64(s.OutBytes) / float64(s.InBytes)
}

// Instruction-cost coefficients of the compression pipeline on the
// 8051-class core: derived from hand-counted inner loops of a C
// implementation (delta: load/sub/store + index; histogram: load/inc;
// encode: table lookup + bit pack per symbol; tree build amortised).
const (
	instPerDeltaByte   = 6
	instPerHistoByte   = 4
	instPerSymbol      = 18
	instPerOutputByte  = 8
	instTreeBuild      = 9000
	instPerDecodeBit   = 3
	instPerUndeltaByte = 5
)

const (
	zrunSym = 256 // symbol marking a zero run; followed by 8 bits (len-1)
	eobSym  = 257 // end of block
	numSyms = 258
	// minRun is the shortest zero run worth a zrun token: shorter runs are
	// cheaper as literal zeros (the token costs 8 extra length bits).
	minRun   = 8
	maxRun   = 256
	magic    = 0x4E46 // "NF"
	modeHuff = 1
	modeRaw  = 0
)

// Compress encodes data. stride is the record size of the underlying
// sample stream (the delta filter distance) and order is how many delta
// passes to apply (0–2): order 1 removes a constant baseline, order 2 also
// removes smooth trends such as oversampled sinusoidal vibration. stride
// must be ≤ 15; stride ≤ 0 or order ≤ 0 disables the delta stage. If the
// encoded form would be no smaller than the input, a stored block is
// emitted instead, so Compress never expands by more than the 8-byte
// header.
func Compress(data []byte, stride, order int) ([]byte, Stats) {
	var inst int64
	if stride > 15 {
		panic("compress: stride must be ≤ 15")
	}
	if order < 0 || order > 2 {
		panic("compress: order must be 0–2")
	}

	st := encPool.Get().(*encState)
	defer encPool.Put(st)

	// For multi-byte records the byte planes are transposed first (all
	// first bytes, then all second bytes, …): each plane of a smooth
	// sample stream is itself smooth, and near-constant planes (sign/high
	// bytes) collapse into long zero runs after the delta. The delta then
	// runs at stride 1 within the plane-major layout. The two scratch
	// planes ping-pong so no delta pass reads the plane it writes.
	work := data
	if stride > 0 && order > 0 && len(data) > stride {
		if stride > 1 {
			work = st.transposeInto(data, stride)
			inst += int64(len(data)) * instPerDeltaByte
		}
		st.plane2 = deltaInto(st.plane2, work)
		work = st.plane2
		inst += int64(len(data)) * instPerDeltaByte
		if order == 2 {
			st.plane1 = deltaInto(st.plane1, work)
			work = st.plane1
			inst += int64(len(data)) * instPerDeltaByte
		}
	} else {
		stride, order = 0, 0
	}

	syms, extras := st.rleInto(work)
	inst += int64(len(work)) * instPerHistoByte

	for i := range st.freq {
		st.freq[i] = 0
	}
	for _, s := range syms {
		st.freq[s]++
	}
	st.freq[eobSym]++

	lengths := st.buildCodeLengthsInto(15)
	codes := canonicalCodesInto(st.codes, lengths)
	inst += instTreeBuild

	st.bw.reset()
	bw := &st.bw
	ei := 0
	for _, s := range syms {
		bw.write(codes[s].bits, codes[s].n)
		if s == zrunSym {
			bw.write(uint32(extras[ei]), 8)
			ei++
		}
	}
	bw.write(codes[eobSym].bits, codes[eobSym].n)
	inst += int64(len(syms)+1) * instPerSymbol

	body := bw.finish()
	table := st.packLengthsInto(lengths)

	// Header: magic(2) mode(1) stride|order<<4 (1) origLen(4).
	out := make([]byte, 8, 8+len(table)+len(body))
	binary.LittleEndian.PutUint16(out[0:], magic)
	out[3] = byte(stride) | byte(order)<<4
	binary.LittleEndian.PutUint32(out[4:], uint32(len(data)))

	if 8+len(table)+len(body) >= 8+len(data) {
		out[2] = modeRaw
		out = append(out, data...)
	} else {
		out[2] = modeHuff
		out = append(out, table...)
		out = append(out, body...)
	}
	inst += int64(len(out)) * instPerOutputByte

	return out, Stats{InBytes: len(data), OutBytes: len(out), Instructions: inst}
}
