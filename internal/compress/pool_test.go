package compress

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

// referenceCompress is the pre-pooling encoder, built from the reference
// helpers with a fresh allocation at every step. The pooled Compress must
// be byte-identical to it on every input.
func referenceCompress(data []byte, stride, order int) []byte {
	work := data
	if stride > 0 && order > 0 && len(data) > stride {
		if stride > 1 {
			work = transpose(data, stride)
		}
		work = deltaEncode(work, 1)
		if order == 2 {
			work = deltaEncode(work, 1)
		}
	} else {
		stride, order = 0, 0
	}
	syms, extras := rleEncode(work)
	freq := make([]int, numSyms)
	for _, s := range syms {
		freq[s]++
	}
	freq[eobSym]++
	lengths := buildCodeLengths(freq, 15)
	codes := canonicalCodes(lengths)
	var bw bitWriter
	ei := 0
	for _, s := range syms {
		bw.write(codes[s].bits, codes[s].n)
		if s == zrunSym {
			bw.write(uint32(extras[ei]), 8)
			ei++
		}
	}
	bw.write(codes[eobSym].bits, codes[eobSym].n)
	body := bw.finish()
	table := packLengths(lengths)
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
	return out
}

// referenceDecode decodes a Huffman-mode body with the reference
// fresh-allocation decoder (unpackLengths + newDecoder), for A/B against
// the pooled Decompress path.
func referenceDecode(blob []byte) ([]byte, error) {
	stride := int(blob[3] & 0x0F)
	order := int(blob[3] >> 4)
	origLen := int(binary.LittleEndian.Uint32(blob[4:]))
	rest := blob[8:]
	tableLen := numSyms / 2
	lengths := unpackLengths(rest[:tableLen])
	codes := canonicalCodes(lengths)
	dec, err := newDecoder(lengths, codes)
	if err != nil {
		return nil, err
	}
	br := bitReader{data: rest[tableLen:]}
	work := make([]byte, 0, origLen)
	for {
		s, _, err := dec.next(&br)
		if err != nil {
			return nil, err
		}
		if s == eobSym {
			break
		}
		if s == zrunSym {
			n, err := br.read(8)
			if err != nil {
				return nil, err
			}
			for i := 0; i < int(n)+1; i++ {
				work = append(work, 0)
			}
			continue
		}
		work = append(work, byte(s))
	}
	for i := 0; i < order && stride > 0; i++ {
		deltaDecode(work, 1)
	}
	if stride > 1 && order > 0 {
		work = untranspose(work, stride)
	}
	return work, nil
}

// randomStream mixes smooth multi-byte samples, zero stretches, and noise —
// the regimes that exercise transpose, RLE, raw fallback, and tree shapes.
func randomStream(rng *rand.Rand) []byte {
	n := rng.Intn(2000)
	out := make([]byte, n)
	mode := rng.Intn(3)
	v := rng.Intn(256)
	for i := range out {
		switch mode {
		case 0: // smooth ramp
			v += rng.Intn(3) - 1
			out[i] = byte(v)
		case 1: // sparse with zero runs
			if rng.Intn(4) == 0 {
				out[i] = byte(rng.Intn(256))
			}
		default: // noise (forces the stored-block fallback)
			out[i] = byte(rng.Intn(256))
		}
	}
	return out
}

// TestPooledCompressMatchesReference interleaves many differently shaped
// packets through the shared pools and checks each output against the
// fresh-allocation reference encoder, then round-trips it. Any stale byte
// surviving a pool recycle, or any divergence in the arena-backed Huffman
// build, shows up as a byte mismatch.
func TestPooledCompressMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 400; trial++ {
		data := randomStream(rng)
		stride := rng.Intn(9)
		order := rng.Intn(3)
		got, _ := Compress(data, stride, order)
		want := referenceCompress(data, stride, order)
		if !bytes.Equal(got, want) {
			t.Fatalf("trial %d (n=%d stride=%d order=%d): pooled output diverges from reference",
				trial, len(data), stride, order)
		}
		back, _, err := Decompress(got)
		if err != nil {
			t.Fatalf("trial %d: Decompress: %v", trial, err)
		}
		if !bytes.Equal(back, data) {
			t.Fatalf("trial %d: round trip lost data", trial)
		}
		if got[2] == modeHuff {
			ref, err := referenceDecode(got)
			if err != nil {
				t.Fatalf("trial %d: reference decode: %v", trial, err)
			}
			if !bytes.Equal(ref, data) {
				t.Fatalf("trial %d: reference decode mismatch", trial)
			}
		}
	}
}

// TestDecompressOutputIsCallerOwned ensures the returned slice never
// aliases pool memory: a later call must not mutate an earlier result.
func TestDecompressOutputIsCallerOwned(t *testing.T) {
	a := bytes.Repeat([]byte{1, 2, 3, 4}, 64)
	b := bytes.Repeat([]byte{9, 8, 7, 6}, 64)
	ca, _ := Compress(a, 4, 1)
	cb, _ := Compress(b, 4, 1)
	outA, _, err := Decompress(ca)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := append([]byte(nil), outA...)
	if _, _, err := Decompress(cb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(outA, snapshot) {
		t.Fatal("Decompress result mutated by a later call: output aliases the pool")
	}
}

// raceEnabled reports a build with the race detector (see race_test.go).
var raceEnabled bool

// TestCompressAllocBudget pins the steady-state allocation budget of a
// Compress/Decompress round trip once the pools are warm.
//
// Budget accounting — Compress: the caller-owned output slice plus at most
// one append when the stored-block fallback copies the input (≤2).
// Decompress: its decode buffer, which it returns unless untranspose
// copies it into a fresh slice, plus pool.Get bookkeeping (≤3). A little slack covers size-class noise;
// the pre-pooling implementation sat in the hundreds, so the budget of 8
// still fails loudly on any pooling regression.
//
// Under the race detector sync.Pool.Put drops one state in four at
// random, and the next Get rebuilds it. On this input a rebuilt encState
// costs 33 allocations (New's 7, plus the planes, symbol streams, length
// table and bit buffer the call grows again) and a rebuilt decState at
// most 10 (New's 3, plus the decoder's symbol table): 43 for a round trip
// that finds both pools empty, as measured on a round trip after two
// collections. The race build allows that worst case on top,
// so the luck of the drops never fails it (the mean is about a quarter
// of it), while an allocation per symbol still costs thousands.
func TestCompressAllocBudget(t *testing.T) {
	budget := 8.0
	if raceEnabled {
		budget += 43
	}
	data := make([]byte, 4096)
	for i := range data {
		data[i] = byte(i / 7)
	}
	// Warm the pools to high-water size.
	blob, _ := Compress(data, 4, 2)
	if _, _, err := Decompress(blob); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		c, _ := Compress(data, 4, 2)
		if _, _, err := Decompress(c); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > budget {
		t.Fatalf("round-trip allocs = %v, want ≤ %v", allocs, budget)
	}
}
