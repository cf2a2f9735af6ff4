package compress

import (
	"math"
	"math/rand"
	"testing"

	"neofog/internal/sensors"
)

// testFrame synthesises a QCIF-ish greyscale frame from the image source.
func testFrame(t testing.TB, w, h int) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	return sensors.Fill(&sensors.ImageSource{}, w*h, rng)
}

// TestDCTMatchesCosineOracle checks the table-driven transforms against
// refDCT8 and refIDCT8 bit for bit, on every row of level-shifted random,
// all-0 and all-255 blocks and on the coefficients those rows transform
// to.
func TestDCTMatchesCosineOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var blocks [][64]byte
	for b := 0; b < 64; b++ {
		var px [64]byte
		rng.Read(px[:])
		blocks = append(blocks, px)
	}
	var zero, full [64]byte
	for i := range full {
		full[i] = 255
	}
	blocks = append(blocks, zero, full)

	same := func(a, b [8]float64) bool {
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return false
			}
		}
		return true
	}
	for bi, px := range blocks {
		for y := 0; y < blockSize; y++ {
			var row, got, want [8]float64
			for x := range row {
				row[x] = float64(px[y*8+x]) - 128
			}
			dct8(row[:], got[:])
			refDCT8(row[:], want[:])
			if !same(got, want) {
				t.Fatalf("block %d row %d: dct8 %v, oracle %v", bi, y, got, want)
			}
			coef := got
			idct8(coef[:], got[:])
			refIDCT8(coef[:], want[:])
			if !same(got, want) {
				t.Fatalf("block %d row %d: idct8 %v, oracle %v", bi, y, got, want)
			}
		}
	}
}

func TestZigzagIsPermutation(t *testing.T) {
	seen := map[int]bool{}
	for _, p := range zigzag {
		if p < 0 || p >= 64 || seen[p] {
			t.Fatalf("zigzag not a permutation: %v", zigzag)
		}
		seen[p] = true
	}
	// JPEG's canonical start: 0, 1, 8, 16, 9, 2, ...
	want := []int{0, 1, 8, 16, 9, 2, 3, 10}
	for i, w := range want {
		if zigzag[i] != w {
			t.Fatalf("zigzag[%d] = %d, want %d", i, zigzag[i], w)
		}
	}
}

func TestDCTRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var block, orig [64]float64
	for i := range block {
		block[i] = rng.Float64()*255 - 128
		orig[i] = block[i]
	}
	forwardDCT(&block)
	inverseDCT(&block)
	for i := range block {
		if math.Abs(block[i]-orig[i]) > 1e-9 {
			t.Fatalf("DCT round trip error %g at %d", block[i]-orig[i], i)
		}
	}
}

func TestDCTDCCoefficient(t *testing.T) {
	// A constant block's energy must collapse into the DC coefficient.
	var block [64]float64
	for i := range block {
		block[i] = 100
	}
	forwardDCT(&block)
	if math.Abs(block[0]-800) > 1e-9 { // 8 × 100 for the orthonormal DCT
		t.Fatalf("DC = %v, want 800", block[0])
	}
	for i := 1; i < 64; i++ {
		if math.Abs(block[i]) > 1e-9 {
			t.Fatalf("AC[%d] = %v, want 0", i, block[i])
		}
	}
}

func TestQuantTableQuality(t *testing.T) {
	q50, q80, q10 := quantTable(50), quantTable(80), quantTable(10)
	if q50 != baseQuant {
		t.Fatal("quality 50 must reproduce the base matrix")
	}
	for i := range q80 {
		if q80[i] > q50[i] {
			t.Fatal("higher quality must not quantise harder")
		}
		if q10[i] < q50[i] {
			t.Fatal("lower quality must quantise harder")
		}
	}
	// Clamping.
	if q := quantTable(0); q != quantTable(1) {
		t.Fatal("quality clamps at 1")
	}
	if q := quantTable(999); q != quantTable(100) {
		t.Fatal("quality clamps at 100")
	}
}

func TestMagnitudeCoding(t *testing.T) {
	for v := -300; v <= 300; v++ {
		size := sizeClass(v)
		if v != 0 && size == 0 {
			t.Fatalf("sizeClass(%d) = 0", v)
		}
		got := decodeMagnitude(encodeMagnitude(v, size), size)
		if got != v {
			t.Fatalf("magnitude round trip %d → %d (size %d)", v, got, size)
		}
	}
}

func TestImageRoundTripQuality(t *testing.T) {
	const w, h = 176, 144 // QCIF
	frame := testFrame(t, w, h)

	for _, tc := range []struct {
		quality int
		minPSNR float64
		maxFrac float64
	}{
		{90, 35, 0.5},
		{75, 33, 0.35},
		{40, 30, 0.25},
	} {
		blob, st, err := CompressImage(frame, w, h, tc.quality)
		if err != nil {
			t.Fatal(err)
		}
		back, gw, gh, _, err := DecompressImage(blob)
		if err != nil {
			t.Fatalf("q%d: %v", tc.quality, err)
		}
		if gw != w || gh != h {
			t.Fatalf("dimensions %dx%d", gw, gh)
		}
		psnr := PSNR(frame, back)
		frac := float64(len(blob)) / float64(len(frame))
		if psnr < tc.minPSNR {
			t.Errorf("q%d: PSNR %.1f dB < %.0f", tc.quality, psnr, tc.minPSNR)
		}
		if frac > tc.maxFrac {
			t.Errorf("q%d: compressed to %.0f%%, want ≤%.0f%%", tc.quality, frac*100, tc.maxFrac*100)
		}
		if st.Instructions <= 0 {
			t.Errorf("q%d: no instruction accounting", tc.quality)
		}
		t.Logf("q%d: %d → %d bytes (%.1f%%), PSNR %.1f dB", tc.quality, len(frame), len(blob), frac*100, psnr)
	}
}

// TestImageRoundTripGrid decodes CompressImage's output over sizes,
// frames and qualities. The encoder ends every block with EOB, also a
// block whose 64th coefficient is nonzero; noisy frames and quality 100
// put many such blocks in the stream. Each quality's PSNR floor sits
// below the noise frame's, and a decoder that skips such an EOB derails
// into an error or into pixels near 10 dB.
func TestImageRoundTripGrid(t *testing.T) {
	minPSNR := map[int]float64{1: 10, 20: 15, 50: 20, 75: 25, 95: 40, 100: 55}
	for _, sz := range [][2]int{{8, 8}, {16, 8}, {64, 64}, {176, 144}} {
		w, h := sz[0], sz[1]
		flat, noise := make([]byte, w*h), make([]byte, w*h)
		for i := range flat {
			flat[i] = 128
		}
		rand.New(rand.NewSource(3)).Read(noise)
		for name, frame := range map[string][]byte{"test": testFrame(t, w, h), "flat": flat, "noise": noise} {
			for q, floor := range minPSNR {
				blob, _, err := CompressImage(frame, w, h, q)
				if err != nil {
					t.Fatal(err)
				}
				back, gw, gh, st, err := DecompressImage(blob)
				if err != nil {
					t.Fatalf("%dx%d %s q%d: %v", w, h, name, q, err)
				}
				if gw != w || gh != h || st.OutBytes != len(back) || len(back) != w*h {
					t.Fatalf("%dx%d %s q%d: decoded %dx%d, %d pixels", w, h, name, q, gw, gh, len(back))
				}
				if psnr := PSNR(frame, back); psnr < floor {
					t.Errorf("%dx%d %s q%d: PSNR %.1f dB < %.0f", w, h, name, q, psnr, floor)
				}
			}
		}
	}
}

func TestImageQualityMonotone(t *testing.T) {
	const w, h = 64, 64
	frame := testFrame(t, w, h)
	lo, _, _ := CompressImage(frame, w, h, 20)
	hi, _, _ := CompressImage(frame, w, h, 95)
	if len(hi) <= len(lo) {
		t.Fatalf("higher quality should cost more bytes: %d vs %d", len(hi), len(lo))
	}
	backLo, _, _, _, _ := DecompressImage(lo)
	backHi, _, _, _, _ := DecompressImage(hi)
	if PSNR(frame, backHi) <= PSNR(frame, backLo) {
		t.Fatal("higher quality should yield higher PSNR")
	}
}

func TestImageErrors(t *testing.T) {
	frame := testFrame(t, 16, 16)
	if _, _, err := CompressImage(frame, 15, 16, 50); err == nil {
		t.Fatal("non-multiple-of-8 width should error")
	}
	if _, _, err := CompressImage(frame[:10], 16, 16, 50); err == nil {
		t.Fatal("short pixel buffer should error")
	}
	if _, _, _, _, err := DecompressImage([]byte{1, 2, 3}); err == nil {
		t.Fatal("garbage should error")
	}
	blob, _, _ := CompressImage(frame, 16, 16, 50)
	blob[2] = 77 // quality mismatch corrupts dequantisation but must not crash
	if _, _, _, _, err := DecompressImage(blob[:len(blob)-4]); err == nil {
		t.Fatal("truncated body should error")
	}
}

func TestPSNRProperties(t *testing.T) {
	a := []byte{1, 2, 3, 4}
	if !math.IsInf(PSNR(a, a), 1) {
		t.Fatal("identical images have infinite PSNR")
	}
	b := []byte{2, 3, 4, 5}
	got := PSNR(a, b)
	want := 10 * math.Log10(255*255/1.0)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("PSNR = %v, want %v", got, want)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched lengths should panic")
		}
	}()
	PSNR(a, b[:2])
}

func BenchmarkCompressImageQCIF(b *testing.B) {
	const w, h = 176, 144
	frame := testFrame(b, w, h)
	b.SetBytes(int64(len(frame)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := CompressImage(frame, w, h, 75); err != nil {
			b.Fatal(err)
		}
	}
}
