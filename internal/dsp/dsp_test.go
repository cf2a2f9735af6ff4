package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFFTKnownSpectrum(t *testing.T) {
	// A pure cosine at bin 3 of a 64-point FFT puts energy only at bins 3
	// and 61.
	n := 64
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(math.Cos(2*math.Pi*3*float64(i)/float64(n)), 0)
	}
	cost, err := FFT(x)
	if err != nil {
		t.Fatal(err)
	}
	if cost.Instructions <= 0 {
		t.Fatal("FFT must report a cost")
	}
	for k := range x {
		mag := cmplx.Abs(x[k])
		if k == 3 || k == 61 {
			if math.Abs(mag-32) > 1e-9 {
				t.Fatalf("bin %d magnitude %v, want 32", k, mag)
			}
		} else if mag > 1e-9 {
			t.Fatalf("bin %d should be empty, got %v", k, mag)
		}
	}
}

func TestFFTRejectsBadLength(t *testing.T) {
	for _, n := range []int{0, 3, 12, 100} {
		if _, err := FFT(make([]complex128, n)); err == nil {
			t.Errorf("FFT(%d) should fail", n)
		}
	}
}

// Property: IFFT(FFT(x)) == x for random signals.
func TestFFTRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 << (3 + rng.Intn(5)) // 8..128
		x := make([]complex128, n)
		orig := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			orig[i] = x[i]
		}
		if _, err := FFT(x); err != nil {
			return false
		}
		if _, err := IFFT(x); err != nil {
			return false
		}
		for i := range x {
			if cmplx.Abs(x[i]-orig[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Parseval: energy in time domain equals energy in frequency domain / N.
func TestFFTParseval(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 256
	x := make([]complex128, n)
	var tEnergy float64
	for i := range x {
		x[i] = complex(rng.NormFloat64(), 0)
		tEnergy += real(x[i]) * real(x[i])
	}
	FFT(x)
	var fEnergy float64
	for _, v := range x {
		fEnergy += real(v)*real(v) + imag(v)*imag(v)
	}
	if math.Abs(fEnergy/float64(n)-tEnergy) > 1e-6*tEnergy {
		t.Fatalf("Parseval violated: %v vs %v", fEnergy/float64(n), tEnergy)
	}
}

func TestFIRLowPass(t *testing.T) {
	taps := LowPassTaps(63, 0.05)
	// Unity DC gain by construction.
	var sum float64
	for _, v := range taps {
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("DC gain = %v", sum)
	}
	// A low-frequency sine passes; a high-frequency sine is attenuated.
	n := 1024
	lo, hi := make([]float64, n), make([]float64, n)
	for i := range lo {
		lo[i] = math.Sin(2 * math.Pi * 0.01 * float64(i))
		hi[i] = math.Sin(2 * math.Pi * 0.4 * float64(i))
	}
	loOut, cost := FIRFilter(lo, taps)
	hiOut, _ := FIRFilter(hi, taps)
	if cost.Instructions != int64(n)*63*instPerMAC {
		t.Fatalf("FIR cost = %d", cost.Instructions)
	}
	if rms(loOut[200:]) < 0.6 {
		t.Fatalf("low frequency attenuated: rms=%v", rms(loOut[200:]))
	}
	if rms(hiOut[200:]) > 0.05 {
		t.Fatalf("high frequency passed: rms=%v", rms(hiOut[200:]))
	}
}

func rms(x []float64) float64 {
	var ss float64
	for _, v := range x {
		ss += v * v
	}
	return math.Sqrt(ss / float64(len(x)))
}

func TestARFitRecoversKnownProcess(t *testing.T) {
	// Generate an AR(2) process x[i] = 1.5x[i-1] - 0.7x[i-2] + e and check
	// the fit recovers the coefficients.
	rng := rand.New(rand.NewSource(9))
	n := 20000
	x := make([]float64, n)
	for i := 2; i < n; i++ {
		x[i] = 1.5*x[i-1] - 0.7*x[i-2] + rng.NormFloat64()
	}
	coeffs, cost, err := ARFit(x, 2)
	if err != nil {
		t.Fatal(err)
	}
	if cost.Instructions <= 0 {
		t.Fatal("ARFit must report a cost")
	}
	if math.Abs(coeffs[0]-1.5) > 0.05 || math.Abs(coeffs[1]+0.7) > 0.05 {
		t.Fatalf("coeffs = %v, want ≈[1.5 -0.7]", coeffs)
	}
}

func TestARPredictErrorDetectsDamage(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	healthy := make([]float64, 8000)
	for i := 2; i < len(healthy); i++ {
		healthy[i] = 1.5*healthy[i-1] - 0.7*healthy[i-2] + rng.NormFloat64()
	}
	coeffs, _, err := ARFit(healthy, 2)
	if err != nil {
		t.Fatal(err)
	}
	baseErr, _ := ARPredictError(healthy, coeffs)

	// A "damaged" structure has shifted dynamics.
	damaged := make([]float64, 8000)
	for i := 2; i < len(damaged); i++ {
		damaged[i] = 1.1*damaged[i-1] - 0.5*damaged[i-2] + rng.NormFloat64()
	}
	dmgErr, _ := ARPredictError(damaged, coeffs)
	if dmgErr <= baseErr*1.05 {
		t.Fatalf("damage indicator failed: healthy=%v damaged=%v", baseErr, dmgErr)
	}
}

func TestARFitErrors(t *testing.T) {
	if _, _, err := ARFit([]float64{1, 2}, 5); err == nil {
		t.Fatal("short input should fail")
	}
	if _, _, err := ARFit(make([]float64, 100), 2); err == nil {
		t.Fatal("zero signal should fail")
	}
}

func TestMatchPatternFindsTemplate(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	template := make([]float64, 50)
	for i := range template {
		template[i] = math.Sin(float64(i) / 3)
	}
	x := make([]float64, 500)
	for i := range x {
		x[i] = rng.NormFloat64() * 0.1
	}
	const at = 217
	for i, v := range template {
		x[at+i] += v * 3
	}
	lag, corr, cost := MatchPattern(x, template)
	if lag != at {
		t.Fatalf("lag = %d, want %d", lag, at)
	}
	if corr < 0.9 {
		t.Fatalf("corr = %v, want ≥0.9", corr)
	}
	if cost.Instructions <= 0 {
		t.Fatal("MatchPattern must report a cost")
	}
}

func TestMatchPatternDegenerate(t *testing.T) {
	if _, _, c := MatchPattern(nil, []float64{1}); c.Instructions != 0 {
		t.Fatal("empty x should be free")
	}
	if _, _, c := MatchPattern([]float64{1, 2}, nil); c.Instructions != 0 {
		t.Fatal("empty template should be free")
	}
	// Constant signal: correlation undefined → zero, no NaN.
	lag, corr, _ := MatchPattern([]float64{5, 5, 5, 5}, []float64{5, 5})
	if math.IsNaN(corr) {
		t.Fatal("NaN correlation")
	}
	_ = lag
}

func TestByteConversions(t *testing.T) {
	raw := []byte{0x01, 0x00, 0xFF, 0xFF, 0x10, 0x27} // 1, -1, 10000
	f := Bytes16ToFloat(raw, 0, 2)
	if len(f) != 3 || f[0] != 1 || f[1] != -1 || f[2] != 10000 {
		t.Fatalf("Bytes16ToFloat = %v", f)
	}
	// Offset/stride extraction: second channel of 4-byte records.
	raw2 := []byte{1, 0, 2, 0, 3, 0, 4, 0}
	f2 := Bytes16ToFloat(raw2, 2, 4)
	if len(f2) != 2 || f2[0] != 2 || f2[1] != 4 {
		t.Fatalf("channel extraction = %v", f2)
	}
	b := BytesToFloat([]byte{0, 128, 255})
	if b[0] != 0 || b[1] != 128 || b[2] != 255 {
		t.Fatalf("BytesToFloat = %v", b)
	}
}

func TestCostAdd(t *testing.T) {
	if got := (Cost{3}).Add(Cost{4}); got.Instructions != 7 {
		t.Fatalf("Add = %+v", got)
	}
}

// IFFT computes the inverse FFT (same length restriction).
func IFFT(x []complex128) (Cost, error) {
	for i := range x {
		x[i] = cmplx.Conj(x[i])
	}
	c, err := FFT(x)
	if err != nil {
		return c, err
	}
	invN := complex(1/float64(len(x)), 0)
	for i := range x {
		x[i] = cmplx.Conj(x[i]) * invN
	}
	c.Instructions += int64(len(x)) * instPerMAC
	return c, nil
}
