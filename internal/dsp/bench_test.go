package dsp

import (
	"math/rand"
	"testing"
)

func randSignal(n int) []float64 {
	rng := rand.New(rand.NewSource(1))
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.NormFloat64()
	}
	return out
}

func BenchmarkFFT1024(b *testing.B) {
	x := make([]complex128, 1024)
	src := randSignal(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range x {
			x[j] = complex(src[j], 0)
		}
		FFT(x)
	}
}

func BenchmarkFIR64Taps(b *testing.B) {
	x := randSignal(8192)
	taps := LowPassTaps(64, 0.1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FIRFilter(x, taps)
	}
}

func BenchmarkARFitOrder4(b *testing.B) {
	x := randSignal(8192)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ARFit(x, 4); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMatchPattern(b *testing.B) {
	x := randSignal(4096)
	template := randSignal(30)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatchPattern(x, template)
	}
}
