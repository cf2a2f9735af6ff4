package cpu

import "testing"

func BenchmarkForwardProgressRatio(b *testing.B) {
	vp, nvp := NewVP(Default8051()), NewNVP(Default8051())
	for i := 0; i < b.N; i++ {
		ForwardProgressRatio(vp, nvp, 50000, 22000, 30000)
	}
}
