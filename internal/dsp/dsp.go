// Package dsp implements the fog-computing kernels that NEOFog offloads
// from the cloud to the nodes (§3.1): FFT, FIR noise filtering,
// autoregressive model fitting for structural-health damage detection
// (Yao & Pakzad [84]) and cross-correlation pattern matching for heartbeat
// monitoring.
//
// Each kernel both computes a real result (so tests can check mathematical
// properties) and reports an instruction-count estimate for the 8051-class
// core, which the node model converts to energy. The per-operation costs
// assume soft floating point on an 8-bit MCU: ~45 instructions per
// multiply-accumulate, which is what makes local computation "dominate the
// computing time and energy rather than compression" (§3.1).
package dsp

import (
	"errors"
	"math"
	"math/cmplx"
)

// Instruction costs per primitive operation on the 8051-class core with
// software floating point.
const (
	instPerMAC       = 45 // multiply-accumulate
	instPerButterfly = 190
	instPerCompare   = 10
	instPerLoad      = 4
)

// Cost accumulates the instruction count of a kernel invocation.
type Cost struct{ Instructions int64 }

// Add merges two costs.
func (c Cost) Add(o Cost) Cost { return Cost{c.Instructions + o.Instructions} }

// FFT computes the in-place radix-2 decimation-in-time FFT of x (length
// must be a power of two) and reports its instruction cost.
func FFT(x []complex128) (Cost, error) {
	n := len(x)
	if n == 0 || n&(n-1) != 0 {
		return Cost{}, errors.New("dsp: FFT length must be a power of two")
	}
	// Bit reversal permutation.
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	// Butterflies.
	butterflies := 0
	for length := 2; length <= n; length <<= 1 {
		ang := -2 * math.Pi / float64(length)
		wl := cmplx.Exp(complex(0, ang))
		for i := 0; i < n; i += length {
			w := complex(1, 0)
			for j := 0; j < length/2; j++ {
				u := x[i+j]
				v := x[i+j+length/2] * w
				x[i+j] = u + v
				x[i+j+length/2] = u - v
				w *= wl
				butterflies++
			}
		}
	}
	return Cost{int64(butterflies) * instPerButterfly}, nil
}

// FIRFilter convolves x with taps (causal, zero-padded history) and reports
// the cost: one MAC per tap per sample — the "noise removal" stage of the
// bridge pipeline.
func FIRFilter(x, taps []float64) ([]float64, Cost) {
	out := make([]float64, len(x))
	for i := range x {
		var acc float64
		for k, t := range taps {
			if i-k >= 0 {
				acc += t * x[i-k]
			}
		}
		out[i] = acc
	}
	return out, Cost{int64(len(x)) * int64(len(taps)) * instPerMAC}
}

// LowPassTaps designs a windowed-sinc low-pass filter with n taps and the
// given normalised cutoff (0..0.5 of the sample rate).
func LowPassTaps(n int, cutoff float64) []float64 {
	if n < 1 || cutoff <= 0 || cutoff > 0.5 {
		panic("dsp: bad low-pass design")
	}
	taps := make([]float64, n)
	var sum float64
	for i := range taps {
		m := float64(i) - float64(n-1)/2
		var v float64
		if m == 0 {
			v = 2 * cutoff
		} else {
			v = math.Sin(2*math.Pi*cutoff*m) / (math.Pi * m)
		}
		// Hamming window.
		v *= 0.54 - 0.46*math.Cos(2*math.Pi*float64(i)/float64(n-1))
		taps[i] = v
		sum += v
	}
	for i := range taps {
		taps[i] /= sum // unity DC gain
	}
	return taps
}

// ARFit fits an autoregressive model of the given order to x by solving the
// Yule-Walker equations with Levinson-Durbin recursion. The coefficient
// vector is the damage-sensitive feature of the structural-health
// monitoring literature the paper builds on [84].
func ARFit(x []float64, order int) ([]float64, Cost, error) {
	if order < 1 || len(x) <= order {
		return nil, Cost{}, errors.New("dsp: AR order must be in [1, len(x))")
	}
	// Autocorrelation r[0..order].
	r := make([]float64, order+1)
	for lag := 0; lag <= order; lag++ {
		var acc float64
		for i := lag; i < len(x); i++ {
			acc += x[i] * x[i-lag]
		}
		r[lag] = acc / float64(len(x))
	}
	cost := Cost{int64(order+1) * int64(len(x)) * instPerMAC}

	if r[0] == 0 {
		return nil, cost, errors.New("dsp: zero-energy signal")
	}
	// Levinson-Durbin.
	a := make([]float64, order+1)
	e := r[0]
	for k := 1; k <= order; k++ {
		acc := r[k]
		for j := 1; j < k; j++ {
			acc -= a[j] * r[k-j]
		}
		refl := acc / e
		a[k] = refl
		for j := 1; j <= k/2; j++ {
			aj, akj := a[j], a[k-j]
			a[j] = aj - refl*akj
			if j != k-j {
				a[k-j] = akj - refl*aj
			}
		}
		e *= 1 - refl*refl
		if e <= 0 {
			return nil, cost, errors.New("dsp: Levinson-Durbin broke down")
		}
	}
	cost.Instructions += int64(order*order) * instPerMAC
	return a[1:], cost, nil
}

// ARPredictError reports the one-step prediction RMS error of AR
// coefficients on x — the damage indicator: a model fit on the healthy
// structure mispredicts once the structure changes.
func ARPredictError(x, coeffs []float64) (float64, Cost) {
	order := len(coeffs)
	if len(x) <= order {
		return 0, Cost{}
	}
	var ss float64
	for i := order; i < len(x); i++ {
		var pred float64
		for k, c := range coeffs {
			pred += c * x[i-1-k]
		}
		d := x[i] - pred
		ss += d * d
	}
	n := len(x) - order
	return math.Sqrt(ss / float64(n)), Cost{int64(n) * int64(order+2) * instPerMAC}
}

// MatchPattern slides template over x and returns the lag with the highest
// normalised cross-correlation and that correlation value — the heartbeat
// pattern-matching kernel.
func MatchPattern(x, template []float64) (bestLag int, bestCorr float64, cost Cost) {
	m := len(template)
	if m == 0 || len(x) < m {
		return 0, 0, Cost{}
	}
	var tMean float64
	for _, v := range template {
		tMean += v
	}
	tMean /= float64(m)
	var tVar float64
	tc := make([]float64, m)
	for i, v := range template {
		tc[i] = v - tMean
		tVar += tc[i] * tc[i]
	}

	bestCorr = math.Inf(-1)
	lags := len(x) - m + 1
	for lag := 0; lag < lags; lag++ {
		var xMean float64
		for i := 0; i < m; i++ {
			xMean += x[lag+i]
		}
		xMean /= float64(m)
		var num, xVar float64
		for i := 0; i < m; i++ {
			xc := x[lag+i] - xMean
			num += xc * tc[i]
			xVar += xc * xc
		}
		corr := 0.0
		if xVar > 0 && tVar > 0 {
			corr = num / math.Sqrt(xVar*tVar)
		}
		if corr > bestCorr {
			bestCorr, bestLag = corr, lag
		}
	}
	cost = Cost{int64(lags) * int64(3*m) * instPerMAC / 2}
	return bestLag, bestCorr, cost
}

// Bytes16ToFloat converts little-endian int16 records (one channel at the
// given offset and stride, both in bytes) into floats — the glue between
// NVBuffer contents and the kernels.
func Bytes16ToFloat(raw []byte, offset, stride int) []float64 {
	if stride <= 0 {
		panic("dsp: non-positive stride")
	}
	var out []float64
	for i := offset; i+1 < len(raw); i += stride {
		v := int16(uint16(raw[i]) | uint16(raw[i+1])<<8)
		out = append(out, float64(v))
	}
	return out
}

// BytesToFloat converts unsigned bytes (stride 1) into floats.
func BytesToFloat(raw []byte) []float64 {
	out := make([]float64, len(raw))
	for i, b := range raw {
		out[i] = float64(b)
	}
	return out
}
