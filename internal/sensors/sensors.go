// Package sensors models the sensing front end of a node: per-device
// initialisation and sampling costs (timing and energy), and synthetic
// signal sources whose statistics match what the deployed systems of
// Table 1 sense. Signal realism matters because the buffered strategy's
// energy savings hinge on how well sensed data compresses ("the many
// repeated patterns in data, especially in that sensed by WSNs, foster high
// data compression rates", §5.1).
package sensors

import (
	"encoding/binary"
	"math"
	"math/rand"

	"neofog/internal/units"
)

// Device is the cost model of one sensor chip.
type Device struct {
	// Name is the part number or role.
	Name string
	// InitTime/InitEnergy are paid when the sensor powers on.
	InitTime   units.Duration
	InitEnergy units.Energy
	// SampleTime/SampleEnergy are paid per sample (ADC conversion
	// included).
	SampleTime   units.Duration
	SampleEnergy units.Energy
	// BytesPerSample is the payload size of one sample record.
	BytesPerSample int
}

// activeDraw converts a device's active power draw into energy over t.
func activeDraw(p units.Power, t units.Duration) units.Energy { return p.Over(t) }

// TMP101 is the measured temperature sensor: 566 ms initialisation,
// 0.283 ms per sample (§4), 2-byte samples, ~50 µW active draw.
func TMP101() Device {
	const draw = 0.05 // mW
	return Device{
		Name:           "TMP101",
		InitTime:       566 * units.Millisecond,
		InitEnergy:     activeDraw(draw, 566*units.Millisecond),
		SampleTime:     283 * units.Microsecond,
		SampleEnergy:   activeDraw(draw, 283*units.Microsecond),
		BytesPerSample: 2,
	}
}

// LIS331DLH is a 3-axis accelerometer: 6-byte samples (3 × 16-bit axes).
func LIS331DLH() Device {
	const draw = 0.25 // mW
	return Device{
		Name:           "LIS331DLH",
		InitTime:       5 * units.Millisecond,
		InitEnergy:     activeDraw(draw, 5*units.Millisecond),
		SampleTime:     1 * units.Millisecond,
		SampleEnergy:   activeDraw(draw, units.Millisecond),
		BytesPerSample: 6,
	}
}

// BridgeCable is the composite bridge-health sensing package:
// accelerometer plus piezo strain, 8-byte records (Table 2's bridge
// payload).
func BridgeCable() Device {
	const draw = 0.4 // mW
	return Device{
		Name:           "BridgeCable",
		InitTime:       6 * units.Millisecond,
		InitEnergy:     activeDraw(draw, 6*units.Millisecond),
		SampleTime:     1500 * units.Microsecond,
		SampleEnergy:   activeDraw(draw, 1500*units.Microsecond),
		BytesPerSample: 8,
	}
}

// UVSensor is the wearable UV meter's photodiode: 2-byte samples.
func UVSensor() Device {
	const draw = 0.03 // mW
	return Device{
		Name:           "UV",
		InitTime:       2 * units.Millisecond,
		InitEnergy:     activeDraw(draw, 2*units.Millisecond),
		SampleTime:     500 * units.Microsecond,
		SampleEnergy:   activeDraw(draw, 500*units.Microsecond),
		BytesPerSample: 2,
	}
}

// ECG is the heartbeat front end of the pattern-matching application:
// 1-byte samples at a high rate.
func ECG() Device {
	const draw = 0.12 // mW
	return Device{
		Name:           "ECG",
		InitTime:       10 * units.Millisecond,
		InitEnergy:     activeDraw(draw, 10*units.Millisecond),
		SampleTime:     250 * units.Microsecond,
		SampleEnergy:   activeDraw(draw, 250*units.Microsecond),
		BytesPerSample: 1,
	}
}

// Source produces the raw byte records a device would sense. Sources are
// deterministic given the rng and their internal phase.
type Source interface {
	// Next returns one sample record of the device's BytesPerSample size.
	Next(rng *rand.Rand) []byte
	// BytesPerSample matches the corresponding Device.
	BytesPerSample() int
}

func put16(b []byte, v int) { binary.LittleEndian.PutUint16(b, uint16(int16(v))) }

// TempSource models ambient temperature: slow drift plus sub-LSB sensor
// noise (the TMP101's 0.0625 °C resolution sits above its noise floor) —
// the most compressible of the signals.
type TempSource struct{ t float64 }

// Next implements Source.
func (s *TempSource) Next(rng *rand.Rand) []byte {
	s.t += 0.0002
	v := 2200 + 150*math.Sin(s.t) + rng.NormFloat64()*0.25 // LSB = 0.0625 °C
	b := make([]byte, 2)
	put16(b, int(math.Round(v)))
	return b
}

// BytesPerSample implements Source.
func (s *TempSource) BytesPerSample() int { return 2 }

// UVSource models a UV index signal: diurnal envelope with cloud steps.
type UVSource struct {
	t     float64
	cloud float64
}

// Next implements Source.
func (s *UVSource) Next(rng *rand.Rand) []byte {
	s.t += 0.0005
	if rng.Float64() < 0.002 { // occasional cloud transition
		s.cloud = rng.Float64() * 0.6
	}
	v := (1-s.cloud)*800*math.Max(0, math.Sin(s.t/4)) + rng.NormFloat64()*0.3
	b := make([]byte, 2)
	put16(b, int(math.Round(v)))
	return b
}

// BytesPerSample implements Source.
func (s *UVSource) BytesPerSample() int { return 2 }

// AccelSource models 3-axis structural vibration: a few low-frequency
// harmonics oversampled well above the modal frequencies (structural
// monitors sample at hundreds of Hz against ~1 Hz modes), quantised so the
// noise floor sits near one LSB.
type AccelSource struct {
	t     float64
	Noise float64 // noise in LSBs; default 0.25
}

// Next implements Source.
func (s *AccelSource) Next(rng *rand.Rand) []byte {
	if s.Noise == 0 {
		s.Noise = 0.25
	}
	s.t += 0.00025 // 4 kHz sampling of ~1 Hz modes
	b := make([]byte, 6)
	for ax := 0; ax < 3; ax++ {
		f1, f2 := 1.0+0.3*float64(ax), 3.7+0.5*float64(ax)
		v := 900*math.Sin(2*math.Pi*f1*s.t) + 350*math.Sin(2*math.Pi*f2*s.t+0.7)
		v = v/4 + rng.NormFloat64()*s.Noise // LSB = 4 raw counts
		put16(b[2*ax:], int(math.Round(v)))
	}
	return b
}

// BytesPerSample implements Source.
func (s *AccelSource) BytesPerSample() int { return 6 }

// BridgeSource is the 8-byte bridge-cable record: 3-axis acceleration plus
// a piezo strain channel that tracks the fundamental mode.
type BridgeSource struct{ accel AccelSource }

// Next implements Source.
func (s *BridgeSource) Next(rng *rand.Rand) []byte {
	a := s.accel.Next(rng)
	b := make([]byte, 8)
	copy(b, a)
	strain := 100*math.Sin(2*math.Pi*1.0*s.accel.t) + rng.NormFloat64()*0.25
	put16(b[6:], int(math.Round(strain)))
	return b
}

// BytesPerSample implements Source.
func (s *BridgeSource) BytesPerSample() int { return 8 }

// ECGSource models a heartbeat waveform at 8-bit resolution: flat baseline
// with periodic QRS-like spikes.
type ECGSource struct {
	phase float64
	// RateHz is heartbeats per second of signal time; default ~1.2.
	RateHz float64
}

// Next implements Source.
func (s *ECGSource) Next(rng *rand.Rand) []byte {
	if s.RateHz == 0 {
		s.RateHz = 1.2
	}
	// 250 samples per second of signal time.
	s.phase += s.RateHz / 250
	if s.phase >= 1 {
		s.phase -= 1
	}
	v := 128.0
	switch {
	case s.phase < 0.04: // QRS spike
		v += 100 * math.Sin(s.phase/0.04*math.Pi)
	case s.phase > 0.25 && s.phase < 0.40: // T wave
		v += 25 * math.Sin((s.phase-0.25)/0.15*math.Pi)
	}
	v += rng.NormFloat64() * 0.15
	if v < 0 {
		v = 0
	}
	if v > 255 {
		v = 255
	}
	return []byte{byte(math.Round(v))}
}

// BytesPerSample implements Source.
func (s *ECGSource) BytesPerSample() int { return 1 }

// ImageSource models a static-scene image sensor: smooth 2D gradient with
// sensor noise, emitted as 64-byte scanline chunks.
type ImageSource struct{ row, col int }

// Next implements Source.
func (s *ImageSource) Next(rng *rand.Rand) []byte {
	b := make([]byte, 64)
	for i := range b {
		v := 60 + (s.row/4+s.col/8)%160 + int(rng.NormFloat64()*1.5)
		if v < 0 {
			v = 0
		}
		if v > 255 {
			v = 255
		}
		b[i] = byte(v)
		s.col++
		if s.col == 128 {
			s.col = 0
			s.row++
		}
	}
	return b
}

// BytesPerSample implements Source.
func (s *ImageSource) BytesPerSample() int { return 64 }

// Fill draws records from src until the buffer holds at least n bytes,
// returning exactly n bytes (whole records truncated at the end).
func Fill(src Source, n int, rng *rand.Rand) []byte {
	out := make([]byte, 0, n+src.BytesPerSample())
	for len(out) < n {
		out = append(out, src.Next(rng)...)
	}
	return out[:n]
}
