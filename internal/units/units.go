// Package units defines the physical quantities used throughout the NEOFog
// simulator: time in microseconds, energy in nanojoules, and power in
// milliwatts. The units are chosen so that the identity
//
//	Energy[nJ] = Power[mW] × Duration[µs]
//
// holds exactly, which keeps every energy computation in the simulator a
// plain multiplication with no conversion factors.
package units

import (
	"fmt"
	"math"
)

// Duration is simulated time in microseconds. It is a distinct type from
// time.Duration (which counts nanoseconds) so that the two cannot be mixed
// accidentally.
type Duration int64

// Common durations.
const (
	Microsecond Duration = 1
	Millisecond Duration = 1000 * Microsecond
	Second      Duration = 1000 * Millisecond
	Minute      Duration = 60 * Second
	Hour        Duration = 60 * Minute
)

// Microseconds returns the duration as a count of microseconds.
func (d Duration) Microseconds() int64 { return int64(d) }

// Milliseconds returns the duration in milliseconds as a float.
func (d Duration) Milliseconds() float64 { return float64(d) / float64(Millisecond) }

// Seconds returns the duration in seconds as a float.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Minutes returns the duration in minutes as a float.
func (d Duration) Minutes() float64 { return float64(d) / float64(Minute) }

func (d Duration) String() string {
	switch {
	case d < Millisecond:
		return fmt.Sprintf("%dµs", int64(d))
	case d < Second:
		return fmt.Sprintf("%.3gms", d.Milliseconds())
	case d < Minute:
		return fmt.Sprintf("%.3gs", d.Seconds())
	default:
		return fmt.Sprintf("%.4gmin", d.Minutes())
	}
}

// Milliseconds constructs a Duration from a (possibly fractional) number of
// milliseconds, rounding to the nearest microsecond. It is the natural
// constructor for the paper's published latency formulas, which are all
// expressed in ms.
func Milliseconds(ms float64) Duration {
	return Duration(math.Round(ms * float64(Millisecond)))
}

// Seconds constructs a Duration from a number of seconds.
func Seconds(s float64) Duration { return Duration(math.Round(s * float64(Second))) }

// Energy is an amount of energy in nanojoules.
type Energy float64

// Common energy magnitudes.
const (
	Nanojoule  Energy = 1
	Microjoule Energy = 1e3
	Millijoule Energy = 1e6
	Joule      Energy = 1e9
)

// Microjoules returns the energy in µJ.
func (e Energy) Microjoules() float64 { return float64(e) / float64(Microjoule) }

// Millijoules returns the energy in mJ.
func (e Energy) Millijoules() float64 { return float64(e) / float64(Millijoule) }

// Joules returns the energy in J.
func (e Energy) Joules() float64 { return float64(e) / float64(Joule) }

func (e Energy) String() string {
	abs := math.Abs(float64(e))
	switch {
	case abs < float64(Microjoule):
		return fmt.Sprintf("%.4gnJ", float64(e))
	case abs < float64(Millijoule):
		return fmt.Sprintf("%.4gµJ", e.Microjoules())
	case abs < float64(Joule):
		return fmt.Sprintf("%.4gmJ", e.Millijoules())
	default:
		return fmt.Sprintf("%.4gJ", e.Joules())
	}
}

// Power is instantaneous power in milliwatts.
type Power float64

// Common power magnitudes.
const (
	Microwatt Power = 1e-3
	Milliwatt Power = 1
	Watt      Power = 1e3
)

func (p Power) String() string {
	abs := math.Abs(float64(p))
	switch {
	case abs < float64(Milliwatt):
		return fmt.Sprintf("%.4gµW", float64(p)/float64(Microwatt))
	case abs < float64(Watt):
		return fmt.Sprintf("%.4gmW", float64(p))
	default:
		return fmt.Sprintf("%.4gW", float64(p)/float64(Watt))
	}
}

// Over returns the energy delivered by power p sustained for duration d.
// With the chosen units this is an exact multiplication: mW × µs = nJ.
func (p Power) Over(d Duration) Energy { return Energy(float64(p) * float64(d)) }
