//go:build race

package compress

// The race detector makes sync.Pool drop a random share of the states put
// back, so the round-trip allocation budget allows for rebuilding them.
func init() { raceEnabled = true }
