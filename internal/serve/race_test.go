//go:build race

package serve

// The race detector makes sync.Pool drop a random share of the items put
// back, so an allocation budget with a pool on its path allows for the
// items it rebuilds.
func init() { raceEnabled = true }
