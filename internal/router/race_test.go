//go:build race

package router

// The race detector makes sync.Pool drop a random share of the items put
// back, so the routed-hit budget allows for the buffers it rebuilds.
func init() { raceEnabled = true }
