//go:build race

package energytrace

// The race detector makes sync.Pool drop a random share of the items put
// back, so an allocation budget that counts on the recycled base-trace
// pool allows for the drops under it.
func init() { raceEnabled = true }
