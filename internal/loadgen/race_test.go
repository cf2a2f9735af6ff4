//go:build race

package loadgen

// The race build drops a random share of the items put back in a
// sync.Pool, so the schedule's allocation budget skips under it.
func init() { raceEnabled = true }
