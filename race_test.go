//go:build race

package neofog

// The race build drops a random share of the items put back in a
// sync.Pool, so TestBenchAllocBudgets skips under it.
func init() { raceEnabled = true }
