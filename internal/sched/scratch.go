package sched

// Scratch holds the working buffers a balancing round needs, so that a
// caller running many rounds (the simulator runs one per slot) can reuse
// them instead of re-allocating. A Scratch is owned by exactly one caller
// at a time: balancers never retain references to its buffers past the
// Plan call, and the returned Plan never aliases scratch memory, so plans
// remain valid after the scratch is reused. Reuse is an allocation
// optimisation, never a behavioural one: a reused scratch and a fresh one
// give identical plans. The zero value is ready to use; buffers grow on
// demand and are kept at high-water size.
//
// Scratch is not safe for concurrent use. Fleet-style callers must give
// each goroutine its own Scratch (see internal/sim's per-run arena).
type Scratch struct {
	spare         []int
	tasks, shares []int
	up            []bool
	vis           []int
	donors        []flow
	receivers     []flow
}

// growInts returns buf resized to n, reallocating only when capacity is
// short. Contents are unspecified; callers must overwrite or zero.
func growInts(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}

func growBools(buf []bool, n int) []bool {
	if cap(buf) < n {
		return make([]bool, n)
	}
	return buf[:n]
}
