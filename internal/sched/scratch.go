package sched

// Scratch holds the working buffers a balancing round needs, so that a
// caller running many rounds (the simulator runs one per slot) can reuse
// them instead of re-allocating. A Scratch is owned by exactly one caller
// at a time. The returned Plan's Exec, Leftover and Moves are scratch
// buffers too, so a plan is valid until the next Plan call on that
// scratch: sim.Run reads and edits each plan within its round, and a
// caller that keeps a plan longer must copy it or plan on a fresh scratch.
// Reuse is an allocation optimisation, never a behavioural one: a reused
// scratch and a fresh one give identical plans. The zero value is ready to
// use; buffers grow on demand and are kept at high-water size.
//
// Scratch is not safe for concurrent use. Fleet-style callers must give
// each goroutine its own Scratch (see internal/sim's per-run arena).
type Scratch struct {
	exec, leftover []int
	moves          []Move
	spare          []int
	tasks, shares  []int
	up             []bool
	vis            []int
	donors         []flow
	receivers      []flow
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
