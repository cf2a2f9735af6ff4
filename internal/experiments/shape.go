package experiments

// Shape is what an artifact builds from Options.Nodes, for a caller that
// bounds Nodes before running it. Each shape below is derived from the
// sweep lists and counts its runner uses, so a changed sweep changes its
// shape with it. An artifact that reads no Nodes has none.
type Shape struct {
	// Multiplexing is the largest multiplexing factor the artifact runs:
	// its largest deployment has Nodes × Multiplexing physical nodes.
	Multiplexing int
	// Income is how many physical nodes' whole-day income the artifact
	// can keep at once per node of Nodes: the sizes of every income set
	// that can be alive together, summed.
	Income int
}

var (
	// Fig9Shape is one set, shared by the three balancers.
	Fig9Shape = Shape{Multiplexing: 1, Income: 1}
	// PacketsShape is Figs. 10 and 11: one set per power profile, each
	// shared by its three systems and kept until the sweep ends.
	PacketsShape = Shape{Multiplexing: 1, Income: packetProfiles}
	// MultiplexShape is Figs. 12 and 13, and HeadlineShape the headline:
	// each point of the sweep builds a set of its own, all of them at
	// once at full width.
	MultiplexShape = multiplexShape(multiplexFactors)
	HeadlineShape  = multiplexShape(headlineFactors)
	// ChaosShape is one set, shared by every intensity.
	ChaosShape = Shape{Multiplexing: 1, Income: 1}
	// ResilienceShape is one set of clone sets: every node has a partner.
	ResilienceShape = Shape{Multiplexing: resilienceClones, Income: resilienceClones}
)

// multiplexShape is the shape of a runMultiplex sweep over factors.
func multiplexShape(factors []int) Shape {
	var s Shape
	for _, f := range factors {
		s.Multiplexing = max(s.Multiplexing, clonesPerNode(f))
		s.Income += clonesPerNode(f)
	}
	return s
}
