package mesh

import (
	"math/rand"
	"testing"
)

func BenchmarkGreedyPathDense(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	dense := DensifiedDeployment(10, 90, 4, 4, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := GreedyPath(dense, 0, 9, 25); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkChainDeliver(b *testing.B) {
	c := NewChain(100)
	rng := rand.New(rand.NewSource(1))
	link := DefaultLink()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.DeliverDetail(99, link, rng, DeliverOpts{})
	}
}
