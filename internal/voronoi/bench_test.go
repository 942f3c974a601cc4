package voronoi

import (
	"fmt"
	"math/rand"
	"testing"

	"dsteiner/internal/gen"
	rt "dsteiner/internal/runtime"
)

// BenchmarkFlood times one warm Voronoi flood over the traverse-inproc
// benchmark graph (R-MAT 2^15, average degree 16) from 16 terminals: RunRank
// on a 1- and a 2-rank communicator whose shards and slabs are built once and
// reset per flood, and the Sequential oracle, which allocates its state per
// flood and queues every winning offer. The frozen yardstick that the
// benchmark's ratios divide by lives in bench/, outside this module.
func BenchmarkFlood(b *testing.B) {
	g := gen.Config{Name: "rmat", Kind: gen.KindRMAT, N: 1 << 15, AvgDegree: 16, MaxWeight: 5000,
		Backbone: true, Seed: 1}.MustBuild()
	seeds := pickSeeds(rand.New(rand.NewSource(1)), g.NumVertices(), 16)
	for _, ranks := range []int{1, 2} {
		b.Run(fmt.Sprintf("ranks=%d", ranks), func(b *testing.B) {
			c := newComm(b, g.NumVertices(), ranks, rt.QueuePriority)
			c.EnsureShards(g)
			slabs := shardSlabs(c.Partition(), c.Shards())
			c.Start()
			defer c.Close()
			flood := func() {
				for _, sl := range slabs {
					sl.Reset()
				}
				c.Run(func(r *rt.Rank) { RunRank(r, slabs[r.ID()], seeds, false) })
			}
			flood()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				flood()
			}
		})
	}
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Sequential(g, seeds)
		}
	})
}
