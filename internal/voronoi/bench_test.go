package voronoi

import (
	"fmt"
	"math/rand"
	"testing"

	"dsteiner/internal/gen"
	"dsteiner/internal/graph"
	rt "dsteiner/internal/runtime"
)

// BenchmarkFlood times one warm Voronoi flood over the traverse-inproc
// benchmark graph (R-MAT 2^15, average degree 16) from 16 terminals: RunRank
// on a 1- and a 2-rank communicator whose shards and slabs are built once and
// reset per flood, and the Sequential oracle, which allocates its state per
// flood and queues every winning offer. Its grid cases flood the
// grid-manyterm-modes graph (a 128×256 grid, weights 1–100) from 2,048
// terminals: the tie-heavy shape, where most entries the queue orders at a
// pop share the current key. The frozen yardstick that the benchmark's
// ratios divide by lives in bench/, outside this module.
func BenchmarkFlood(b *testing.B) {
	g := gen.Config{Name: "rmat", Kind: gen.KindRMAT, N: 1 << 15, AvgDegree: 16, MaxWeight: 5000,
		Backbone: true, Seed: 1}.MustBuild()
	seeds := pickSeeds(rand.New(rand.NewSource(1)), g.NumVertices(), 16)
	benchRunRank(b, "", g, seeds)
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Sequential(g, seeds)
		}
	})
	grid := gen.Config{Name: "grid", Kind: gen.KindGrid2D, N: 128 * 256, Rows: 128, Cols: 256,
		MaxWeight: 100, Seed: 1}.MustBuild()
	benchRunRank(b, "grid/", grid, pickSeeds(rand.New(rand.NewSource(1)), grid.NumVertices(), 2048))
}

// benchRunRank times warm RunRank floods of g from seeds at 1 and 2 ranks,
// in sub-benchmarks named prefix + "ranks=P".
func benchRunRank(b *testing.B, prefix string, g *graph.Graph, seeds []graph.VID) {
	for _, ranks := range []int{1, 2} {
		b.Run(fmt.Sprintf("%sranks=%d", prefix, ranks), func(b *testing.B) {
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
}
