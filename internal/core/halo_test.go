package core

import (
	"fmt"
	"math/rand"
	"testing"

	"dsteiner/internal/gen"
	"dsteiner/internal/graph"
	rt "dsteiner/internal/runtime"
	"dsteiner/internal/voronoi"
)

// TestPhase2SendsOnePushPerBoundaryVertex pins phase 2's message count to the
// halo it has to move, computed from the global graph: one message per pair
// (reached vertex v, peer q ≠ owner(v)) such that q owns a neighbour u < v —
// the peers that initiate one of v's arcs. The request/reply exchange sent
// two per cross-rank arc. Async and BSP, tree and forest mode, three graph
// shapes; the random graph has a component no seed reaches, which must push
// nothing.
func TestPhase2SendsOnePushPerBoundaryVertex(t *testing.T) {
	island := func() *graph.Graph {
		rng := rand.New(rand.NewSource(61))
		b := graph.NewBuilder(330)
		for v := 1; v < 330; v++ {
			if v == 300 {
				continue // 300..329 hang together, apart from 0..299
			}
			lo := 0
			if v > 300 {
				lo = 300
			}
			b.AddEdge(graph.VID(lo+rng.Intn(v-lo)), graph.VID(v), uint32(rng.Intn(40))+1)
		}
		for i := 0; i < 700; i++ {
			b.AddEdge(graph.VID(rng.Intn(300)), graph.VID(rng.Intn(300)), uint32(rng.Intn(40))+1)
		}
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	cases := []struct {
		name  string
		g     *graph.Graph
		kind  PartitionKind
		ranks int
		pool  int // terminals are drawn from vertices below this
	}{
		{"random+island/arcblock", island(), PartitionArcBlock, 3, 300},
		{"grid/block", gen.Config{Name: "grid", Kind: gen.KindGrid2D, N: 16 * 24, Rows: 16, Cols: 24, MaxWeight: 9, Seed: 62}.MustBuild(), PartitionBlock, 4, 16 * 24},
		{"rmat/arcblock", gen.Config{Name: "rmat", Kind: gen.KindRMAT, N: 1 << 9, AvgDegree: 8, MaxWeight: 100, Backbone: true, Seed: 63}.MustBuild(), PartitionArcBlock, 2, 1 << 9},
	}
	for _, tc := range cases {
		for _, bsp := range []bool{false, true} {
			label := fmt.Sprintf("%s bsp=%v", tc.name, bsp)
			e, err := NewEngine(tc.g, Options{Ranks: tc.ranks, Queue: rt.QueuePriority, Partition: tc.kind, BSP: bsp})
			if err != nil {
				t.Fatal(err)
			}
			seeds := pickSeeds(rand.New(rand.NewSource(64)), tc.pool, 6)
			want := haloPushes(tc.g, e.host.comm.Partition().Owner, voronoi.Sequential(tc.g, seeds))
			if want == 0 {
				t.Fatalf("%s: vacuous, no boundary vertex to push", label)
			}
			for _, spec := range []QuerySpec{
				TreeSpec(seeds),
				{Mode: ModeForest, Groups: [][]graph.VID{seeds}},
			} {
				res, err := e.SolveSpec(spec)
				if err != nil {
					t.Fatalf("%s %v: %v", label, spec.Mode, err)
				}
				if got := res.Phase(PhaseLocalMinEdge).Sent; got != want {
					t.Fatalf("%s %v: phase 2 sent %d messages, the halo is %d", label, spec.Mode, got, want)
				}
			}
			e.Close()
		}
	}
}

// haloPushes counts the (vertex, peer) pairs phase 2 has to push.
func haloPushes(g *graph.Graph, owner func(graph.VID) int, st *voronoi.State) int64 {
	var pushes int64
	for v := graph.VID(0); int(v) < g.NumVertices(); v++ {
		if !st.Reached(v) {
			continue
		}
		peers := map[int]bool{}
		adj, _ := g.Adj(v)
		for _, u := range adj {
			if q := owner(u); u < v && q != owner(v) {
				peers[q] = true
			}
		}
		pushes += int64(len(peers))
	}
	return pushes
}
