package partition

import (
	"math/rand"
	"testing"

	"dsteiner/internal/graph"
)

func planTestGraph(seed int64, n int) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	for v := 1; v < n; v++ {
		b.AddEdge(graph.VID(rng.Intn(v)), graph.VID(v), uint32(rng.Intn(20))+1)
	}
	for i := 0; i < 2*n; i++ {
		b.AddEdge(graph.VID(rng.Intn(n)), graph.VID(rng.Intn(n)), uint32(rng.Intn(20))+1)
	}
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// allPartitions builds both partition kinds for g over p ranks.
func allPartitions(t *testing.T, g *graph.Graph, p int) map[string]*Partition {
	t.Helper()
	blk, err := NewBlock(g.NumVertices(), p)
	if err != nil {
		t.Fatal(err)
	}
	arc, err := NewArcBlock(g, p)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*Partition{"block": blk, "arcblock": arc}
}

func TestShardPlanOwnedMatchesPartition(t *testing.T) {
	g := planTestGraph(5, 137)
	for _, p := range []int{1, 2, 3, 8, 137, 200} {
		if p > g.NumVertices() {
			continue // more ranks than vertices leaves ranges empty; TestArcBlockMoreRanksThanVertices covers it
		}
		for name, part := range allPartitions(t, g, p) {
			plan, err := NewShardPlan(part, g)
			if err != nil {
				t.Fatalf("%s p=%d: %v", name, p, err)
			}
			if plan.NumRanks() != p || plan.Partition() != part {
				t.Fatalf("%s p=%d: plan metadata wrong", name, p)
			}
			covered := make([]int, g.NumVertices())
			for rank := 0; rank < p; rank++ {
				lo, hi := plan.Range(rank)
				for v := lo; v < hi; v++ {
					covered[v]++
					if part.Owner(v) != rank {
						t.Fatalf("%s p=%d: plan puts %d on rank %d, Owner says %d", name, p, v, rank, part.Owner(v))
					}
				}
			}
			for v, c := range covered {
				if c != 1 {
					t.Fatalf("%s p=%d: vertex %d covered %d times", name, p, v, c)
				}
			}
		}
	}
}

func TestShardPlanBuildShards(t *testing.T) {
	g := planTestGraph(6, 90)
	for name, part := range allPartitions(t, g, 4) {
		plan, err := NewShardPlan(part, g)
		if err != nil {
			t.Fatal(err)
		}
		shards := plan.BuildShards(g)
		if len(shards) != 4 {
			t.Fatalf("%s: %d shards", name, len(shards))
		}
		var ownedTotal int
		var slabArcs int64
		for rank, s := range shards {
			if s.Rank() != rank || s.NumRanks() != 4 {
				t.Fatalf("%s: shard %d mis-ranked", name, rank)
			}
			ownedTotal += s.NumOwned()
			slabArcs += s.NumArcs()
			if s.MemoryBytes() <= 0 {
				t.Fatalf("%s: shard %d reports %d bytes", name, rank, s.MemoryBytes())
			}
		}
		if ownedTotal != g.NumVertices() {
			t.Fatalf("%s: shards own %d vertices, graph has %d", name, ownedTotal, g.NumVertices())
		}
		if slabArcs != g.NumArcs() {
			t.Fatalf("%s: slabs hold %d arcs, graph has %d", name, slabArcs, g.NumArcs())
		}
	}
}

func TestShardPlanRejectsMismatchedGraph(t *testing.T) {
	g := planTestGraph(7, 50)
	part, err := NewBlock(49, 2) // wrong vertex count
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewShardPlan(part, g); err == nil {
		t.Fatal("mismatched partition accepted")
	}
}
