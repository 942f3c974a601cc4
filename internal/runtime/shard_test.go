package runtime

import (
	"math/rand"
	"testing"

	"dsteiner/internal/graph"
	"dsteiner/internal/partition"
)

func shardTestGraph(t *testing.T, n int) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(n)))
	b := graph.NewBuilder(n)
	for v := 1; v < n; v++ {
		b.AddEdge(graph.VID(rng.Intn(v)), graph.VID(v), uint32(rng.Intn(9))+1)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestAttachShardsValidation(t *testing.T) {
	g := shardTestGraph(t, 40)
	c := newComm(t, 40, 4, QueuePriority)
	plan, err := partition.NewShardPlan(c.Partition(), g)
	if err != nil {
		t.Fatal(err)
	}
	shards := plan.BuildShards(g)

	if err := c.AttachShards(shards[:2]); err == nil {
		t.Fatal("wrong shard count accepted")
	}
	swapped := append([]*graph.Shard(nil), shards...)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	if err := c.AttachShards(swapped); err == nil {
		t.Fatal("mis-ranked shards accepted")
	}
	if c.Sharded() {
		t.Fatal("failed attach left shards behind")
	}
	if err := c.AttachShards(shards); err != nil {
		t.Fatal(err)
	}
	if !c.Sharded() {
		t.Fatal("Sharded false after attach")
	}
	var want int64
	for _, s := range shards {
		want += s.MemoryBytes()
	}
	if got := c.ShardMemoryBytes(); got != want {
		t.Fatalf("ShardMemoryBytes = %d, want %d", got, want)
	}
}

// TestRankAdjacencyMatchesGlobal checks the Rank-side local adjacency against
// the global CSR inside a real SPMD run: each rank's shard holds exactly its
// own vertices' arcs, in global order, and EdgeWeight agrees with HasEdge.
func TestRankAdjacencyMatchesGlobal(t *testing.T) {
	g := shardTestGraph(t, 60)
	c := newComm(t, 60, 3, QueuePriority)
	c.EnsureShards(g)
	c.EnsureShards(g) // idempotent
	c.Run(func(r *Rank) {
		sh := r.Shard()
		lo, hi := c.Partition().Range(r.ID())
		for v := lo; v < hi; v++ {
			gt, gw := g.Adj(v)
			sw, refs := sh.RowArcs(sh.Rows().Row(v))
			if len(gt) != len(refs) {
				panic("slab arc count differs from global")
			}
			for i := range gt {
				if gt[i] != sh.Target(refs[i]) || gw[i] != sw[i] {
					panic("slab arc differs from global")
				}
				if w, ok := r.EdgeWeight(v, gt[i]); !ok || w != gw[i] {
					panic("EdgeWeight differs from global")
				}
			}
		}
	})
}

func TestRankAdjWithoutShardsPanics(t *testing.T) {
	c := newComm(t, 10, 1, QueueFIFO)
	defer func() {
		if recover() == nil {
			t.Fatal("EdgeWeight without shards did not panic")
		}
	}()
	c.Run(func(r *Rank) { r.EdgeWeight(0, 1) })
}
