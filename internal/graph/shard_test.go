package graph

import (
	"math/rand"
	"testing"
)

// shardTestGraph builds a reproducible random connected graph.
func shardTestGraph(seed int64, n int) *Graph {
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(n)
	for v := 1; v < n; v++ {
		b.AddEdge(VID(rng.Intn(v)), VID(v), uint32(rng.Intn(30))+1)
	}
	for i := 0; i < 2*n; i++ {
		b.AddEdge(VID(rng.Intn(n)), VID(rng.Intn(n)), uint32(rng.Intn(30))+1)
	}
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// shardAdj returns owned vertex v's slab row in the global CSR's form:
// targets recovered through Target, and weights.
func shardAdj(s *Shard, v VID) ([]VID, []uint32) {
	ws, refs := s.RowArcs(s.Rows().Row(v))
	return shardTargets(s, refs), ws
}

// shardTargets maps resolved targets back to vertices.
func shardTargets(s *Shard, refs []int32) []VID {
	ts := make([]VID, len(refs))
	for j, ref := range refs {
		ts[j] = s.Target(ref)
	}
	return ts
}

func TestShardSlabMatchesGlobalAdjacency(t *testing.T) {
	g := shardTestGraph(1, 200)
	for _, r := range [][2]VID{
		{0, 50},    // prefix
		{50, 200},  // suffix
		{60, 61},   // one vertex
		{100, 100}, // empty rank
	} {
		lo, hi := r[0], r[1]
		s := NewShard(g, 0, 4, lo, hi)
		if s.NumOwned() != int(hi-lo) {
			t.Fatalf("NumOwned = %d, want %d", s.NumOwned(), hi-lo)
		}
		for v := VID(0); int(v) < g.NumVertices(); v++ {
			if want := lo <= v && v < hi; s.Owns(v) != want {
				t.Fatalf("Owns(%d) = %v, want %v (range [%d,%d))", v, s.Owns(v), want, lo, hi)
			}
		}
		for v := lo; v < hi; v++ {
			gt, gw := g.Adj(v)
			st, sw := shardAdj(s, v)
			if len(gt) != len(st) {
				t.Fatalf("Adj(%d): slab %d arcs, global %d", v, len(st), len(gt))
			}
			for i := range gt {
				if gt[i] != st[i] || gw[i] != sw[i] {
					t.Fatalf("Adj(%d) arc %d: slab (%d,%d), global (%d,%d)", v, i, st[i], sw[i], gt[i], gw[i])
				}
			}
			// EdgeWeight over the slab row equals the global HasEdge.
			for _, u := range gt {
				gww, gok := g.HasEdge(v, u)
				sww, sok := s.EdgeWeight(v, u)
				if gok != sok || gww != sww {
					t.Fatalf("EdgeWeight(%d,%d) = (%d,%v), global (%d,%v)", v, u, sww, sok, gww, gok)
				}
			}
			if _, ok := s.EdgeWeight(v, v); ok {
				t.Fatalf("EdgeWeight(%d,%d) found a self loop", v, v)
			}
		}
	}
}

func TestShardPanicsOnForeignVertex(t *testing.T) {
	g := shardTestGraph(3, 20)
	s := NewShard(g, 0, 2, 0, 10)
	defer func() {
		if recover() == nil {
			t.Fatal("EdgeWeight(non-owned, _) did not panic")
		}
	}()
	s.EdgeWeight(15, 0)
}

func TestShardMemoryBytesAccountsArrays(t *testing.T) {
	g := shardTestGraph(4, 100)
	s := NewShard(g, 0, 1, 0, 100)
	// One rank owns everything: slab arcs = all arcs.
	if s.NumArcs() != g.NumArcs() {
		t.Fatalf("slab arcs %d, graph arcs %d", s.NumArcs(), g.NumArcs())
	}
	// A single rank has no remote targets, so no ghost list.
	want := int64(101)*8 + s.NumArcs()*(4+4) // offsets + weights + resolved column
	if s.NumGhosts() != 0 {
		t.Fatalf("single-rank shard has %d ghosts", s.NumGhosts())
	}
	if got := s.MemoryBytes(); got != want {
		t.Fatalf("MemoryBytes = %d, want %d", got, want)
	}
	if s.Rank() != 0 || s.NumRanks() != 1 {
		t.Fatalf("shard metadata wrong: rank %d/%d", s.Rank(), s.NumRanks())
	}
}
