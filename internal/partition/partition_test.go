package partition

import (
	"testing"
	"testing/quick"

	"dsteiner/internal/graph"
)

// ownedVertices calls fn for every vertex of rank's range, in increasing
// order.
func ownedVertices(p *Partition, rank int, fn func(v graph.VID)) {
	lo, hi := p.Range(rank)
	for v := lo; v < hi; v++ {
		fn(v)
	}
}

func TestBlockCoversAllVerticesExactlyOnce(t *testing.T) {
	for _, tc := range []struct{ n, p int }{
		{10, 3}, {10, 1}, {7, 7}, {100, 8}, {5, 8}, {1, 1},
	} {
		b, err := NewBlock(tc.n, tc.p)
		if err != nil {
			t.Fatalf("NewBlock(%d,%d): %v", tc.n, tc.p, err)
		}
		seen := make([]int, tc.n)
		for rank := 0; rank < tc.p; rank++ {
			ownedVertices(b, rank, func(v graph.VID) {
				seen[v]++
				if b.Owner(v) != rank {
					t.Fatalf("n=%d p=%d: Owner(%d)=%d but iterated on rank %d",
						tc.n, tc.p, v, b.Owner(v), rank)
				}
			})
		}
		for v, c := range seen {
			if c != 1 {
				t.Fatalf("n=%d p=%d: vertex %d covered %d times", tc.n, tc.p, v, c)
			}
		}
	}
}

func TestBlockBalance(t *testing.T) {
	b, _ := NewBlock(103, 8)
	minSz, maxSz := 1<<30, 0
	for rank := 0; rank < 8; rank++ {
		lo, hi := b.Range(rank)
		sz := int(hi - lo)
		if sz < minSz {
			minSz = sz
		}
		if sz > maxSz {
			maxSz = sz
		}
	}
	if maxSz-minSz > 1 {
		t.Fatalf("block imbalance: min=%d max=%d", minSz, maxSz)
	}
}

func TestFromBoundsRoundTripsAndValidates(t *testing.T) {
	b, err := NewBlock(57, 4)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewFromBounds(b.Bounds())
	if err != nil {
		t.Fatal(err)
	}
	if rt.NumRanks() != 4 || rt.NumVertices() != 57 {
		t.Fatalf("round trip is %d ranks over %d vertices", rt.NumRanks(), rt.NumVertices())
	}
	for v := graph.VID(0); v < 57; v++ {
		if rt.Owner(v) != b.Owner(v) {
			t.Fatalf("Owner(%d) = %d after the round trip, %d before", v, rt.Owner(v), b.Owner(v))
		}
	}
	for _, bounds := range [][]graph.VID{nil, {0}, {1, 5}, {0, 5, 3}, {0, 0, 0}} {
		if _, err := NewFromBounds(bounds); err == nil {
			t.Errorf("NewFromBounds(%v) accepted", bounds)
		}
	}
}

func TestInvalidConfigs(t *testing.T) {
	if _, err := NewBlock(0, 4); err == nil {
		t.Error("NewBlock(0,4) accepted")
	}
	if _, err := NewBlock(4, 0); err == nil {
		t.Error("NewBlock(4,0) accepted")
	}
	if _, err := NewBlock(-1, 2); err == nil {
		t.Error("NewBlock(-1,2) accepted")
	}
}

func TestPropertyBlockOwnerMatchesRange(t *testing.T) {
	f := func(nRaw, pRaw uint16, vRaw uint16) bool {
		n := int(nRaw%1000) + 1
		p := int(pRaw%16) + 1
		v := graph.VID(int(vRaw) % n)
		b, err := NewBlock(n, p)
		if err != nil {
			return false
		}
		rank := b.Owner(v)
		if rank < 0 || rank >= p {
			return false
		}
		lo, hi := b.Range(rank)
		return v >= lo && v < hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func skewedGraph(t *testing.T) *graph.Graph {
	t.Helper()
	// Vertex 0 is a hub with half of all arcs; the rest form a path.
	b := graph.NewBuilder(100)
	for v := graph.VID(1); v < 100; v++ {
		b.AddEdge(0, v, 1)
		if v > 1 {
			b.AddEdge(v-1, v, 1)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestArcBlockCoversAllVerticesExactlyOnce(t *testing.T) {
	g := skewedGraph(t)
	for _, p := range []int{1, 2, 4, 7} {
		ab, err := NewArcBlock(g, p)
		if err != nil {
			t.Fatal(err)
		}
		seen := make([]int, g.NumVertices())
		for rank := 0; rank < p; rank++ {
			ownedVertices(ab, rank, func(v graph.VID) {
				seen[v]++
				if ab.Owner(v) != rank {
					t.Fatalf("p=%d: Owner(%d)=%d, iterated on %d", p, v, ab.Owner(v), rank)
				}
			})
		}
		for v, c := range seen {
			if c != 1 {
				t.Fatalf("p=%d: vertex %d covered %d times", p, v, c)
			}
		}
	}
}

func TestArcBlockBalancesArcsNotVertices(t *testing.T) {
	g := skewedGraph(t)
	ab, err := NewArcBlock(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	// The hub (vertex 0, ~1/2 of arcs) must sit alone or nearly alone in
	// rank 0's range; a vertex-balanced block would put 25 vertices there.
	lo, hi := ab.Range(0)
	if lo != 0 {
		t.Fatalf("range 0 starts at %d", lo)
	}
	if int(hi-lo) > 10 {
		t.Fatalf("hub range holds %d vertices; arcs not balanced", hi-lo)
	}
	// Per-rank arc shares must be far more even than vertex shares.
	var arcShares []int64
	for rank := 0; rank < 4; rank++ {
		var arcs int64
		ownedVertices(ab, rank, func(v graph.VID) { arcs += int64(g.Degree(v)) })
		arcShares = append(arcShares, arcs)
		if arcs == 0 {
			t.Fatalf("rank %d owns no arcs", rank)
		}
	}
	maxA, minA := arcShares[0], arcShares[0]
	for _, a := range arcShares {
		if a > maxA {
			maxA = a
		}
		if a < minA {
			minA = a
		}
	}
	if float64(maxA) > 2.5*float64(minA) {
		t.Fatalf("arc imbalance too high: %v", arcShares)
	}
}

func TestArcBlockInvalidConfigs(t *testing.T) {
	g := skewedGraph(t)
	if _, err := NewArcBlock(g, 0); err == nil {
		t.Error("p=0 accepted")
	}
}

func TestArcBlockMoreRanksThanVertices(t *testing.T) {
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	g, _ := b.Build()
	ab, err := NewArcBlock(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for rank := 0; rank < 8; rank++ {
		ownedVertices(ab, rank, func(v graph.VID) { seen++ })
	}
	if seen != 3 {
		t.Fatalf("covered %d vertices, want 3", seen)
	}
}

// TestPropertyAllKindsCoverEveryVertexExactlyOnce is the partition
// invariant behind the shard substrate: for both bounds constructors (and
// rebuilt from their wire bounds) over random n
// and P, each vertex is owned by exactly one rank, and the range a rank is
// given is exactly the set Owner maps to it. ShardPlan and the per-rank
// slabs are only correct if this holds.
func TestPropertyAllKindsCoverEveryVertexExactlyOnce(t *testing.T) {
	f := func(seed int64, nRaw, pRaw uint16) bool {
		n := int(nRaw%500) + 1
		p := int(pRaw%12) + 1
		g := planTestGraph(seed, n)
		parts := map[string]*Partition{}
		if blk, err := NewBlock(n, p); err == nil {
			parts["block"] = blk
		}
		if arc, err := NewArcBlock(g, p); err == nil {
			parts["arcblock"] = arc
		}
		if len(parts) != 2 {
			return false
		}
		for name, base := range parts {
			wire, err := NewFromBounds(base.Bounds())
			if err != nil {
				return false
			}
			parts[name+"+wire"] = wire
		}
		for name, part := range parts {
			if part.NumRanks() != p || part.NumVertices() != n {
				t.Logf("%s: wrong dimensions", name)
				return false
			}
			covered := make([]int, n)
			for rank := 0; rank < p; rank++ {
				prev := graph.VID(-1)
				ok := true
				ownedVertices(part, rank, func(v graph.VID) {
					if v <= prev || part.Owner(v) != rank {
						ok = false
					}
					prev = v
					covered[v]++
				})
				if !ok {
					t.Logf("%s n=%d p=%d rank=%d: Range disagrees with Owner", name, n, p, rank)
					return false
				}
			}
			for v, c := range covered {
				if c != 1 {
					t.Logf("%s n=%d p=%d: vertex %d covered %d times", name, n, p, v, c)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
