package sssp

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dsteiner/internal/graph"
)

// lineGraph returns 0-1-2-...-n-1 with weight w.
func lineGraph(n int, w uint32) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < n-1; i++ {
		b.AddEdge(graph.VID(i), graph.VID(i+1), w)
	}
	g, _ := b.Build()
	return g
}

func randomConnected(rng *rand.Rand, n int, maxW uint32) *graph.Graph {
	b := graph.NewBuilder(n)
	for v := 1; v < n; v++ {
		b.AddEdge(graph.VID(rng.Intn(v)), graph.VID(v), uint32(rng.Intn(int(maxW)))+1)
	}
	for i := 0; i < 2*n; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		b.AddEdge(graph.VID(u), graph.VID(v), uint32(rng.Intn(int(maxW)))+1)
	}
	g, _ := b.Build()
	return g
}

func TestDijkstraLine(t *testing.T) {
	g := lineGraph(6, 3)
	r := Dijkstra(g, 0)
	for v := 0; v < 6; v++ {
		if r.Dist[v] != graph.Dist(3*v) {
			t.Errorf("Dist[%d] = %d, want %d", v, r.Dist[v], 3*v)
		}
		if r.Src[v] != 0 {
			t.Errorf("Src[%d] = %d, want 0", v, r.Src[v])
		}
	}
	if r.Pred[0] != graph.NilVID || r.Pred[3] != 2 {
		t.Errorf("preds wrong: %v", r.Pred)
	}
}

func TestDijkstraPicksCheaperLongerPath(t *testing.T) {
	// 0-1 weight 10; 0-2-1 weights 3+3=6.
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1, 10)
	b.AddEdge(0, 2, 3)
	b.AddEdge(2, 1, 3)
	g, _ := b.Build()
	r := Dijkstra(g, 0)
	if r.Dist[1] != 6 {
		t.Fatalf("Dist[1] = %d, want 6", r.Dist[1])
	}
	if r.Pred[1] != 2 {
		t.Fatalf("Pred[1] = %d, want 2", r.Pred[1])
	}
}

func TestUnreachable(t *testing.T) {
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1, 1)
	b.AddEdge(2, 3, 1)
	g, _ := b.Build()
	r := Dijkstra(g, 0)
	if r.Dist[2] != graph.InfDist || r.Src[2] != graph.NilVID {
		t.Fatalf("unreachable vertex has Dist=%d Src=%d", r.Dist[2], r.Src[2])
	}
	if p := r.PathTo(g, 2); p != nil {
		t.Fatalf("PathTo(unreachable) = %v", p)
	}
}

func TestMultiSourceVoronoiCells(t *testing.T) {
	// Line 0..9 with unit weights; sources 0 and 9. Midpoint 4/5 split:
	// vertices 0..4 belong to 0 (vertex 4 at distance 4 from both sides
	// ties toward the smaller seed ID 0... distance to 0 is 4, to 9 is 5
	// so no tie; vertex 4 -> cell 0; vertex 5: distance 5 vs 4 -> cell 9).
	g := lineGraph(10, 1)
	r := MultiSource(g, []graph.VID{0, 9})
	for v := 0; v <= 4; v++ {
		if r.Src[v] != 0 {
			t.Errorf("Src[%d] = %d, want 0", v, r.Src[v])
		}
	}
	for v := 5; v <= 9; v++ {
		if r.Src[v] != 9 {
			t.Errorf("Src[%d] = %d, want 9", v, r.Src[v])
		}
	}
	if r.Dist[4] != 4 || r.Dist[5] != 4 {
		t.Errorf("midpoint distances: %d, %d", r.Dist[4], r.Dist[5])
	}
}

func TestMultiSourceTieBreaksTowardSmallerSeed(t *testing.T) {
	// Even-length line: vertex 2 is equidistant (2) from seeds 0 and 4.
	g := lineGraph(5, 1)
	r := MultiSource(g, []graph.VID{4, 0}) // order must not matter
	if r.Src[2] != 0 {
		t.Fatalf("tie broken to %d, want smaller seed 0", r.Src[2])
	}
}

func TestMultiSourceDuplicateSeeds(t *testing.T) {
	g := lineGraph(4, 1)
	r := MultiSource(g, []graph.VID{1, 1, 1})
	if r.Dist[3] != 2 || r.Src[3] != 1 {
		t.Fatalf("duplicate seeds broke search: %v %v", r.Dist, r.Src)
	}
}

func TestPathTo(t *testing.T) {
	g := lineGraph(5, 2)
	r := Dijkstra(g, 0)
	path := r.PathTo(g, 4)
	if len(path) != 4 {
		t.Fatalf("path len = %d, want 4", len(path))
	}
	var total graph.Dist
	for _, e := range path {
		total += graph.Dist(e.W)
	}
	if total != r.Dist[4] {
		t.Fatalf("path weight %d != dist %d", total, r.Dist[4])
	}
	if p := r.PathTo(g, 0); len(p) != 0 {
		t.Fatalf("PathTo(source) = %v, want empty", p)
	}
}

func TestAllKernelsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randomConnected(rng, 200, 50)
	seeds := []graph.VID{3, 77, 150}
	d := MultiSource(g, seeds)
	bf := BellmanFord(g, seeds)
	for v := 0; v < g.NumVertices(); v++ {
		if bf.Dist[v] != d.Dist[v] {
			t.Fatalf("distance mismatch at %d: dij=%d bf=%d", v, d.Dist[v], bf.Dist[v])
		}
		if bf.Src[v] != d.Src[v] {
			t.Fatalf("cell mismatch at %d: dij=%d bf=%d", v, d.Src[v], bf.Src[v])
		}
	}
}

func TestPropertyKernelEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(80)
		g := randomConnected(rng, n, 30)
		k := 1 + rng.Intn(5)
		seeds := make([]graph.VID, 0, k)
		for i := 0; i < k; i++ {
			seeds = append(seeds, graph.VID(rng.Intn(n)))
		}
		d := MultiSource(g, seeds)
		bf := BellmanFord(g, seeds)
		for v := 0; v < n; v++ {
			if bf.Dist[v] != d.Dist[v] {
				return false
			}
			if bf.Src[v] != d.Src[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyTriangleInequalityAndTreeConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(60)
		g := randomConnected(rng, n, 40)
		r := Dijkstra(g, 0)
		// Triangle inequality over every arc.
		for _, e := range g.Edges() {
			if r.Dist[e.V] > r.Dist[e.U]+graph.Dist(e.W) {
				return false
			}
			if r.Dist[e.U] > r.Dist[e.V]+graph.Dist(e.W) {
				return false
			}
		}
		// Predecessor consistency: Dist[v] = Dist[Pred[v]] + w(Pred[v], v).
		for v := 1; v < n; v++ {
			p := r.Pred[v]
			if p == graph.NilVID {
				return false
			}
			w, ok := g.HasEdge(p, graph.VID(v))
			if !ok {
				return false
			}
			if r.Dist[v] != r.Dist[p]+graph.Dist(w) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyVoronoiCellsArePlausible(t *testing.T) {
	// Every vertex belongs to the seed it is genuinely closest to
	// (allowing ties): Dist[v] equals min over seeds of single-source
	// distance.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(40)
		g := randomConnected(rng, n, 20)
		k := 2 + rng.Intn(4)
		seeds := make([]graph.VID, 0, k)
		for i := 0; i < k; i++ {
			seeds = append(seeds, graph.VID(rng.Intn(n)))
		}
		multi := MultiSource(g, seeds)
		for v := 0; v < n; v++ {
			best := graph.InfDist
			bestSeed := graph.NilVID
			for _, s := range seeds {
				single := Dijkstra(g, s)
				if better(single.Dist[v], s, best, bestSeed) {
					best = single.Dist[v]
					bestSeed = s
				}
			}
			if multi.Dist[v] != best || multi.Src[v] != bestSeed {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestAPSPAmongSeeds(t *testing.T) {
	g := lineGraph(10, 2)
	seeds := []graph.VID{0, 5, 9}
	dist, preds := APSPAmongSeeds(g, seeds)
	want := [][]graph.Dist{
		{0, 10, 18},
		{10, 0, 8},
		{18, 8, 0},
	}
	for i := range want {
		for j := range want[i] {
			if dist[i][j] != want[i][j] {
				t.Errorf("dist[%d][%d] = %d, want %d", i, j, dist[i][j], want[i][j])
			}
		}
	}
	if len(preds) != 3 || preds[0][5] != 4 {
		t.Errorf("preds wrong")
	}
}

func TestWorkCountersPopulated(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := randomConnected(rng, 100, 10)
	r := Dijkstra(g, 0)
	if r.Relaxations < 99 || r.Settled < 100 {
		t.Fatalf("counters implausible: relax=%d settled=%d", r.Relaxations, r.Settled)
	}
	bf := BellmanFord(g, []graph.VID{0})
	if bf.Relaxations < r.Relaxations {
		t.Fatalf("Bellman-Ford did less relaxation work (%d) than Dijkstra (%d)", bf.Relaxations, r.Relaxations)
	}
}
