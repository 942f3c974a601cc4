package graph

import (
	"bytes"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// paperFig1 builds the 9-vertex example graph of the paper's Fig. 1
// (vertices renumbered 0..8; the paper numbers them 1..9).
//
// Edges (paper numbering): 1-2:16, 1-5:2, 5-6:4, 2-6:2, 2-3:20, 6-7:1,
// 3-7:1, 3-4:24, 7-8:2, 4-8:2, 8-9:2, 4-9:18(approx).
func paperFig1(t testing.TB) *Graph {
	t.Helper()
	b := NewBuilder(9)
	for _, e := range []Edge{
		{0, 1, 16}, {0, 4, 2}, {4, 5, 4}, {1, 5, 2}, {1, 2, 20},
		{5, 6, 1}, {2, 6, 1}, {2, 3, 24}, {6, 7, 2}, {3, 7, 2}, {7, 8, 2}, {3, 8, 18},
	} {
		b.AddEdge(e.U, e.V, e.W)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return g
}

func TestBuilderBasics(t *testing.T) {
	g := paperFig1(t)
	if got := g.NumVertices(); got != 9 {
		t.Fatalf("NumVertices = %d, want 9", got)
	}
	if got := g.NumEdges(); got != 12 {
		t.Fatalf("NumEdges = %d, want 12", got)
	}
	if got := g.NumArcs(); got != 24 {
		t.Fatalf("NumArcs = %d, want 24", got)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if w, ok := g.HasEdge(0, 1); !ok || w != 16 {
		t.Fatalf("HasEdge(0,1) = (%d,%v), want (16,true)", w, ok)
	}
	if w, ok := g.HasEdge(1, 0); !ok || w != 16 {
		t.Fatalf("HasEdge(1,0) = (%d,%v), want (16,true)", w, ok)
	}
	if _, ok := g.HasEdge(0, 8); ok {
		t.Fatal("HasEdge(0,8) should be absent")
	}
	minW, maxW := g.WeightRange()
	if minW != 1 || maxW != 24 {
		t.Fatalf("WeightRange = (%d,%d), want (1,24)", minW, maxW)
	}
}

func TestBuilderDedupKeepsMinWeight(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1, 7)
	b.AddEdge(1, 0, 3) // same undirected edge, lower weight
	b.AddEdge(0, 1, 9)
	b.AddEdge(1, 2, 4)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2", g.NumEdges())
	}
	if w, _ := g.HasEdge(0, 1); w != 3 {
		t.Fatalf("weight(0,1) = %d, want min 3", w)
	}
}

func TestBuilderDropsSelfLoopsAndClampsZeroWeights(t *testing.T) {
	b := NewBuilder(2)
	b.AddEdge(0, 0, 5) // dropped
	b.AddEdge(0, 1, 0) // clamped to 1
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1", g.NumEdges())
	}
	if w, _ := g.HasEdge(0, 1); w != 1 {
		t.Fatalf("weight = %d, want clamped 1", w)
	}
}

func TestBuilderRejectsOutOfRange(t *testing.T) {
	b := NewBuilder(2)
	b.AddEdge(0, 5, 1)
	if _, err := b.Build(); err == nil {
		t.Fatal("expected out-of-range error")
	}
}

func TestDegreesAndAdjacency(t *testing.T) {
	g := paperFig1(t)
	wantDeg := map[VID]int{0: 2, 1: 3, 2: 3, 3: 3, 4: 2, 5: 3, 6: 3, 7: 3, 8: 2}
	for v, want := range wantDeg {
		if got := g.Degree(v); got != want {
			t.Errorf("Degree(%d) = %d, want %d", v, got, want)
		}
	}
	if got := g.MaxDegree(); got != 3 {
		t.Errorf("MaxDegree = %d, want 3", got)
	}
	avg := g.AvgDegree()
	if avg < 2.66 || avg > 2.67 {
		t.Errorf("AvgDegree = %f, want 24/9", avg)
	}
	// Adjacency sorted ascending.
	for v := 0; v < g.NumVertices(); v++ {
		ts, _ := g.Adj(VID(v))
		for i := 1; i < len(ts); i++ {
			if ts[i-1] >= ts[i] {
				t.Fatalf("adjacency of %d not sorted: %v", v, ts)
			}
		}
	}
}

func TestNeighborsEarlyStop(t *testing.T) {
	g := paperFig1(t)
	count := 0
	g.Neighbors(0, func(u VID, w uint32) bool {
		count++
		return false
	})
	if count != 1 {
		t.Fatalf("early stop visited %d, want 1", count)
	}
}

func TestEdgesRoundTrip(t *testing.T) {
	g := paperFig1(t)
	edges := g.Edges()
	if len(edges) != 12 {
		t.Fatalf("Edges len = %d, want 12", len(edges))
	}
	g2, err := FromEdges(9, edges)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumArcs() != g.NumArcs() {
		t.Fatalf("round trip arcs %d != %d", g2.NumArcs(), g.NumArcs())
	}
	for _, e := range edges {
		if w, ok := g2.HasEdge(e.U, e.V); !ok || w != e.W {
			t.Fatalf("edge (%d,%d,%d) lost in round trip", e.U, e.V, e.W)
		}
	}
}

func TestBFSLevelsOnPath(t *testing.T) {
	// 0-1-2-3-4 path
	b := NewBuilder(5)
	for i := VID(0); i < 4; i++ {
		b.AddEdge(i, i+1, 1)
	}
	g, _ := b.Build()
	r := BFS(g, 0)
	for v := 0; v < 5; v++ {
		if r.Level[v] != int32(v) {
			t.Errorf("Level[%d] = %d, want %d", v, r.Level[v], v)
		}
	}
	if r.MaxLevel != 4 || r.Reached != 5 {
		t.Errorf("MaxLevel=%d Reached=%d, want 4,5", r.MaxLevel, r.Reached)
	}
	hist := r.LevelHistogram()
	for l, c := range hist {
		if c != 1 {
			t.Errorf("hist[%d] = %d, want 1", l, c)
		}
	}
	if got := r.VerticesAtLevel(2); len(got) != 1 || got[0] != 2 {
		t.Errorf("VerticesAtLevel(2) = %v", got)
	}
}

func TestBFSUnreachable(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1, 1)
	b.AddEdge(2, 3, 1)
	g, _ := b.Build()
	r := BFS(g, 0)
	if r.Level[2] != -1 || r.Level[3] != -1 {
		t.Errorf("disconnected vertices should be level -1, got %v", r.Level)
	}
	if r.Reached != 2 {
		t.Errorf("Reached = %d, want 2", r.Reached)
	}
	if r.Parent[1] != 0 || r.Parent[0] != NilVID {
		t.Errorf("parents wrong: %v", r.Parent)
	}
}

func TestConnectedComponents(t *testing.T) {
	b := NewBuilder(7)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	b.AddEdge(3, 4, 1)
	// 5, 6 isolated
	g, _ := b.Build()
	c := ConnectedComponents(g)
	if c.NumComponents() != 4 {
		t.Fatalf("NumComponents = %d, want 4", c.NumComponents())
	}
	if c.Label[0] != c.Label[2] || c.Label[0] == c.Label[3] {
		t.Errorf("labels wrong: %v", c.Label)
	}
	if c.Largest() != c.Label[0] {
		t.Errorf("Largest = %d, want component of vertex 0", c.Largest())
	}
	lcv := LargestComponentVertices(g)
	if len(lcv) != 3 || lcv[0] != 0 || lcv[2] != 2 {
		t.Errorf("LargestComponentVertices = %v", lcv)
	}
}

func TestCheckTree(t *testing.T) {
	check := func(edges []Edge) (n, comps int, acyclic bool) {
		verts, _, _, comps, acyclic := scanTree(sortedCanon(edges), false)
		return len(verts), comps, acyclic
	}
	if n, comps, acyclic := check([]Edge{{0, 1, 1}, {1, 2, 1}, {1, 3, 1}}); comps != 1 || !acyclic || n != 4 {
		t.Errorf("tree misclassified: %d vertices, %d components, acyclic %v", n, comps, acyclic)
	}
	if _, _, acyclic := check([]Edge{{0, 1, 1}, {1, 2, 1}, {2, 0, 1}}); acyclic {
		t.Error("cycle misclassified")
	}
	if _, _, acyclic := check([]Edge{{0, 1, 1}, {1, 0, 1}}); acyclic {
		t.Error("repeated edge not counted as a cycle")
	}
	if _, comps, _ := check([]Edge{{0, 1, 1}, {2, 3, 1}}); comps != 2 {
		t.Errorf("forest misclassified: %d components", comps)
	}
	if _, comps, acyclic := check(nil); comps > 1 || !acyclic {
		t.Errorf("empty set should be a trivial tree: %d components, acyclic %v", comps, acyclic)
	}
	verts, _, comp, _, _ := scanTree(sortedCanon([]Edge{{5, 1, 1}, {7, 9, 1}, {1, 3, 1}}), true)
	if !slices.Equal(verts, []VID{1, 3, 5, 7, 9}) || comp[0] != comp[1] || comp[1] != comp[2] ||
		comp[3] != comp[4] || comp[0] == comp[3] {
		t.Errorf("components of {1,3,5} and {7,9}: verts %v, comp %v", verts, comp)
	}
}

func TestValidateSteinerTree(t *testing.T) {
	g := paperFig1(t)
	// The paper's Fig. 1(b) Steiner tree for seeds {1,3,4,8,9} (0-based:
	// {0,2,3,7,8}): edges 1-5, 5-6, 6-7, 3-7, 7-8, 8-9 plus 2-6 in 0-based:
	seeds := []VID{0, 2, 3, 7, 8}
	tree := []Edge{{0, 4, 2}, {4, 5, 4}, {5, 6, 1}, {2, 6, 1}, {6, 7, 2}, {3, 7, 2}, {7, 8, 2}}
	if err := ValidateSteinerTree(g, seeds, tree); err != nil {
		t.Fatalf("valid tree rejected: %v", err)
	}
	// Missing seed.
	if err := ValidateSteinerTree(g, []VID{0, 1}, tree); err == nil {
		t.Fatal("tree not spanning seed 1 accepted")
	}
	// Non-seed leaf: drop the edge to seed 0 making Steiner vertex 4 a leaf.
	if err := ValidateSteinerTree(g, seeds[1:], tree); err == nil {
		t.Fatal("non-seed leaf accepted")
	}
	// Wrong weight.
	bad := append([]Edge(nil), tree...)
	bad[0].W = 99
	if err := ValidateSteinerTree(g, seeds, bad); err == nil {
		t.Fatal("wrong weight accepted")
	}
	// Nonexistent edge.
	bad = append([]Edge(nil), tree...)
	bad[0] = Edge{0, 8, 1}
	if err := ValidateSteinerTree(g, seeds, bad); err == nil {
		t.Fatal("phantom edge accepted")
	}
	// Endpoints outside the graph, either side: an error, not a panic.
	for _, e := range []Edge{{-1, 2, 1}, {2, -1, 1}, {0, 9, 1}, {9, 0, 1}} {
		bad = append(append([]Edge(nil), tree...), e)
		if err := ValidateSteinerTree(g, seeds, bad); err == nil || !strings.Contains(err.Error(), "outside") {
			t.Fatalf("edge %v: %v, want an out-of-range error", e, err)
		}
	}
	// Single seed, empty tree.
	if err := ValidateSteinerTree(g, []VID{3}, nil); err != nil {
		t.Fatalf("single seed empty tree rejected: %v", err)
	}
}

// TestWriteDOT checks the rendering and that it is deterministic: vertices
// in increasing order, edges as given, two renders of one tree byte-equal.
func TestWriteDOT(t *testing.T) {
	tree := []Edge{{5, 1, 4}, {1, 2, 3}, {0, 1, 5}, {2, 9, 7}}
	render := func() string {
		var buf bytes.Buffer
		WriteDOT(&buf, tree, []VID{0, 9, 5})
		return buf.String()
	}
	want := `graph steiner {
  node [style=filled, fontcolor=white];
  0 [fillcolor=red];
  1 [fillcolor=blue];
  2 [fillcolor=blue];
  5 [fillcolor=red];
  9 [fillcolor=red];
  5 -- 1 [label=4];
  1 -- 2 [label=3];
  0 -- 1 [label=5];
  2 -- 9 [label=7];
}
`
	for i := 0; i < 2; i++ {
		if got := render(); got != want {
			t.Fatalf("render %d:\n%s\nwant:\n%s", i, got, want)
		}
	}
}

func TestPruneNonSeedLeaves(t *testing.T) {
	// Star + dangling path: seeds {0, 2}; path 0-1-2 plus dangle 1-3-4.
	edges := []Edge{{0, 1, 1}, {1, 2, 1}, {1, 3, 1}, {3, 4, 1}}
	pruned := PruneNonSeedLeaves(edges, []VID{0, 2})
	if len(pruned) != 2 {
		t.Fatalf("pruned = %v, want 2 edges", pruned)
	}
	for _, e := range pruned {
		if e.U == 4 || e.V == 4 || e.U == 3 || e.V == 3 {
			t.Fatalf("dangling vertices not pruned: %v", pruned)
		}
	}
	// No pruning needed.
	got := PruneNonSeedLeaves(edges[:2], []VID{0, 2})
	if len(got) != 2 {
		t.Fatalf("unexpected pruning: %v", got)
	}
}

func TestTotalWeight(t *testing.T) {
	if got := TotalWeight([]Edge{{0, 1, 2}, {1, 2, 3}}); got != 5 {
		t.Fatalf("TotalWeight = %d, want 5", got)
	}
	if got := TotalWeight(nil); got != 0 {
		t.Fatalf("TotalWeight(nil) = %d, want 0", got)
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	g := paperFig1(t)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumVertices() != g.NumVertices() || g2.NumArcs() != g.NumArcs() {
		t.Fatalf("shape mismatch after round trip")
	}
	for _, e := range g.Edges() {
		if w, ok := g2.HasEdge(e.U, e.V); !ok || w != e.W {
			t.Fatalf("edge (%d,%d) lost", e.U, e.V)
		}
	}
	minW, maxW := g2.WeightRange()
	if minW != 1 || maxW != 24 {
		t.Fatalf("weight range lost: (%d,%d)", minW, maxW)
	}
}

// TestBinaryRoundTripAcrossColumnChunks round-trips a graph whose columns
// each span several of the scratch chunks the codec moves them through, so
// every chunk boundary must carry over: the rewrite is byte for byte the
// first file.
func TestBinaryRoundTripAcrossColumnChunks(t *testing.T) {
	n := 3*ColumnChunk/8 + 101
	g := randomGraph(rand.New(rand.NewSource(7)), n, 2*n, 1<<20)
	if g.NumArcs() <= 2*ColumnChunk/4 {
		t.Fatalf("%d arcs fill fewer than three chunks", g.NumArcs())
	}
	var first, second bytes.Buffer
	if err := WriteBinary(&first, g); err != nil {
		t.Fatal(err)
	}
	raw := slices.Clone(first.Bytes())
	g2, err := ReadBinary(&first)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(g.Edges(), g2.Edges()) {
		t.Fatal("edges changed in round trip")
	}
	if err := WriteBinary(&second, g2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, second.Bytes()) {
		t.Fatal("rewritten file differs from the first")
	}
}

func TestBinaryRejectsGarbage(t *testing.T) {
	if _, err := ReadBinary(bytes.NewReader([]byte("not a graph file"))); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := paperFig1(t)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != g.NumEdges() {
		t.Fatalf("NumEdges %d != %d", g2.NumEdges(), g.NumEdges())
	}
}

func TestEdgeListParsing(t *testing.T) {
	in := "# comment\n0 1\n1 2 7\n\n"
	g, err := ReadEdgeList(bytes.NewReader([]byte(in)))
	if err != nil {
		t.Fatal(err)
	}
	if w, _ := g.HasEdge(0, 1); w != 1 {
		t.Errorf("default weight = %d, want 1", w)
	}
	if w, _ := g.HasEdge(1, 2); w != 7 {
		t.Errorf("weight = %d, want 7", w)
	}
	if _, err := ReadEdgeList(bytes.NewReader([]byte("0\n"))); err == nil {
		t.Error("short line accepted")
	}
	if _, err := ReadEdgeList(bytes.NewReader([]byte("0 1 -5\n"))); err == nil {
		t.Error("negative weight accepted")
	}
}

// randomGraph builds a connected random graph for property tests: a random
// spanning tree plus extra random edges.
func randomGraph(rng *rand.Rand, n, extra int, maxW uint32) *Graph {
	b := NewBuilder(n)
	for v := 1; v < n; v++ {
		u := rng.Intn(v)
		b.AddEdge(VID(u), VID(v), uint32(rng.Intn(int(maxW)))+1)
	}
	for i := 0; i < extra; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		b.AddEdge(VID(u), VID(v), uint32(rng.Intn(int(maxW)))+1)
	}
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

func TestPropertyRandomGraphsValidate(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(60)
		g := randomGraph(rng, n, rng.Intn(3*n), 100)
		return g.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyBinaryRoundTripPreservesEdges(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		g := randomGraph(rng, n, rng.Intn(2*n), 50)
		var buf bytes.Buffer
		if err := WriteBinary(&buf, g); err != nil {
			return false
		}
		g2, err := ReadBinary(&buf)
		if err != nil {
			return false
		}
		e1, e2 := g.Edges(), g2.Edges()
		if len(e1) != len(e2) {
			return false
		}
		for i := range e1 {
			if e1[i] != e2[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyBFSTriangleInequality(t *testing.T) {
	// BFS levels of adjacent vertices differ by at most 1.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(50)
		g := randomGraph(rng, n, rng.Intn(2*n), 10)
		r := BFS(g, 0)
		for _, e := range g.Edges() {
			lu, lv := r.Level[e.U], r.Level[e.V]
			if lu < 0 || lv < 0 {
				return false // connected by construction
			}
			d := lu - lv
			if d < -1 || d > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestEdgeCanon(t *testing.T) {
	e := Edge{U: 5, V: 2, W: 9}.Canon()
	if e.U != 2 || e.V != 5 || e.W != 9 {
		t.Fatalf("Canon = %+v", e)
	}
	e = Edge{U: 1, V: 3, W: 9}.Canon()
	if e.U != 1 || e.V != 3 {
		t.Fatalf("Canon changed ordered edge: %+v", e)
	}
}

func TestMemoryBytes(t *testing.T) {
	g := paperFig1(t)
	want := int64(10*8 + 24*4 + 24*4)
	if got := g.MemoryBytes(); got != want {
		t.Fatalf("MemoryBytes = %d, want %d", got, want)
	}
}
