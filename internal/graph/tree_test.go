package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// validateSteinerTreeMap is ValidateSteinerTree as it was before it moved to
// sorted slices: maps for degrees, duplicates and seeds, and a map-indexed
// union-find. It is kept as the oracle of FuzzValidateSteinerTree. It
// panics on an edge endpoint outside [0, |V|), so callers screen those out.
func validateSteinerTreeMap(g *Graph, seeds []VID, edges []Edge) error {
	if len(seeds) == 0 {
		return fmt.Errorf("steiner: empty seed set")
	}
	if len(seeds) == 1 && len(edges) == 0 {
		return nil
	}
	inTree := make(map[VID]int, len(edges)*2) // vertex -> degree
	seen := make(map[[2]VID]bool, len(edges))
	for _, e := range edges {
		w, ok := g.HasEdge(e.U, e.V)
		if !ok {
			return fmt.Errorf("steiner: edge (%d,%d) not in background graph", e.U, e.V)
		}
		if w != e.W {
			return fmt.Errorf("steiner: edge (%d,%d) weight %d != graph weight %d", e.U, e.V, e.W, w)
		}
		c := e.Canon()
		key := [2]VID{c.U, c.V}
		if seen[key] {
			return fmt.Errorf("steiner: duplicate edge (%d,%d)", c.U, c.V)
		}
		seen[key] = true
		inTree[e.U]++
		inTree[e.V]++
	}
	idx := make(map[VID]int, len(edges)*2)
	for _, e := range edges {
		for _, v := range [2]VID{e.U, e.V} {
			if _, ok := idx[v]; !ok {
				idx[v] = len(idx)
			}
		}
	}
	parent := make([]int, len(idx))
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	acyclic, comps := true, len(idx)
	for _, e := range edges {
		ru, rv := find(idx[e.U]), find(idx[e.V])
		if ru == rv {
			acyclic = false
			continue
		}
		parent[ru] = rv
		comps--
	}
	if len(edges) > 0 && comps != 1 {
		return fmt.Errorf("steiner: edge set is disconnected")
	}
	if !acyclic {
		return fmt.Errorf("steiner: edge set contains a cycle")
	}
	isSeed := make(map[VID]bool, len(seeds))
	for _, s := range seeds {
		isSeed[s] = true
		if _, ok := inTree[s]; !ok {
			return fmt.Errorf("steiner: seed %d not spanned", s)
		}
	}
	for v, deg := range inTree {
		if deg == 1 && !isSeed[v] {
			return fmt.Errorf("steiner: non-seed leaf %d", v)
		}
	}
	return nil
}

// FuzzValidateSteinerTree holds ValidateSteinerTree to the map-based
// oracle's verdict on the paper's 9-vertex Fig. 1 graph. The first two
// bytes are a seed bitmask; every following triple is an edge whose
// endpoints range over [-2, 11), so some fall outside the graph, and whose
// weight is the graph's own when the weight byte is below 128 — so valid
// trees, duplicates, cycles, forests, wrong weights and phantom edges all
// turn up. An out-of-range endpoint must be rejected, never panic.
func FuzzValidateSteinerTree(f *testing.F) {
	g := paperFig1(f)
	fig1b := []byte{0x8d, 0x01} // seeds {0, 2, 3, 7, 8}
	// Vertex v is byte v+2: the tree {0,4} {4,5} {5,6} {2,6} {6,7} {3,7} {7,8}.
	for _, e := range [][2]byte{{2, 6}, {6, 7}, {7, 8}, {4, 8}, {8, 9}, {5, 9}, {9, 10}} {
		fig1b = append(fig1b, e[0], e[1], 0)
	}
	with := func(extra ...byte) []byte { return append(append([]byte(nil), fig1b...), extra...) }
	f.Add(fig1b)
	f.Add(with(2, 6, 0))                                      // {0,4} twice
	f.Add(with(2, 3, 0, 3, 7, 0))                             // cycle 0-1-5-4-0
	f.Add(with(2, 6, 200))                                    // wrong weight
	f.Add(append(append([]byte(nil), fig1b[:5]...), 1, 2, 0)) // endpoint -1
	f.Add([]byte{0x10, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		var seeds []VID
		for v := 0; v < 9; v++ {
			if (int(data[0])|int(data[1])<<8)>>v&1 == 1 {
				seeds = append(seeds, VID(v))
			}
		}
		var edges []Edge
		inRange := true
		for data = data[2:]; len(data) >= 3; data = data[3:] {
			e := Edge{U: VID(data[0]%13) - 2, V: VID(data[1]%13) - 2, W: uint32(data[2] % 32)}
			if e.U < 0 || e.U > 8 || e.V < 0 || e.V > 8 {
				inRange = false
			} else if w, ok := g.HasEdge(e.U, e.V); ok && data[2] < 128 {
				e.W = w
			}
			edges = append(edges, e)
		}
		got := ValidateSteinerTree(g, seeds, edges)
		if !inRange {
			if got == nil {
				t.Fatalf("edges %v with an endpoint outside the graph accepted", edges)
			}
			return
		}
		if want := validateSteinerTreeMap(g, seeds, edges); (got == nil) != (want == nil) {
			t.Fatalf("seeds %v, edges %v: got %v, oracle %v", seeds, edges, got, want)
		}
	})
}

// BenchmarkValidateSteinerTree validates a 7,422-edge Steiner tree of a
// 128×256 grid (random weights 1–100): the breadth-first tree from the
// centre, pruned to 170 random seeds, in the sorted canonical order a
// solve publishes. Its vertices spread over the whole grid, as a
// grid-manyterm-modes answer's do.
func BenchmarkValidateSteinerTree(b *testing.B) {
	const rows, cols = 128, 256
	rng := rand.New(rand.NewSource(1))
	bld := NewBuilder(rows * cols)
	for v := 0; v < rows*cols; v++ {
		if (v+1)%cols != 0 {
			bld.AddEdge(VID(v), VID(v+1), uint32(rng.Intn(100))+1)
		}
		if v+cols < rows*cols {
			bld.AddEdge(VID(v), VID(v+cols), uint32(rng.Intn(100))+1)
		}
	}
	g, err := bld.Build()
	if err != nil {
		b.Fatal(err)
	}
	bfs := BFS(g, rows/2*cols+cols/2)
	var tree []Edge
	for v, p := range bfs.Parent {
		if p != NilVID {
			w, _ := g.HasEdge(p, VID(v))
			tree = append(tree, Edge{U: p, V: VID(v), W: w}.Canon())
		}
	}
	var seeds []VID
	for _, v := range rng.Perm(rows * cols)[:170] {
		seeds = append(seeds, VID(v))
	}
	tree = PruneNonSeedLeaves(tree, seeds)
	slices.SortFunc(tree, CompareEdges)
	if err := ValidateSteinerTree(g, seeds, tree); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ValidateSteinerTree(g, seeds, tree); err != nil {
			b.Fatal(err)
		}
	}
}
