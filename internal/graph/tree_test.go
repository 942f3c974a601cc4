package graph

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
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

// gridGraph is a rows×cols grid with weights 1–5 drawn from rng, and the
// edge constructor that reads an edge's weight back from it.
func gridGraph(t testing.TB, rng *rand.Rand, rows, cols int) (*Graph, func(u, v VID) Edge) {
	t.Helper()
	bld := NewBuilder(rows * cols)
	for v := 0; v < rows*cols; v++ {
		if (v+1)%cols != 0 {
			bld.AddEdge(VID(v), VID(v+1), uint32(1+rng.Intn(5)))
		}
		if v+cols < rows*cols {
			bld.AddEdge(VID(v), VID(v+cols), uint32(1+rng.Intn(5)))
		}
	}
	g, err := bld.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g, func(u, v VID) Edge {
		w, ok := g.HasEdge(u, v)
		if !ok {
			t.Fatalf("no edge (%d,%d)", u, v)
		}
		return Edge{U: u, V: v, W: w}
	}
}

// TestValidateSteinerForestRejects breaks a valid two-group forest of a 6×6
// grid (vertex r·6 + c) in each way the forest check must catch, and
// requires the error to name that fault.
func TestValidateSteinerForestRejects(t *testing.T) {
	g, e := gridGraph(t, rand.New(rand.NewSource(3)), 6, 6)
	// Group 0 joins 0, 2 and 12 through Steiner vertex 1 and 6; group 1 is
	// the path 4-10-16; group 2 is the lone terminal 35.
	groups := [][]VID{{0, 2, 12}, {4, 16}, {35}}
	forest := []Edge{e(0, 1), e(1, 2), e(0, 6), e(6, 12), e(4, 10), e(10, 16)}
	trees, err := ValidateSteinerForest(g, groups, forest)
	if err != nil {
		t.Fatalf("valid forest rejected: %v", err)
	}
	want := [][]Edge{{e(0, 1), e(0, 6), e(1, 2), e(6, 12)}, {e(4, 10), e(10, 16)}, nil}
	if !reflect.DeepEqual(trees, want) {
		t.Fatalf("group trees %v, want %v", trees, want)
	}
	for _, tc := range []struct {
		name   string
		groups [][]VID
		edges  []Edge
		fault  string
	}{
		{"a tree joining two groups", groups, append(slices.Clone(forest), e(2, 3), e(3, 4)), "joins groups"},
		{"a group split over two trees", [][]VID{{0, 2, 12, 22, 28}, {4, 16}, {35}},
			append(slices.Clone(forest), e(22, 23), e(23, 29), e(28, 29)), "split"},
		{"a tree with no terminal", groups, append(slices.Clone(forest), e(20, 21)), "no terminal"},
		{"a non-terminal leaf", groups, append(slices.Clone(forest), e(12, 18)), "non-terminal leaf"},
		{"a cycle", [][]VID{{0, 2, 12}, {4, 16}, {35}, {7}},
			append(slices.Clone(forest), e(1, 7), e(6, 7)), "cycle"},
		{"a wrong weight", groups, append(forest[:5:5], Edge{10, 16, e(10, 16).W + 1}), "weight"},
		{"a duplicate edge", groups, append(slices.Clone(forest), e(10, 4)), "duplicate"},
		{"a terminal in two groups", [][]VID{{0, 2, 12}, {4, 16, 2}, {35}}, forest, "appears in groups"},
		{"an unspanned terminal", [][]VID{{0, 2, 12, 30}, {4, 16}, {35}}, forest, "not spanned"},
	} {
		if _, err := ValidateSteinerForest(g, tc.groups, tc.edges); err == nil || !strings.Contains(err.Error(), tc.fault) {
			t.Errorf("%s: err = %v, want one naming %q", tc.name, err, tc.fault)
		}
	}
}

// splitThenValidate is the forest check as it was before
// ValidateSteinerForest: label the edge set's components, hand each to the
// group whose terminals claim it, then validate every group's edges as a
// Steiner tree of its own. It is kept as the oracle of
// TestValidateSteinerForestMatchesSplit.
func splitThenValidate(g *Graph, groups [][]VID, edges []Edge) ([][]Edge, error) {
	verts, _, comp, _, _ := scanTree(sortedCanon(edges), true)
	claim := make([]int, len(verts)) // by component: 1 + the group claiming it
	for gi, grp := range groups {
		for _, t := range grp {
			j, ok := slices.BinarySearch(verts, t)
			if !ok {
				continue // singleton group: no tree vertices needed
			}
			if c := claim[comp[j]]; c != 0 && c != gi+1 {
				return nil, fmt.Errorf("tree component joins groups %d and %d", c-1, gi)
			}
			claim[comp[j]] = gi + 1
		}
	}
	out := make([][]Edge, len(groups))
	for _, e := range edges {
		j, _ := slices.BinarySearch(verts, e.U)
		gi := claim[comp[j]] - 1
		if gi < 0 {
			return nil, fmt.Errorf("tree component through %d-%d contains no terminal", e.U, e.V)
		}
		out[gi] = append(out[gi], e)
	}
	for gi, grp := range groups {
		if err := ValidateSteinerTree(g, grp, out[gi]); err != nil {
			return nil, fmt.Errorf("group %d: %w", gi, err)
		}
	}
	return out, nil
}

// TestValidateSteinerForestMatchesSplit holds ValidateSteinerForest to
// splitThenValidate on random forests of a grid: vertex-disjoint random
// trees, each with a group of terminals (its leaves and some inner vertices;
// a tree of one vertex is a lone-terminal group), then often broken by one mutation —
// an edge dropped, added, reweighted, repeated or reversed, a terminal moved
// to another group or added — and given in random order. Both must accept
// or reject alike, and on acceptance yield the same group trees (the
// oracle's put in canonical order).
func TestValidateSteinerForestMatchesSplit(t *testing.T) {
	const rows, cols = 8, 8
	rng := rand.New(rand.NewSource(4))
	g, e := gridGraph(t, rng, rows, cols)
	n := rows * cols
	accepted := 0
	for trial := 0; trial < 2000; trial++ {
		used := make([]bool, n)
		var groups [][]VID
		var edges []Edge
		for want := 1 + rng.Intn(5); len(groups) < want; {
			root := VID(rng.Intn(n))
			if used[root] {
				continue
			}
			used[root] = true
			tree, members := []Edge(nil), []VID{root}
			for steps := rng.Intn(12); steps > 0; steps-- {
				u := members[rng.Intn(len(members))]
				nbrs, _ := g.Adj(u)
				if v := nbrs[rng.Intn(len(nbrs))]; !used[v] {
					used[v] = true
					tree, members = append(tree, e(u, v).Canon()), append(members, v)
				}
			}
			var terms []VID // the leaves and a third of the rest
			for _, v := range members {
				if d := degreeIn(tree, v); d <= 1 || rng.Intn(3) == 0 {
					terms = append(terms, v)
				}
			}
			groups, edges = append(groups, terms), append(edges, tree...)
		}
		switch rng.Intn(9) {
		case 0:
			if len(edges) > 0 {
				i := rng.Intn(len(edges))
				edges = slices.Delete(edges, i, i+1)
			}
		case 1:
			u := VID(rng.Intn(n))
			nbrs, _ := g.Adj(u)
			edges = append(edges, e(u, nbrs[rng.Intn(len(nbrs))]))
		case 2:
			if len(edges) > 0 {
				edges[rng.Intn(len(edges))].W++
			}
		case 3:
			if len(edges) > 0 {
				edges = append(edges, edges[rng.Intn(len(edges))])
			}
		case 4:
			if len(edges) > 0 {
				i := rng.Intn(len(edges))
				edges[i].U, edges[i].V = edges[i].V, edges[i].U
			}
		case 5:
			if a, b := rng.Intn(len(groups)), rng.Intn(len(groups)); a != b && len(groups[a]) > 1 {
				i := rng.Intn(len(groups[a]))
				groups[b] = append(groups[b], groups[a][i])
				groups[a] = slices.Delete(groups[a], i, i+1)
			}
		case 6:
			v := VID(rng.Intn(n))
			if !slices.ContainsFunc(groups, func(grp []VID) bool { return slices.Contains(grp, v) }) {
				gi := rng.Intn(len(groups))
				groups[gi] = append(groups[gi], v)
			}
		}
		if rng.Intn(2) == 0 {
			rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
		}

		got, gotErr := ValidateSteinerForest(g, groups, edges)
		want, wantErr := splitThenValidate(g, groups, edges)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("trial %d: groups %v, edges %v: got err %v, oracle err %v", trial, groups, edges, gotErr, wantErr)
		}
		if gotErr != nil {
			continue
		}
		accepted++
		for gi, tree := range want {
			if want[gi] = nil; len(tree) > 0 {
				want[gi] = sortedCanon(tree)
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: groups %v, edges %v: trees %v, oracle %v", trial, groups, edges, got, want)
		}
	}
	t.Logf("%d of 2000 random forests accepted", accepted)
	if accepted < 200 || accepted > 1800 {
		t.Errorf("%d of 2000 random forests accepted: the mix no longer tests both outcomes", accepted)
	}
}

// degreeIn is v's degree in edges.
func degreeIn(edges []Edge, v VID) int {
	d := 0
	for _, x := range edges {
		if x.U == v || x.V == v {
			d++
		}
	}
	return d
}
