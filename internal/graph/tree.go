package graph

import (
	"fmt"
	"io"
	"slices"
)

// WriteDOT emits a Graphviz rendering of a Steiner tree: seed vertices
// filled red, Steiner vertices filled blue (the paper's Fig. 9 styling),
// edges labelled with their weights. Vertices come out in increasing order
// and edges in the order given, so one tree always renders to the same bytes.
func WriteDOT(w io.Writer, tree []Edge, seeds []VID) {
	isSeed := make(map[VID]bool, len(seeds))
	for _, s := range seeds {
		isSeed[s] = true
	}
	verts := make([]VID, 0, 2*len(tree))
	for _, e := range tree {
		verts = append(verts, e.U, e.V)
	}
	slices.Sort(verts)
	fmt.Fprintln(w, "graph steiner {")
	fmt.Fprintln(w, "  node [style=filled, fontcolor=white];")
	for _, v := range slices.Compact(verts) {
		color := "blue"
		if isSeed[v] {
			color = "red"
		}
		fmt.Fprintf(w, "  %d [fillcolor=%s];\n", v, color)
	}
	for _, e := range tree {
		fmt.Fprintf(w, "  %d -- %d [label=%d];\n", e.U, e.V, e.W)
	}
	fmt.Fprintln(w, "}")
}

// TreeCheck reports structural facts about an edge set interpreted as a
// subgraph of some background graph.
type TreeCheck struct {
	NumVertices int  // distinct endpoints
	NumEdges    int  // edges in the set
	Connected   bool // single connected piece
	Acyclic     bool // |E| == |V|-1 and connected implies tree
}

// CheckTree analyses an edge multiset. Duplicate edges count as cycles.
func CheckTree(edges []Edge) TreeCheck {
	if len(edges) == 0 {
		return TreeCheck{Connected: true, Acyclic: true}
	}
	// Collect endpoints and map to dense indices.
	idx := make(map[VID]int, len(edges)*2)
	for _, e := range edges {
		if _, ok := idx[e.U]; !ok {
			idx[e.U] = len(idx)
		}
		if _, ok := idx[e.V]; !ok {
			idx[e.V] = len(idx)
		}
	}
	parent := make([]int, len(idx))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	acyclic := true
	comps := len(idx)
	for _, e := range edges {
		ru, rv := find(idx[e.U]), find(idx[e.V])
		if ru == rv {
			acyclic = false
			continue
		}
		parent[ru] = rv
		comps--
	}
	return TreeCheck{
		NumVertices: len(idx),
		NumEdges:    len(edges),
		Connected:   comps == 1,
		Acyclic:     acyclic,
	}
}

// ValidateSteinerTree verifies that edges form a valid Steiner tree of g for
// the given seed set: every edge exists in g with matching weight, the edge
// set is a tree, all seeds appear in it (a single seed with no edges is
// valid), and every leaf is a seed (KMB Step 5 postcondition). It returns a
// descriptive error on the first violation.
func ValidateSteinerTree(g *Graph, seeds []VID, edges []Edge) error {
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
	chk := CheckTree(edges)
	if !chk.Connected {
		return fmt.Errorf("steiner: edge set is disconnected")
	}
	if !chk.Acyclic {
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

// PruneNonSeedLeaves repeatedly removes tree leaves that are not seeds (KMB
// Algorithm 1, Step 5). The input must be a tree; the result is the pruned
// edge list. Sequential baselines (KMB, Mehlhorn, WWW) use this; the
// distributed algorithm produces seed-only leaves by construction.
func PruneNonSeedLeaves(edges []Edge, seeds []VID) []Edge {
	isSeed := make(map[VID]bool, len(seeds))
	for _, s := range seeds {
		isSeed[s] = true
	}
	cur := append([]Edge(nil), edges...)
	for {
		deg := make(map[VID]int, len(cur)*2)
		for _, e := range cur {
			deg[e.U]++
			deg[e.V]++
		}
		next := cur[:0]
		removed := false
		for _, e := range cur {
			if (deg[e.U] == 1 && !isSeed[e.U]) || (deg[e.V] == 1 && !isSeed[e.V]) {
				removed = true
				continue
			}
			next = append(next, e)
		}
		cur = next
		if !removed {
			return cur
		}
	}
}
