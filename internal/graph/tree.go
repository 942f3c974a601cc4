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

// sortedCanon returns edges canonical and in (U, V) order: edges itself
// when they already are, as a solve publishes its tree, else a sorted copy.
func sortedCanon(edges []Edge) []Edge {
	for i, e := range edges {
		if e.U > e.V || (i > 0 && CompareEdges(edges[i-1], e) > 0) {
			sorted := make([]Edge, len(edges))
			for j, e := range edges {
				sorted[j] = e.Canon()
			}
			slices.SortFunc(sorted, CompareEdges)
			return sorted
		}
	}
	return edges
}

// scanTree joins the endpoints of canonical edges in (U, V) order by
// union-find on dense int32 indices: verts are the distinct endpoints in
// increasing order, deg their degrees, root[j] the index of verts[j]'s
// component representative and comps the component count; acyclic is false
// once an edge closes a cycle (a repeated edge does). The U ends already come
// in vertex order; the V ends are radix-sorted as (vertex, edge) words and
// merged with them to number the vertices.
func scanTree(edges []Edge) (verts []VID, deg, root []int32, comps int, acyclic bool) {
	m := len(edges)
	vs := make([]int64, m)
	for i, e := range edges {
		vs[i] = int64(e.V)<<32 | int64(i)
	}
	var scratch []int64
	SortByKey(vs, &scratch, func(x int64) uint64 { return uint64(x) })
	end := make([]int32, 2*m) // dense index of edge i's U at 2i, of its V at 2i+1
	verts, deg = make([]VID, 0, m+1), make([]int32, 0, m+1)
	for i, j := 0, 0; i < m || j < m; {
		var v VID
		var slot int
		if j == m || (i < m && edges[i].U <= VID(vs[j]>>32)) {
			v, slot = edges[i].U, 2*i
			i++
		} else {
			v, slot = VID(vs[j]>>32), 2*int(uint32(vs[j]))+1
			j++
		}
		if len(verts) == 0 || verts[len(verts)-1] != v {
			verts, deg = append(verts, v), append(deg, 0)
		}
		deg[len(deg)-1]++
		end[slot] = int32(len(verts) - 1)
	}
	root = make([]int32, len(verts))
	for i := range root {
		root[i] = int32(i)
	}
	find := func(x int32) int32 {
		for root[x] != x {
			root[x] = root[root[x]]
			x = root[x]
		}
		return x
	}
	comps, acyclic = len(verts), true
	for i := 0; i < m; i++ {
		if ru, rv := find(end[2*i]), find(end[2*i+1]); ru != rv {
			root[ru] = rv
			comps--
		} else {
			acyclic = false
		}
	}
	for i := range root {
		root[i] = find(int32(i))
	}
	return verts, deg, root, comps, acyclic
}

// checkEdges verifies that every edge has both endpoints in g, exists there
// with matching weight and appears once, and returns the edges canonical and
// in (U, V) order (see sortedCanon).
func checkEdges(g *Graph, edges []Edge) ([]Edge, error) {
	n := VID(g.NumVertices())
	for _, e := range edges {
		if e.U < 0 || e.U >= n || e.V < 0 || e.V >= n {
			return nil, fmt.Errorf("steiner: edge (%d,%d) has an endpoint outside [0,%d)", e.U, e.V, n)
		}
		w, ok := g.HasEdge(e.U, e.V)
		if !ok {
			return nil, fmt.Errorf("steiner: edge (%d,%d) not in background graph", e.U, e.V)
		}
		if w != e.W {
			return nil, fmt.Errorf("steiner: edge (%d,%d) weight %d != graph weight %d", e.U, e.V, e.W, w)
		}
	}
	edges = sortedCanon(edges)
	for i := 1; i < len(edges); i++ {
		if CompareEdges(edges[i-1], edges[i]) == 0 {
			return nil, fmt.Errorf("steiner: duplicate edge (%d,%d)", edges[i].U, edges[i].V)
		}
	}
	return edges, nil
}

// ValidateSteinerTree verifies that edges form a valid Steiner tree of g for
// the given seed set: every edge has both endpoints in g and exists there
// with matching weight, no edge repeats, the edge set is a tree, all seeds
// appear in it (a single seed with no edges is valid), and every leaf is a
// seed (KMB Step 5 postcondition). It returns a descriptive error on the
// first violation. It works on sorted slices, never a map, and copies edges
// or seeds only when they are out of order.
func ValidateSteinerTree(g *Graph, seeds []VID, edges []Edge) error {
	if len(seeds) == 0 {
		return fmt.Errorf("steiner: empty seed set")
	}
	if len(seeds) == 1 && len(edges) == 0 {
		return nil
	}
	edges, err := checkEdges(g, edges)
	if err != nil {
		return err
	}
	verts, deg, _, comps, acyclic := scanTree(edges)
	if comps > 1 {
		return fmt.Errorf("steiner: edge set is disconnected")
	}
	if !acyclic {
		return fmt.Errorf("steiner: edge set contains a cycle")
	}
	if !slices.IsSorted(seeds) {
		seeds = slices.Sorted(slices.Values(seeds))
	}
	i := 0
	for _, s := range seeds { // a merge: both lists are sorted
		for i < len(verts) && verts[i] < s {
			i++
		}
		if i == len(verts) || verts[i] != s {
			return fmt.Errorf("steiner: seed %d not spanned", s)
		}
		deg[i] = 0 // a seed may be a leaf
	}
	for i, d := range deg {
		if d == 1 {
			return fmt.Errorf("steiner: non-seed leaf %d", verts[i])
		}
	}
	return nil
}

// ValidateSteinerForest verifies in one scan that edges form a valid Steiner
// forest of g for the terminal groups, and returns each group's tree,
// parallel to groups: its edges canonical and in (U, V) order, nil for a
// group with none. Every edge must lie in g with its weight and appear once,
// and the edge set must be acyclic; each of its components must hold the
// terminals of exactly one group, each group must lie in one component (a
// singleton group may lie in none), every leaf must be a terminal, and no
// terminal may appear twice. It returns a descriptive error on the first
// violation. Like ValidateSteinerTree it works on sorted slices, never a map.
func ValidateSteinerForest(g *Graph, groups [][]VID, edges []Edge) ([][]Edge, error) {
	// Terminals as (vertex, group) words, in vertex order.
	n := VID(g.NumVertices())
	var terms []uint64
	for gi, grp := range groups {
		if len(grp) == 0 {
			return nil, fmt.Errorf("steiner: group %d is empty", gi)
		}
		for _, t := range grp {
			if t < 0 || t >= n {
				return nil, fmt.Errorf("steiner: terminal %d outside [0,%d)", t, n)
			}
			terms = append(terms, uint64(t)<<32|uint64(gi))
		}
	}
	var scratch []uint64
	SortByKey(terms, &scratch, func(x uint64) uint64 { return x })

	edges, err := checkEdges(g, edges)
	if err != nil {
		return nil, err
	}
	verts, deg, root, _, acyclic := scanTree(edges)
	if !acyclic {
		return nil, fmt.Errorf("steiner: edge set contains a cycle")
	}
	// A merge of the terminals into verts: claim[r] is 1 + the group holding
	// the component rooted at r, home[gi] 1 + the root of group gi's.
	claim, home := make([]int32, len(verts)), make([]int32, len(groups))
	j := 0
	for i, x := range terms {
		t, gi := VID(x>>32), int32(uint32(x))
		if i > 0 && VID(terms[i-1]>>32) == t {
			return nil, fmt.Errorf("steiner: terminal %d appears in groups %d and %d", t, uint32(terms[i-1]), gi)
		}
		for j < len(verts) && verts[j] < t {
			j++
		}
		if j == len(verts) || verts[j] != t {
			if len(groups[gi]) > 1 {
				return nil, fmt.Errorf("steiner: terminal %d of group %d not spanned", t, gi)
			}
			continue
		}
		deg[j] = 0 // a terminal may be a leaf
		r := root[j]
		if c := claim[r]; c != 0 && c != gi+1 {
			return nil, fmt.Errorf("steiner: a tree joins groups %d and %d", c-1, gi)
		}
		if h := home[gi]; h != 0 && h != r+1 {
			return nil, fmt.Errorf("steiner: group %d is split over several trees", gi)
		}
		claim[r], home[gi] = gi+1, r+1
	}
	for j, r := range root {
		if r == int32(j) && claim[j] == 0 {
			return nil, fmt.Errorf("steiner: the tree through %d holds no terminal", verts[j])
		}
	}
	for j, d := range deg {
		if d == 1 {
			return nil, fmt.Errorf("steiner: non-terminal leaf %d", verts[j])
		}
	}

	// The group trees share one array: size each, then fill in edge order.
	of, size := make([]int32, len(edges)), make([]int, len(groups))
	j = 0
	for i, e := range edges {
		for verts[j] != e.U {
			j++
		}
		of[i] = claim[root[j]] - 1
		size[of[i]]++
	}
	trees, all := make([][]Edge, len(groups)), make([]Edge, len(edges))
	for gi, c := range size {
		if c > 0 {
			trees[gi], all = all[:0:c], all[c:]
		}
	}
	for i, e := range edges {
		trees[of[i]] = append(trees[of[i]], e)
	}
	return trees, nil
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
