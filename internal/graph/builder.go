package graph

import (
	"fmt"
	"sort"
)

// Builder accumulates undirected edges and produces a CSR Graph. Duplicate
// edges keep the minimum weight; self loops are dropped. Builder is not safe
// for concurrent use.
type Builder struct {
	n     int
	edges []Edge
}

// NewBuilder returns a Builder for a graph with n vertices.
func NewBuilder(n int) *Builder {
	return &Builder{n: n}
}

// AddEdge records the undirected edge {u, v} with weight w. Zero-weight
// edges are clamped to weight 1 (the paper's distance function maps into
// Z+ \ {0}).
func (b *Builder) AddEdge(u, v VID, w uint32) {
	if u == v {
		return
	}
	if w == 0 {
		w = 1
	}
	b.edges = append(b.edges, Edge{U: u, V: v, W: w}.Canon())
}

// AddEdges records a batch of edges.
func (b *Builder) AddEdges(edges []Edge) {
	for _, e := range edges {
		b.AddEdge(e.U, e.V, e.W)
	}
}

// Build produces the CSR graph. The Builder can be reused afterwards.
func (b *Builder) Build() (*Graph, error) {
	for _, e := range b.edges {
		if e.U < 0 || int(e.U) >= b.n || e.V < 0 || int(e.V) >= b.n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", e.U, e.V, b.n)
		}
	}
	// Deduplicate keeping the minimum weight per canonical pair.
	sort.Slice(b.edges, func(i, j int) bool {
		a, c := b.edges[i], b.edges[j]
		if a.U != c.U {
			return a.U < c.U
		}
		if a.V != c.V {
			return a.V < c.V
		}
		return a.W < c.W
	})
	uniq := b.edges[:0]
	for _, e := range b.edges {
		if len(uniq) > 0 {
			last := &uniq[len(uniq)-1]
			if last.U == e.U && last.V == e.V {
				continue // sorted by weight: first occurrence is the minimum
			}
		}
		uniq = append(uniq, e)
	}
	return FromEdges(b.n, uniq)
}

// FromEdges builds a CSR graph from a deduplicated canonical edge list.
// Most callers should use a Builder; FromEdges assumes edges are unique
// {U < V} pairs but tolerates any order.
func FromEdges(n int, edges []Edge) (*Graph, error) {
	g := &Graph{
		offsets: make([]int64, n+1),
		targets: make([]VID, 2*len(edges)),
		weights: make([]uint32, 2*len(edges)),
		numEdge: int64(len(edges)),
	}
	if len(edges) > 0 {
		g.minW = edges[0].W
	}
	for _, e := range edges {
		if e.U < 0 || int(e.U) >= n || e.V < 0 || int(e.V) >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", e.U, e.V, n)
		}
		if e.U == e.V {
			return nil, fmt.Errorf("graph: self loop at %d", e.U)
		}
		g.offsets[e.U+1]++
		g.offsets[e.V+1]++
		if e.W < g.minW {
			g.minW = e.W
		}
		if e.W > g.maxW {
			g.maxW = e.W
		}
	}
	for v := 0; v < n; v++ {
		g.offsets[v+1] += g.offsets[v]
	}
	cursor := make([]int64, n)
	for _, e := range edges {
		iu := g.offsets[e.U] + cursor[e.U]
		g.targets[iu], g.weights[iu] = e.V, e.W
		cursor[e.U]++
		iv := g.offsets[e.V] + cursor[e.V]
		g.targets[iv], g.weights[iv] = e.U, e.W
		cursor[e.V]++
	}
	// Sort each adjacency list by target for binary search and determinism.
	for v := 0; v < n; v++ {
		lo, hi := g.offsets[v], g.offsets[v+1]
		sortAdj(g.targets[lo:hi], g.weights[lo:hi])
	}
	g.computeMaxDegree()
	return g, nil
}

// MustFromEdges is FromEdges that panics on error, for tests and examples
// with literal inputs.
func MustFromEdges(n int, edges []Edge) *Graph {
	g, err := FromEdges(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// sortAdj sorts parallel target/weight slices by target. Insertion sort for
// short lists (the common case after RMAT generation), heap-free quicksort
// by index otherwise.
func sortAdj(ts []VID, ws []uint32) {
	if len(ts) < 24 {
		for i := 1; i < len(ts); i++ {
			t, w := ts[i], ws[i]
			j := i - 1
			for j >= 0 && ts[j] > t {
				ts[j+1], ws[j+1] = ts[j], ws[j]
				j--
			}
			ts[j+1], ws[j+1] = t, w
		}
		return
	}
	sort.Sort(&adjSorter{ts, ws})
}

type adjSorter struct {
	ts []VID
	ws []uint32
}

func (s *adjSorter) Len() int           { return len(s.ts) }
func (s *adjSorter) Less(i, j int) bool { return s.ts[i] < s.ts[j] }
func (s *adjSorter) Swap(i, j int) {
	s.ts[i], s.ts[j] = s.ts[j], s.ts[i]
	s.ws[i], s.ws[j] = s.ws[j], s.ws[i]
}
