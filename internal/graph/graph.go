// Package graph provides the weighted-graph substrate used throughout the
// repository: a compressed-sparse-row (CSR) representation of an undirected,
// positively integer-weighted graph, plus breadth-first search, connected
// components, tree utilities and simple binary/text serialization. Shard is
// the rank-local view of a partitioned graph — a compact CSR slab of one
// rank's owned adjacency — that the distributed traversals run on instead
// of the shared global CSR.
//
// The representation follows the paper's conventions (§II): the background
// graph G(V, E, d) is undirected and stored symmetrically, so a graph with
// |E| undirected edges holds 2|E| directed arcs. Edge weights ("distances")
// are non-zero positive integers, d : E → Z+ \ {0}.
package graph

import (
	"cmp"
	"fmt"
	"math"
)

// VID identifies a vertex. Vertices are dense integers in [0, NumVertices).
type VID int32

// NilVID is the sentinel "no vertex" value, used for uninitialized
// predecessor and source fields.
const NilVID VID = -1

// Dist is an accumulated path distance (a sum of edge weights). Edge weights
// are uint32 but path distances can exceed 32 bits on long paths.
type Dist int64

// InfDist represents an unreachable distance. It is far below the int64
// overflow point so that InfDist + weight never wraps.
const InfDist Dist = math.MaxInt64 / 4

// Edge is an undirected weighted edge of the background graph.
type Edge struct {
	U, V VID
	W    uint32
}

// Canon returns the edge with endpoints ordered so that U <= V. All
// deterministic tie-breaking in the repository relies on canonical ordering.
func (e Edge) Canon() Edge {
	if e.U > e.V {
		e.U, e.V = e.V, e.U
	}
	return e
}

// CompareEdges orders edges by (U, V), the order of a published tree.
func CompareEdges(a, b Edge) int {
	if c := cmp.Compare(a.U, b.U); c != 0 {
		return c
	}
	return cmp.Compare(a.V, b.V)
}

// Graph is an immutable undirected weighted graph in CSR form.
//
// The zero value is an empty graph. Construct real graphs with
// FromEdges or a Builder.
type Graph struct {
	offsets []int64  // len NumVertices+1; arc index range of each vertex
	targets []VID    // len 2|E|; neighbor of each arc
	weights []uint32 // len 2|E|; weight of each arc
	numEdge int64    // undirected edge count |E|
	minW    uint32
	maxW    uint32
	maxDeg  int // cached at construction; O(|V|) to recompute
}

// NumVertices returns |V|.
func (g *Graph) NumVertices() int { return len(g.offsets) - 1 }

// NumEdges returns the undirected edge count |E|.
func (g *Graph) NumEdges() int64 { return g.numEdge }

// NumArcs returns the directed arc count 2|E| (the paper reports graphs by
// this number, e.g. "128 billion edges" counts symmetric arcs).
func (g *Graph) NumArcs() int64 { return int64(len(g.targets)) }

// Degree returns the number of arcs leaving v.
func (g *Graph) Degree(v VID) int { return int(g.offsets[v+1] - g.offsets[v]) }

// ArcBounds returns the half-open arc index range [lo, hi) of vertex v.
// Arc i has target Target(i).
func (g *Graph) ArcBounds(v VID) (lo, hi int64) { return g.offsets[v], g.offsets[v+1] }

// Target returns the head vertex of arc i.
func (g *Graph) Target(i int64) VID { return g.targets[i] }

// Adj returns the adjacency of v as parallel target/weight slices. The
// returned slices alias the graph's internal storage and must not be
// modified.
func (g *Graph) Adj(v VID) ([]VID, []uint32) {
	lo, hi := g.offsets[v], g.offsets[v+1]
	return g.targets[lo:hi], g.weights[lo:hi]
}

// Neighbors calls fn for every arc (v, u) with weight w. Iteration stops
// early if fn returns false.
func (g *Graph) Neighbors(v VID, fn func(u VID, w uint32) bool) {
	ts, ws := g.Adj(v)
	for i, u := range ts {
		if !fn(u, ws[i]) {
			return
		}
	}
}

// HasEdge reports whether the undirected edge {u, v} exists, and returns its
// weight. Adjacency lists are sorted by target, so this is a binary search.
func (g *Graph) HasEdge(u, v VID) (uint32, bool) {
	ts, ws := g.Adj(u)
	lo, hi := 0, len(ts)
	for lo < hi {
		mid := (lo + hi) / 2
		if ts[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(ts) && ts[lo] == v {
		return ws[lo], true
	}
	return 0, false
}

// WeightRange returns the smallest and largest edge weight present. An empty
// graph returns (0, 0).
func (g *Graph) WeightRange() (min, max uint32) { return g.minW, g.maxW }

// MaxDegree returns the largest vertex degree (counting arcs). The value is
// computed once at construction, so serving paths (steinersvc's /info) pay
// O(1) instead of an O(|V|) scan per request.
func (g *Graph) MaxDegree() int { return g.maxDeg }

// computeMaxDegree scans the offsets array; called by the constructors.
func (g *Graph) computeMaxDegree() {
	maxDeg := 0
	for v := 0; v < g.NumVertices(); v++ {
		if d := g.Degree(VID(v)); d > maxDeg {
			maxDeg = d
		}
	}
	g.maxDeg = maxDeg
}

// AvgDegree returns the average number of arcs per vertex, 2|E| / |V|.
func (g *Graph) AvgDegree() float64 {
	if g.NumVertices() == 0 {
		return 0
	}
	return float64(g.NumArcs()) / float64(g.NumVertices())
}

// MemoryBytes estimates the resident size of the CSR arrays, mirroring the
// paper's "in-memory graph" accounting in Fig. 8.
func (g *Graph) MemoryBytes() int64 {
	return int64(len(g.offsets))*8 + int64(len(g.targets))*4 + int64(len(g.weights))*4
}

// Edges materializes the undirected edge list in canonical (U <= V) order.
// Intended for tests and small graphs; allocates |E| entries.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.numEdge)
	for v := 0; v < g.NumVertices(); v++ {
		ts, ws := g.Adj(VID(v))
		for i, u := range ts {
			if VID(v) <= u {
				out = append(out, Edge{U: VID(v), V: u, W: ws[i]})
			}
		}
	}
	return out
}

// TotalWeight sums the weights of a set of edges.
func TotalWeight(edges []Edge) Dist {
	var d Dist
	for _, e := range edges {
		d += Dist(e.W)
	}
	return d
}

// Validate performs internal consistency checks (sorted adjacency, symmetric
// arcs, positive weights). It is used by tests and by graph loading.
func (g *Graph) Validate() error {
	n := g.NumVertices()
	if len(g.offsets) == 0 || g.offsets[0] != 0 {
		return fmt.Errorf("graph: bad offsets prefix")
	}
	if g.offsets[n] != int64(len(g.targets)) || len(g.targets) != len(g.weights) {
		return fmt.Errorf("graph: offsets/targets/weights size mismatch")
	}
	for v := 0; v < n; v++ {
		if g.offsets[v] > g.offsets[v+1] {
			return fmt.Errorf("graph: offsets decrease at %d", v)
		}
	}
	for v := 0; v < n; v++ {
		ts, ws := g.Adj(VID(v))
		for i, u := range ts {
			if u < 0 || int(u) >= n {
				return fmt.Errorf("graph: arc (%d,%d) out of range", v, u)
			}
			if u == VID(v) {
				return fmt.Errorf("graph: self loop at %d", v)
			}
			if i > 0 && ts[i-1] >= u {
				return fmt.Errorf("graph: adjacency of %d not strictly sorted", v)
			}
			if ws[i] == 0 {
				return fmt.Errorf("graph: zero weight on (%d,%d)", v, u)
			}
			w2, ok := g.HasEdge(u, VID(v))
			if !ok || w2 != ws[i] {
				return fmt.Errorf("graph: arc (%d,%d) not symmetric", v, u)
			}
		}
	}
	return nil
}
