// Package sssp implements the sequential shortest-path kernels used by the
// baselines and by verification: Dijkstra (binary heap), Bellman–Ford
// (queue-based), and the multi-source (super-source) variants
// that compute Voronoi cells the way Mehlhorn's sequential algorithm does.
//
// The distributed Voronoi computation in internal/voronoi is validated
// against these kernels: for every vertex v the distributed run must agree
// with MultiSource on d1(src(v), v) and on the cell assignment under the
// same tie-breaking rule.
package sssp

import (
	"dsteiner/internal/graph"
	"dsteiner/internal/pq"
)

// Result holds single- or multi-source shortest-path output over the whole
// vertex set.
type Result struct {
	// Dist[v] is the shortest distance from v's source, InfDist if
	// unreachable.
	Dist []graph.Dist
	// Pred[v] is the predecessor on the shortest path, NilVID for sources
	// and unreachable vertices.
	Pred []graph.VID
	// Src[v] is the source vertex v is assigned to (the Voronoi cell
	// owner for multi-source runs), NilVID if unreachable.
	Src []graph.VID
	// Relaxations counts successful distance improvements (work metric).
	Relaxations int64
	// Settled counts pop operations (Dijkstra) or queue extractions.
	Settled int64
}

func newResult(n int) *Result {
	r := &Result{
		Dist: make([]graph.Dist, n),
		Pred: make([]graph.VID, n),
		Src:  make([]graph.VID, n),
	}
	for i := 0; i < n; i++ {
		r.Dist[i] = graph.InfDist
		r.Pred[i] = graph.NilVID
		r.Src[i] = graph.NilVID
	}
	return r
}

// better reports whether (d1, s1) improves on (d2, s2) under the
// repository-wide tie-breaking rule: strictly smaller distance wins; equal
// distance is won by the smaller source (seed) ID. The same rule is used by
// the distributed engine so results are comparable bit-for-bit.
func better(d1 graph.Dist, s1 graph.VID, d2 graph.Dist, s2 graph.VID) bool {
	if d1 != d2 {
		return d1 < d2
	}
	return s1 < s2
}

// Dijkstra computes single-source shortest paths from source.
func Dijkstra(g *graph.Graph, source graph.VID) *Result {
	return MultiSource(g, []graph.VID{source})
}

// MultiSource computes shortest paths from the nearest of the given sources
// — exactly the Voronoi cell computation of Mehlhorn [17]: conceptually a
// super-source with zero-weight arcs to every s in sources. Cell ties are
// broken toward the smaller seed ID.
func MultiSource(g *graph.Graph, sources []graph.VID) *Result {
	n := g.NumVertices()
	res := newResult(n)
	type qitem struct {
		v graph.VID
		d graph.Dist
	}
	h := pq.NewHeap[qitem](len(sources) * 4)
	for _, s := range sources {
		// Duplicate seeds: keep the first (smaller ID wins regardless).
		if res.Dist[s] == 0 {
			continue
		}
		res.Dist[s] = 0
		res.Src[s] = s
		h.Push(qitem{v: s, d: 0}, 0)
	}
	for {
		item, ok := h.Pop()
		if !ok {
			break
		}
		if item.d > res.Dist[item.v] {
			continue // stale entry
		}
		res.Settled++
		v := item.v
		ts, ws := g.Adj(v)
		for i, u := range ts {
			nd := item.d + graph.Dist(ws[i])
			if better(nd, res.Src[v], res.Dist[u], res.Src[u]) {
				res.Dist[u] = nd
				res.Pred[u] = v
				res.Src[u] = res.Src[v]
				res.Relaxations++
				h.Push(qitem{v: u, d: nd}, uint64(nd))
			}
		}
	}
	return res
}

// BellmanFord computes shortest paths from the given sources with a
// queue-based (SPFA-style) Bellman–Ford: the label-correcting analogue of
// the distributed engine's FIFO mode. All edge weights are positive, so
// termination is guaranteed.
func BellmanFord(g *graph.Graph, sources []graph.VID) *Result {
	n := g.NumVertices()
	res := newResult(n)
	queue := pq.NewFIFO[graph.VID](len(sources) * 4)
	inQueue := make([]bool, n)
	for _, s := range sources {
		if res.Dist[s] == 0 {
			continue
		}
		res.Dist[s] = 0
		res.Src[s] = s
		queue.Push(s)
		inQueue[s] = true
	}
	for {
		v, ok := queue.Pop()
		if !ok {
			break
		}
		inQueue[v] = false
		res.Settled++
		dv := res.Dist[v]
		ts, ws := g.Adj(v)
		for i, u := range ts {
			nd := dv + graph.Dist(ws[i])
			if better(nd, res.Src[v], res.Dist[u], res.Src[u]) {
				res.Dist[u] = nd
				res.Pred[u] = v
				res.Src[u] = res.Src[v]
				res.Relaxations++
				if !inQueue[u] {
					queue.Push(u)
					inQueue[u] = true
				}
			}
		}
	}
	return res
}

// PathTo reconstructs the shortest path edge list from v back to its source
// by following predecessors. Returns nil if v is unreachable. Edges are
// returned in v-to-source order.
func (r *Result) PathTo(g *graph.Graph, v graph.VID) []graph.Edge {
	if r.Src[v] == graph.NilVID {
		return nil
	}
	var path []graph.Edge
	for v != r.Src[v] {
		p := r.Pred[v]
		w, ok := g.HasEdge(p, v)
		if !ok {
			return nil // corrupted predecessor chain
		}
		path = append(path, graph.Edge{U: p, V: v, W: w})
		v = p
	}
	return path
}

// APSPAmongSeeds computes, for every seed, the shortest distance to every
// other seed, by running |S| independent Dijkstra sweeps. This is the
// expensive Step 1 of the KMB algorithm (Alg. 1) and the "APSP" column of
// Table I. The result is indexed [i][j] over seed positions.
func APSPAmongSeeds(g *graph.Graph, seeds []graph.VID) ([][]graph.Dist, [][]graph.VID) {
	dist := make([][]graph.Dist, len(seeds))
	// preds[i] is the full predecessor array of the i-th sweep, needed to
	// expand distance-graph edges back into paths (KMB Step 3).
	preds := make([][]graph.VID, len(seeds))
	for i, s := range seeds {
		r := Dijkstra(g, s)
		row := make([]graph.Dist, len(seeds))
		for j, t := range seeds {
			row[j] = r.Dist[t]
		}
		dist[i] = row
		preds[i] = r.Pred
	}
	return dist, preds
}
