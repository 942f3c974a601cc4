// Package exact solves the Steiner minimal tree problem optimally with the
// Dreyfus–Wagner dynamic program. It substitutes for SCIP-Jack [20], the
// exact branch-and-cut solver the paper uses to measure approximation
// quality (Table VII) and exact-solver runtimes (Table VI): like SCIP-Jack,
// it is orders of magnitude slower than the 2-approximation algorithms, and
// it provides true optima D_min for the ratio D(G_S)/D_min.
//
// Complexity is O(3^k·|V| + 2^k·(|E| + |V| log |V|)) time and
// O(2^k·|V|) memory for k = |S| terminals, so it is feasible only for small
// seed sets (the paper's |S|=10 rows; larger rows use the refined reference
// of internal/improve, as documented in docs/ARCHITECTURE.md).
package exact

import (
	"fmt"

	"dsteiner/internal/graph"
	"dsteiner/internal/pq"
)

// DefaultMemoryLimit caps the DP table allocation (bytes).
const DefaultMemoryLimit = 1 << 30

// Solution is an optimal Steiner tree.
type Solution struct {
	Edges []graph.Edge
	Total graph.Dist
}

// Solve computes a Steiner minimal tree for the given terminals.
// memoryLimit <= 0 applies DefaultMemoryLimit. Terminals must be distinct
// and mutually connected.
func Solve(g *graph.Graph, terminals []graph.VID, memoryLimit int64) (Solution, error) {
	if memoryLimit <= 0 {
		memoryLimit = DefaultMemoryLimit
	}
	k := len(terminals)
	n := g.NumVertices()
	if k == 0 {
		return Solution{}, fmt.Errorf("exact: empty terminal set")
	}
	seen := map[graph.VID]bool{}
	for _, t := range terminals {
		if t < 0 || int(t) >= n {
			return Solution{}, fmt.Errorf("exact: terminal %d out of range", t)
		}
		if seen[t] {
			return Solution{}, fmt.Errorf("exact: duplicate terminal %d", t)
		}
		seen[t] = true
	}
	if k == 1 {
		return Solution{}, nil
	}
	nMasks := 1 << (k - 1)
	bytesNeeded := int64(nMasks) * int64(n) * (8 + 4 + 4)
	if bytesNeeded > memoryLimit {
		return Solution{}, fmt.Errorf("exact: DP needs %d bytes for k=%d n=%d, over limit %d",
			bytesNeeded, k, n, memoryLimit)
	}

	// Terminal k-1 is the root q; DP masks range over the other k-1.
	q := terminals[k-1]
	base := terminals[:k-1]

	dist := make([][]graph.Dist, nMasks) // S[mask][v]
	mergeY := make([][]int32, nMasks)    // >=0: split into Y and mask\Y at v
	walkPred := make([][]graph.VID, nMasks)
	for m := 1; m < nMasks; m++ {
		dist[m] = make([]graph.Dist, n)
		mergeY[m] = make([]int32, n)
		walkPred[m] = make([]graph.VID, n)
	}

	type qitem struct {
		v graph.VID
		d graph.Dist
	}
	closure := func(mask int) {
		// Dijkstra closure: propagate the current labels dist[mask]
		// through the graph, recording walk predecessors.
		dm, wp := dist[mask], walkPred[mask]
		h := pq.NewHeap[qitem](64)
		for v := 0; v < n; v++ {
			if dm[v] < graph.InfDist {
				h.Push(qitem{v: graph.VID(v), d: dm[v]}, uint64(dm[v]))
			}
		}
		for {
			it, ok := h.Pop()
			if !ok {
				return
			}
			if it.d > dm[it.v] {
				continue
			}
			ts, ws := g.Adj(it.v)
			for i, u := range ts {
				nd := it.d + graph.Dist(ws[i])
				if nd < dm[u] {
					dm[u] = nd
					wp[u] = it.v
					mergeY[mask][u] = -1
					h.Push(qitem{v: u, d: nd}, uint64(nd))
				}
			}
		}
	}

	// Masks in increasing popcount order are unnecessary: increasing
	// integer order suffices because every proper submask of m is < m.
	for mask := 1; mask < nMasks; mask++ {
		dm := dist[mask]
		for v := range dm {
			dm[v] = graph.InfDist
			mergeY[mask][v] = -1
			walkPred[mask][v] = graph.NilVID
		}
		if mask&(mask-1) == 0 {
			// Singleton {t_i}: closure of label 0 at the terminal.
			i := trailingZeros(mask)
			dm[base[i]] = 0
		} else {
			// Merge step: combine disjoint sub-splits at every vertex.
			// Fixing the lowest set bit in Y visits each split once.
			low := mask & (-mask)
			for y := (mask - 1) & mask; y > 0; y = (y - 1) & mask {
				if y&low == 0 {
					continue
				}
				rest := mask ^ y
				if rest == 0 {
					continue
				}
				dy, dr := dist[y], dist[rest]
				for v := 0; v < n; v++ {
					if dy[v] >= graph.InfDist || dr[v] >= graph.InfDist {
						continue
					}
					if s := dy[v] + dr[v]; s < dm[v] {
						dm[v] = s
						mergeY[mask][v] = int32(y)
						walkPred[mask][v] = graph.NilVID
					}
				}
			}
		}
		closure(mask)
	}

	full := nMasks - 1
	if dist[full][q] >= graph.InfDist {
		return Solution{}, fmt.Errorf("exact: terminals are not mutually connected")
	}

	// Reconstruct by unwinding (mask, v) decisions.
	edgeSet := map[[2]graph.VID]graph.Edge{}
	var emit func(mask int, v graph.VID)
	emit = func(mask int, v graph.VID) {
		for {
			if y := mergeY[mask][v]; y >= 0 {
				emit(int(y), v)
				emit(mask^int(y), v)
				return
			}
			p := walkPred[mask][v]
			if p == graph.NilVID {
				return // at the terminal of a singleton mask
			}
			w, _ := g.HasEdge(p, v)
			c := graph.Edge{U: p, V: v, W: w}.Canon()
			edgeSet[[2]graph.VID{c.U, c.V}] = c
			v = p
		}
	}
	emit(full, q)
	edges := make([]graph.Edge, 0, len(edgeSet))
	for _, e := range edgeSet {
		edges = append(edges, e)
	}
	sortEdges(edges)
	sol := Solution{Edges: edges, Total: graph.TotalWeight(edges)}
	if sol.Total != dist[full][q] {
		return Solution{}, fmt.Errorf("exact: reconstruction weight %d != DP optimum %d", sol.Total, dist[full][q])
	}
	return sol, nil
}

func trailingZeros(x int) int {
	n := 0
	for x&1 == 0 {
		x >>= 1
		n++
	}
	return n
}

func sortEdges(edges []graph.Edge) {
	// Insertion sort is fine: optimal trees are small.
	for i := 1; i < len(edges); i++ {
		e := edges[i]
		j := i - 1
		for j >= 0 && (edges[j].U > e.U || (edges[j].U == e.U && edges[j].V > e.V)) {
			edges[j+1] = edges[j]
			j--
		}
		edges[j+1] = e
	}
}
