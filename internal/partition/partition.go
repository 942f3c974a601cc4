// Package partition maps vertices to ranks. The paper's scale-out design
// (§IV) partitions the data graph so that "partitions have approximately
// equal share of vertices; each partition is assigned to an MPI process".
//
// There is one ownership model: rank r owns the contiguous vertex range
// [bounds[r], bounds[r+1]), and each vertex's adjacency and state live on
// its owner alone. NewBlock and NewArcBlock are two ways of choosing the
// P+1 bounds (equal vertices, equal arcs). ShardPlan makes a partition
// concrete: the cut of the per-rank graph.Shard slabs from the global CSR.
//
// HavoqGT's vertex delegates, which stripe a hub's adjacency across all
// ranks, are not reproduced: on R-MAT 2^20 × 16 at 2, 4 and 8 ranks they
// cut neither phase-1 critical-path work nor messages by 10 % in any cell
// (ROADMAP, Settled).
package partition

import (
	"fmt"

	"dsteiner/internal/graph"
)

// Partition assigns the n vertices of a graph to P ranks as P contiguous
// ranges. A Partition is immutable once built.
type Partition struct {
	bounds []graph.VID // len P+1; rank r owns [bounds[r], bounds[r+1])
}

// NewBlock divides n vertices into p contiguous ranges of near-equal size:
// the first n%p ranks hold ceil(n/p) vertices, the rest floor(n/p).
func NewBlock(n, p int) (*Partition, error) {
	if n <= 0 || p <= 0 {
		return nil, fmt.Errorf("partition: invalid n=%d p=%d", n, p)
	}
	q, r := n/p, n%p
	bounds := make([]graph.VID, p+1)
	for rank := 1; rank <= p; rank++ {
		bounds[rank] = bounds[rank-1] + graph.VID(q)
		if rank <= r {
			bounds[rank]++
		}
	}
	return &Partition{bounds: bounds}, nil
}

// NewArcBlock divides g's vertices into p contiguous ranges with
// approximately equal ARC counts rather than vertex counts. It equalizes
// shard bytes, not traversal work: with ghost rows filtering cross-rank
// offers, a rank pays per vertex it pops, and on scale-free graphs
// arc-balanced ranges give the hub-light range most of the vertices.
// core.Default therefore uses NewBlock; arc-block remains an option and an
// ablation axis.
func NewArcBlock(g *graph.Graph, p int) (*Partition, error) {
	n := g.NumVertices()
	if n <= 0 || p <= 0 {
		return nil, fmt.Errorf("partition: invalid n=%d p=%d", n, p)
	}
	bounds := make([]graph.VID, p+1)
	target := g.NumArcs() / int64(p)
	rank := 1
	var acc int64
	for v := 0; v < n && rank < p; v++ {
		acc += int64(g.Degree(graph.VID(v)))
		if acc >= target*int64(rank) {
			bounds[rank] = graph.VID(v + 1)
			rank++
		}
	}
	for ; rank <= p; rank++ {
		bounds[rank] = graph.VID(n)
	}
	return &Partition{bounds: bounds}, nil
}

// NewFromBounds rebuilds a partition from its range bounds (len P+1,
// bounds[0] == 0, bounds[P] == n > 0, non-decreasing) — the wire form a
// multi-process worker receives, since recomputing arc-balanced bounds
// would need the full graph's degree sequence.
func NewFromBounds(bounds []graph.VID) (*Partition, error) {
	p := len(bounds) - 1
	if p <= 0 {
		return nil, fmt.Errorf("partition: bounds need at least 2 entries, got %d", len(bounds))
	}
	if bounds[0] != 0 {
		return nil, fmt.Errorf("partition: bounds must start at 0, got %d", bounds[0])
	}
	for i := 1; i <= p; i++ {
		if bounds[i] < bounds[i-1] {
			return nil, fmt.Errorf("partition: bounds decrease at %d", i)
		}
	}
	if bounds[p] <= 0 {
		return nil, fmt.Errorf("partition: bounds cover no vertices")
	}
	return &Partition{bounds: append([]graph.VID(nil), bounds...)}, nil
}

// Owner returns the rank whose range contains v (binary search over the
// bounds). Empty ranges own nothing.
func (p *Partition) Owner(v graph.VID) int {
	lo, hi := 0, len(p.bounds)-2
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if p.bounds[mid] <= v {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// Range returns rank's vertex range [lo, hi).
func (p *Partition) Range(rank int) (lo, hi graph.VID) {
	return p.bounds[rank], p.bounds[rank+1]
}

// NumRanks returns P.
func (p *Partition) NumRanks() int { return len(p.bounds) - 1 }

// NumVertices returns n.
func (p *Partition) NumVertices() int { return int(p.bounds[len(p.bounds)-1]) }

// Bounds returns the range bounds (len P+1; read-only), the partition's
// wire form.
func (p *Partition) Bounds() []graph.VID { return p.bounds }
