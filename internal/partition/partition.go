// Package partition maps vertices to ranks. The paper's scale-out design
// (§IV) partitions the data graph so that "partitions have approximately
// equal share of vertices; each partition is assigned to an MPI process",
// and relies on HavoqGT's vertex-cut handling of high-degree vertices
// ("vertex delegates") for load balance on scale-free graphs. This package
// provides 1-D block and hashed partitions plus a delegate wrapper marking
// hub vertices whose adjacency is striped across all ranks. ShardPlan makes
// a partition concrete: it materializes each rank's owned-vertex set and the
// delegate list, and cuts the per-rank graph.Shard slabs from the global
// CSR.
package partition

import (
	"fmt"

	"dsteiner/internal/graph"
)

// Partition assigns every vertex of an n-vertex graph to one of P ranks.
type Partition interface {
	// Owner returns the rank owning v's state.
	Owner(v graph.VID) int
	// NumRanks returns P.
	NumRanks() int
	// NumVertices returns n.
	NumVertices() int
	// OwnedVertices calls fn for every vertex owned by rank, in
	// increasing vertex order.
	OwnedVertices(rank int, fn func(v graph.VID))
	// IsDelegate reports whether v is a high-degree delegate whose
	// adjacency is striped across all ranks (false unless wrapped with
	// WithDelegates).
	IsDelegate(v graph.VID) bool
}

// Block divides vertices into P contiguous ranges of near-equal size.
type Block struct {
	n, p int
}

// NewBlock returns a block partition of n vertices over p ranks.
func NewBlock(n, p int) (*Block, error) {
	if n <= 0 || p <= 0 {
		return nil, fmt.Errorf("partition: invalid n=%d p=%d", n, p)
	}
	return &Block{n: n, p: p}, nil
}

// Owner returns the rank owning v.
func (b *Block) Owner(v graph.VID) int {
	// Ranges differ by at most one vertex: the first n%p ranks hold
	// ceil(n/p) vertices, the rest floor(n/p).
	q, r := b.n/b.p, b.n%b.p
	big := int64(q+1) * int64(r) // vertices in the first r ranks
	if int64(v) < big {
		return int(int64(v) / int64(q+1))
	}
	if q == 0 {
		return b.p - 1
	}
	return r + int((int64(v)-big)/int64(q))
}

// NumRanks returns P.
func (b *Block) NumRanks() int { return b.p }

// NumVertices returns n.
func (b *Block) NumVertices() int { return b.n }

// Range returns rank's vertex range [lo, hi).
func (b *Block) Range(rank int) (lo, hi graph.VID) {
	q, r := b.n/b.p, b.n%b.p
	if rank < r {
		lo = graph.VID(rank * (q + 1))
		hi = lo + graph.VID(q+1)
		return lo, hi
	}
	lo = graph.VID(r*(q+1) + (rank-r)*q)
	hi = lo + graph.VID(q)
	return lo, hi
}

// OwnedVertices iterates rank's contiguous range.
func (b *Block) OwnedVertices(rank int, fn func(v graph.VID)) {
	lo, hi := b.Range(rank)
	for v := lo; v < hi; v++ {
		fn(v)
	}
}

// IsDelegate always reports false for a plain block partition.
func (b *Block) IsDelegate(graph.VID) bool { return false }

// Hash assigns vertex v to rank v mod P (cyclic), spreading consecutive IDs
// across ranks. This breaks up locality hot-spots when vertex IDs correlate
// with degree (common in web crawls).
type Hash struct {
	n, p int
}

// NewHash returns a cyclic partition of n vertices over p ranks.
func NewHash(n, p int) (*Hash, error) {
	if n <= 0 || p <= 0 {
		return nil, fmt.Errorf("partition: invalid n=%d p=%d", n, p)
	}
	return &Hash{n: n, p: p}, nil
}

// Owner returns v mod P.
func (h *Hash) Owner(v graph.VID) int { return int(int64(v) % int64(h.p)) }

// NumRanks returns P.
func (h *Hash) NumRanks() int { return h.p }

// NumVertices returns n.
func (h *Hash) NumVertices() int { return h.n }

// OwnedVertices iterates rank, rank+P, rank+2P, ...
func (h *Hash) OwnedVertices(rank int, fn func(v graph.VID)) {
	for v := rank; v < h.n; v += h.p {
		fn(graph.VID(v))
	}
}

// IsDelegate always reports false for a plain hash partition.
func (h *Hash) IsDelegate(graph.VID) bool { return false }

// ArcBlock divides vertices into P contiguous ranges with approximately
// equal ARC counts rather than vertex counts. It equalizes shard bytes,
// not traversal work: with ghost rows filtering cross-rank offers, a rank
// pays per vertex it pops, and on scale-free graphs arc-balanced ranges
// give the hub-light range most of the vertices. core.Default therefore
// uses Block; ArcBlock remains an option and an ablation axis.
type ArcBlock struct {
	bounds []graph.VID // len p+1; rank r owns [bounds[r], bounds[r+1])
	n, p   int
}

// NewArcBlock builds an arc-balanced contiguous partition of g.
func NewArcBlock(g *graph.Graph, p int) (*ArcBlock, error) {
	n := g.NumVertices()
	if n <= 0 || p <= 0 {
		return nil, fmt.Errorf("partition: invalid n=%d p=%d", n, p)
	}
	b := &ArcBlock{bounds: make([]graph.VID, p+1), n: n, p: p}
	total := g.NumArcs()
	target := total / int64(p)
	rank := 1
	var acc int64
	for v := 0; v < n && rank < p; v++ {
		acc += int64(g.Degree(graph.VID(v)))
		if acc >= target*int64(rank) {
			b.bounds[rank] = graph.VID(v + 1)
			rank++
		}
	}
	for ; rank < p; rank++ {
		b.bounds[rank] = graph.VID(n)
	}
	b.bounds[p] = graph.VID(n)
	return b, nil
}

// NewArcBlockFromBounds rebuilds an arc-balanced partition from its range
// bounds (len P+1, bounds[0] == 0, bounds[P] == n, non-decreasing) — the
// wire form a multi-process worker receives, since recomputing the bounds
// would need the full graph's degree sequence.
func NewArcBlockFromBounds(bounds []graph.VID) (*ArcBlock, error) {
	p := len(bounds) - 1
	if p <= 0 {
		return nil, fmt.Errorf("partition: arc-block bounds need at least 2 entries, got %d", len(bounds))
	}
	if bounds[0] != 0 {
		return nil, fmt.Errorf("partition: arc-block bounds must start at 0, got %d", bounds[0])
	}
	for i := 1; i <= p; i++ {
		if bounds[i] < bounds[i-1] {
			return nil, fmt.Errorf("partition: arc-block bounds decrease at %d", i)
		}
	}
	n := int(bounds[p])
	if n <= 0 {
		return nil, fmt.Errorf("partition: arc-block bounds cover no vertices")
	}
	return &ArcBlock{bounds: append([]graph.VID(nil), bounds...), n: n, p: p}, nil
}

// Bounds returns the partition's range bounds (len P+1; read-only), the
// compact wire form of an arc-balanced partition.
func (b *ArcBlock) Bounds() []graph.VID { return b.bounds }

// Owner returns the rank whose range contains v (binary search).
func (b *ArcBlock) Owner(v graph.VID) int {
	lo, hi := 0, b.p-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if b.bounds[mid] <= v {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// NumRanks returns P.
func (b *ArcBlock) NumRanks() int { return b.p }

// NumVertices returns n.
func (b *ArcBlock) NumVertices() int { return b.n }

// Range returns rank's vertex range [lo, hi).
func (b *ArcBlock) Range(rank int) (lo, hi graph.VID) {
	return b.bounds[rank], b.bounds[rank+1]
}

// OwnedVertices iterates rank's contiguous range.
func (b *ArcBlock) OwnedVertices(rank int, fn func(v graph.VID)) {
	lo, hi := b.Range(rank)
	for v := lo; v < hi; v++ {
		fn(v)
	}
}

// IsDelegate always reports false for a plain arc-block partition.
func (b *ArcBlock) IsDelegate(graph.VID) bool { return false }

// Delegated wraps a base partition and marks vertices with degree at or
// above a threshold as delegates. The owner of a delegate still holds its
// state (the "controller" in HavoqGT terms), but algorithms broadcast
// delegate updates so each rank relaxes its stripe of the delegate's
// adjacency (arc index mod P).
type Delegated struct {
	Partition
	isDelegate []bool
	count      int
}

// WithDelegates marks every vertex of g whose degree is >= threshold as a
// delegate. threshold <= 0 disables delegation.
func WithDelegates(base Partition, g *graph.Graph, threshold int) *Delegated {
	d := &Delegated{Partition: base, isDelegate: make([]bool, g.NumVertices())}
	if threshold > 0 {
		for v := 0; v < g.NumVertices(); v++ {
			if g.Degree(graph.VID(v)) >= threshold {
				d.isDelegate[v] = true
				d.count++
			}
		}
	}
	return d
}

// WithDelegateList marks exactly the listed vertices of an n-vertex base
// partition as delegates — the wire-side counterpart of WithDelegates for
// workers that receive the delegate list in their session handshake
// instead of recomputing it from graph degrees.
func WithDelegateList(base Partition, n int, delegates []graph.VID) *Delegated {
	d := &Delegated{Partition: base, isDelegate: make([]bool, n)}
	for _, v := range delegates {
		if !d.isDelegate[v] {
			d.isDelegate[v] = true
			d.count++
		}
	}
	return d
}

// IsDelegate reports whether v was marked as a high-degree delegate.
func (d *Delegated) IsDelegate(v graph.VID) bool { return d.isDelegate[v] }

// NumDelegates returns the number of marked vertices.
func (d *Delegated) NumDelegates() int { return d.count }

// Compile-time interface checks.
var (
	_ Partition = (*Block)(nil)
	_ Partition = (*Hash)(nil)
	_ Partition = (*ArcBlock)(nil)
	_ Partition = (*Delegated)(nil)
)
