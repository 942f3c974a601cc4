package graph

import (
	"cmp"
	"fmt"
	"slices"
)

// Shard is one rank's local view of the graph: a compact CSR slab holding
// the adjacency of the vertices the rank owns, and nothing else — every
// vertex's arcs live on its owner alone. It replaces the shared-global-CSR
// hot path: a rank walking its slab touches a contiguous, rank-sized region
// instead of striding the whole graph's arrays, and — because a Shard
// references nothing outside itself — it is the unit of state a
// multi-process backend ships to each process.
//
// An arc is held in 8 bytes: its weight and its resolved target (refs), the
// target's owned row or ghost slot. The target's VID is not stored; Target
// recovers it from the resolved form.
//
// Shards are built once per solver session (partition.ShardPlan.BuildShards)
// from the immutable global CSR and are themselves immutable: safe to share
// read-only across queries, like the Graph they were cut from. Arc order
// within a slab row matches the global CSR exactly, so a traversal over
// shards sends the same messages in the same order as one over the global
// arrays (the shard-equivalence property tests rely on it).
type Shard struct {
	rank     int
	numRanks int

	// Owned range [lo, hi): row i is vertex lo+i. The rank's control-state
	// slab (internal/voronoi.StateSlab) uses the same RowIndex, so a
	// vertex's adjacency and state row coincide.
	rows RowIndex

	// Local CSR slab over the owned range, in increasing vertex order.
	offsets []int64
	weights []uint32

	// Resolved arc targets, parallel to weights: ≥ 0 is the target's owned
	// row, < 0 the complement of its ghost slot. ghosts lists
	// the distinct remote targets in increasing order, so a slot is a
	// target's position in it — one slot per remote vertex this rank has an
	// arc to, which is where a rank-local slab (voronoi.StateSlab's ghost
	// rows) keeps what it knows about that neighbour. Filled by resolve.
	refs   []int32
	ghosts []VID
}

// NewShard cuts rank's slab out of g: the adjacency of the owned range
// [lo, hi). The slab's targets are resolved straight from g's arrays, never
// copied.
func NewShard(g *Graph, rank, numRanks int, lo, hi VID) *Shard {
	a, b := g.offsets[lo], g.offsets[hi]
	weights := append(make([]uint32, 0, b-a), g.weights[a:b]...)
	s := newShard(rank, numRanks, lo, hi, slabOffsets(g, lo, hi), weights)
	s.resolve(g.targets[a:b])
	return s
}

// CutShard returns rank's shard of g in raw form, the arguments
// NewShardFromSlices takes: the CSR of the owned range [lo, hi) (offsets,
// target VIDs, weights). It is what a coordinator ships a worker
// (internal/wire.ShardSlice); the shard rebuilt from it keeps no target VIDs.
func CutShard(g *Graph, lo, hi VID) (offsets []int64, targets []VID, weights []uint32) {
	a, b := g.offsets[lo], g.offsets[hi]
	targets = append(make([]VID, 0, b-a), g.targets[a:b]...)
	weights = append(make([]uint32, 0, b-a), g.weights[a:b]...)
	return slabOffsets(g, lo, hi), targets, weights
}

// slabOffsets returns the CSR offsets of [lo, hi)'s adjacency rows, rebased
// to the range's first arc.
func slabOffsets(g *Graph, lo, hi VID) []int64 {
	base := g.offsets[lo]
	offsets := make([]int64, hi-lo+1)
	for i := range offsets {
		offsets[i] = g.offsets[lo+VID(i)] - base
	}
	return offsets
}

// NewShardFromSlices rebuilds a shard of an n-vertex graph from its raw
// form (CutShard), as multi-process workers do with the plan slice they
// receive over the wire (internal/wire.ShardSlice) instead of cutting it
// from a resident global CSR. offsets and weights are retained; targets are
// only read to resolve the arcs, so the caller's copy is the only one.
//
// The columns come off the wire, so they are checked before any is
// indexed: the range lies in [0, n), the offsets run non-decreasing from 0
// to the arc count with one row per owned vertex, targets and weights have
// equal length and every target is a vertex. A violation is an error, never
// a panic or an allocation sized by a bad target.
func NewShardFromSlices(n, rank, numRanks int, lo, hi VID, offsets []int64,
	targets []VID, weights []uint32) (*Shard, error) {
	if rank < 0 || rank >= numRanks {
		return nil, fmt.Errorf("graph: shard rank %d of %d", rank, numRanks)
	}
	if lo < 0 || lo > hi || int64(hi) > int64(n) {
		return nil, fmt.Errorf("graph: shard range [%d,%d) outside [0,%d)", lo, hi, n)
	}
	if err := checkCSR(int(hi-lo), n, offsets, targets, weights); err != nil {
		return nil, err
	}
	s := newShard(rank, numRanks, lo, hi, offsets, weights)
	s.resolve(targets)
	return s, nil
}

// checkCSR validates a raw slab CSR of rows rows over an n-vertex graph.
func checkCSR(rows, n int, offsets []int64, targets []VID, weights []uint32) error {
	if len(offsets) != rows+1 {
		return fmt.Errorf("graph: slab has %d offsets for %d rows", len(offsets), rows)
	}
	if len(targets) != len(weights) {
		return fmt.Errorf("graph: slab has %d targets for %d weights", len(targets), len(weights))
	}
	if offsets[0] != 0 || offsets[rows] != int64(len(weights)) {
		return fmt.Errorf("graph: slab offsets span [%d,%d), want [0,%d)", offsets[0], offsets[rows], len(weights))
	}
	for i := 1; i <= rows; i++ {
		if offsets[i] < offsets[i-1] {
			return fmt.Errorf("graph: slab offsets decrease at row %d", i)
		}
	}
	for j, u := range targets {
		if u < 0 || int64(u) >= int64(n) {
			return fmt.Errorf("graph: slab arc %d targets vertex %d outside [0,%d)", j, u, n)
		}
	}
	return nil
}

// newShard is a shard over its weights, not yet resolved.
func newShard(rank, numRanks int, lo, hi VID, offsets []int64, weights []uint32) *Shard {
	return &Shard{
		rank:     rank,
		numRanks: numRanks,
		rows:     NewRowIndex(lo, hi),
		offsets:  offsets,
		weights:  weights,
	}
}

// resolve fills refs and ghosts from the slab's arc targets, in arc order:
// each arc target is looked up once
// here instead of once per relaxation. NewShard passes g's arrays and
// NewShardFromSlices the slices a worker received, so both resolve
// identically and nothing extra is shipped.
//
// The scratch is transient and indexed by VID. The arcs mark their targets
// in it, the marked vertices are resolved in VID order — one row lookup and
// at most one ghost slot per vertex, not per arc — and the arcs read the
// result back. Both arc passes are a load and a store with no branch to
// mispredict, which is what keeps this near the cost of copying the arcs.
func (s *Shard) resolve(targets []VID) {
	top := VID(-1)
	for _, u := range targets {
		top = max(top, u)
	}
	ref := make([]int32, int(top)+1)
	for _, u := range targets {
		ref[u] = 1
	}
	for u, marked := range ref {
		if marked == 0 {
			continue
		}
		if ref[u] = s.rows.Row(VID(u)); ref[u] < 0 {
			ref[u] = ^int32(len(s.ghosts))
			s.ghosts = append(s.ghosts, VID(u))
		}
	}
	s.refs = make([]int32, len(targets))
	for j, u := range targets {
		s.refs[j] = ref[u]
	}
}

// Rank returns the rank this shard belongs to.
func (s *Shard) Rank() int { return s.rank }

// NumRanks returns the partition's rank count P.
func (s *Shard) NumRanks() int { return s.numRanks }

// NumOwned returns the number of vertices in the slab.
func (s *Shard) NumOwned() int { return s.rows.Len() }

// Rows returns the owned range's row index, the one the rank's other
// rank-local slab (the control-state slab) addresses its rows by.
func (s *Shard) Rows() RowIndex { return s.rows }

// NumArcs returns the number of arcs in the slab.
func (s *Shard) NumArcs() int64 { return int64(len(s.weights)) }

// Owns reports whether v's adjacency lives in this slab.
func (s *Shard) Owns(v VID) bool { return s.rows.Row(v) >= 0 }

// RowArcs returns owned row i's arcs, aliasing the slab (read-only): each
// arc's weight and its resolved target — refs[j] ≥ 0 is the target's owned
// row, refs[j] < 0 the complement of its ghost slot. Arc order matches the
// global CSR, so Target(refs[j]) ascends along the row.
func (s *Shard) RowArcs(i int32) (weights []uint32, refs []int32) {
	lo, hi := s.offsets[i], s.offsets[i+1]
	return s.weights[lo:hi], s.refs[lo:hi]
}

// Target returns the vertex behind a resolved arc target: the vertex of
// owned row ref when ref ≥ 0, the vertex of ghost slot ^ref otherwise.
func (s *Shard) Target(ref int32) VID {
	if ref >= 0 {
		return s.rows.VertexAt(int(ref))
	}
	return s.ghosts[^ref]
}

// NumGhosts returns the number of ghost slots: distinct vertices owned
// elsewhere that some slab arc of this rank points at.
func (s *Shard) NumGhosts() int { return len(s.ghosts) }

// EdgeWeight reports the weight of edge {u, v} by binary search over owned
// vertex u's slab row, whose targets ascend like the global CSR's. The graph
// is undirected, so EdgeWeight(u, v) on u's owner equals the global
// HasEdge(v, u) from any rank. Panics if the shard does not own u.
func (s *Shard) EdgeWeight(u, v VID) (uint32, bool) {
	i := s.rows.Row(u)
	if i < 0 {
		panic("graph: Shard.EdgeWeight on non-owned vertex")
	}
	ws, refs := s.RowArcs(i)
	j, ok := slices.BinarySearchFunc(refs, v, func(ref int32, v VID) int {
		return cmp.Compare(s.Target(ref), v)
	})
	if !ok {
		return 0, false
	}
	return ws[j], true
}

// MemoryBytes reports the shard's resident size: the slab CSR at 8 bytes
// per arc (weight + resolved target), its offsets and the ghost list (4
// bytes per distinct remote target).
func (s *Shard) MemoryBytes() int64 {
	return int64(len(s.offsets))*8 + int64(len(s.weights))*4 + int64(len(s.refs))*4 +
		int64(len(s.ghosts))*4
}
