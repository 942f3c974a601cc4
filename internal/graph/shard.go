package graph

import (
	"cmp"
	"fmt"
	"slices"
)

// Shard is one rank's local view of the graph: a compact CSR slab holding
// the adjacency of the vertices the rank owns, plus a materialized stripe of
// every high-degree delegate's adjacency (arc index ≡ rank mod P — the
// HavoqGT vertex-cut). It replaces the shared-global-CSR hot path: a rank
// walking its slab touches a contiguous, rank-sized region instead of
// striding the whole graph's arrays, and — because a Shard references
// nothing outside itself — it is the unit of state a multi-process backend
// ships to each process.
//
// An arc is held in 8 bytes: its weight and its resolved target (refs), the
// target's owned row or ghost slot. The target's VID is not stored; Target
// recovers it from the resolved form.
//
// Shards are built once per solver session (partition.ShardPlan.BuildShards)
// from the immutable global CSR and are themselves immutable: safe to share
// read-only across queries, like the Graph they were cut from. Arc order
// within a slab row and within a stripe matches the global CSR exactly, so
// a traversal over shards sends the same messages in the same order as one
// over the global arrays (the shard-equivalence property tests rely on it).
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

	// Delegate stripes: delegate d's stripe occupies
	// stripeWeights[stripeOff[i]:stripeOff[i+1]] where i = delegateIdx[d].
	delegateIdx   map[VID]int32
	stripeOff     []int64
	stripeWeights []uint32

	// Resolved arc targets, parallel to weights and stripeWeights: ≥ 0 is the
	// target's owned row, < 0 the complement of its ghost slot. ghosts lists
	// the distinct remote targets in increasing order, so a slot is a
	// target's position in it — one slot per remote vertex this rank has an
	// arc to, which is where a rank-local slab (voronoi.StateSlab's ghost
	// rows) keeps what it knows about that neighbour. Filled by resolve.
	refs       []int32
	stripeRefs []int32
	ghosts     []VID
}

// NewShard cuts rank's slab out of g: the adjacency of the owned range
// [lo, hi). delegates lists every delegate vertex of the partition
// (identical on all ranks — each rank materializes its own stripe of every
// delegate, including delegates it owns). The slab's targets are resolved
// straight from g's arrays, never copied.
func NewShard(g *Graph, rank, numRanks int, lo, hi VID, delegates []VID) *Shard {
	a, b := g.offsets[lo], g.offsets[hi]
	weights := append(make([]uint32, 0, b-a), g.weights[a:b]...)
	stripeOff, stripeTargets, stripeWeights := cutStripes(g, rank, numRanks, delegates)
	s := newShard(rank, numRanks, lo, hi, slabOffsets(g, lo, hi), weights, delegates, stripeOff, stripeWeights)
	s.resolve(g.targets[a:b], stripeTargets)
	return s
}

// CutShard returns rank's shard of g in raw form, the arguments
// NewShardFromSlices takes: the CSR of the owned range [lo, hi) (offsets,
// target VIDs, weights) and the delegate stripes (stripeOff in delegates'
// order). It is what a coordinator ships a worker (internal/wire.ShardSlice);
// the shard rebuilt from it keeps no target VIDs.
func CutShard(g *Graph, rank, numRanks int, lo, hi VID, delegates []VID) (offsets []int64, targets []VID,
	weights []uint32, stripeOff []int64, stripeTargets []VID, stripeWeights []uint32) {
	a, b := g.offsets[lo], g.offsets[hi]
	targets = append(make([]VID, 0, b-a), g.targets[a:b]...)
	weights = append(make([]uint32, 0, b-a), g.weights[a:b]...)
	stripeOff, stripeTargets, stripeWeights = cutStripes(g, rank, numRanks, delegates)
	return slabOffsets(g, lo, hi), targets, weights, stripeOff, stripeTargets, stripeWeights
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

// cutStripes copies rank's stripe of every delegate's adjacency in g — the
// arcs at positions rank, rank+P, ... in global arc order — into CSR form,
// delegate i's stripe at [stripeOff[i], stripeOff[i+1]).
func cutStripes(g *Graph, rank, numRanks int, delegates []VID) (stripeOff []int64, stripeTargets []VID, stripeWeights []uint32) {
	stripeOff = make([]int64, len(delegates)+1)
	for i, d := range delegates {
		stripeOff[i+1] = stripeOff[i] + int64((g.Degree(d)-rank+numRanks-1)/numRanks)
	}
	stripeTargets = make([]VID, 0, stripeOff[len(delegates)])
	stripeWeights = make([]uint32, 0, stripeOff[len(delegates)])
	for _, d := range delegates {
		ts, ws := g.Adj(d)
		for j := rank; j < len(ts); j += numRanks {
			stripeTargets = append(stripeTargets, ts[j])
			stripeWeights = append(stripeWeights, ws[j])
		}
	}
	return stripeOff, stripeTargets, stripeWeights
}

// NewShardFromSlices rebuilds a shard of an n-vertex graph from its raw
// form (CutShard), as multi-process workers do with the plan slice they
// receive over the wire (internal/wire.ShardSlice) instead of cutting it
// from a resident global CSR. offsets, weights, stripeOff and stripeWeights
// are retained; targets and stripeTargets are only read to resolve the
// arcs, so the caller's copy is the only one. delegates must be the
// partition's full delegate list in the same order the stripes were cut in.
//
// The columns come off the wire, so they are checked before any is
// indexed: the range lies in [0, n), each CSR's offsets run non-decreasing
// from 0 to its arc count with one row per owned vertex (per delegate for
// the stripes), targets and weights have equal length and every target is a
// vertex. A violation is an error, never a panic or an allocation sized by
// a bad target.
func NewShardFromSlices(n, rank, numRanks int, lo, hi VID, offsets []int64,
	targets []VID, weights []uint32, delegates []VID,
	stripeOff []int64, stripeTargets []VID, stripeWeights []uint32) (*Shard, error) {
	if rank < 0 || rank >= numRanks {
		return nil, fmt.Errorf("graph: shard rank %d of %d", rank, numRanks)
	}
	if lo < 0 || lo > hi || int64(hi) > int64(n) {
		return nil, fmt.Errorf("graph: shard range [%d,%d) outside [0,%d)", lo, hi, n)
	}
	if err := checkCSR("slab", int(hi-lo), n, offsets, targets, weights); err != nil {
		return nil, err
	}
	if err := checkCSR("stripe", len(delegates), n, stripeOff, stripeTargets, stripeWeights); err != nil {
		return nil, err
	}
	s := newShard(rank, numRanks, lo, hi, offsets, weights, delegates, stripeOff, stripeWeights)
	s.resolve(targets, stripeTargets)
	return s, nil
}

// checkCSR validates one raw CSR of rows rows over an n-vertex graph.
func checkCSR(what string, rows, n int, offsets []int64, targets []VID, weights []uint32) error {
	if len(offsets) != rows+1 {
		return fmt.Errorf("graph: %s has %d offsets for %d rows", what, len(offsets), rows)
	}
	if len(targets) != len(weights) {
		return fmt.Errorf("graph: %s has %d targets for %d weights", what, len(targets), len(weights))
	}
	if offsets[0] != 0 || offsets[rows] != int64(len(weights)) {
		return fmt.Errorf("graph: %s offsets span [%d,%d), want [0,%d)", what, offsets[0], offsets[rows], len(weights))
	}
	for i := 1; i <= rows; i++ {
		if offsets[i] < offsets[i-1] {
			return fmt.Errorf("graph: %s offsets decrease at row %d", what, i)
		}
	}
	for j, u := range targets {
		if u < 0 || int64(u) >= int64(n) {
			return fmt.Errorf("graph: %s arc %d targets vertex %d outside [0,%d)", what, j, u, n)
		}
	}
	return nil
}

// newShard is a shard over its weights, not yet resolved.
func newShard(rank, numRanks int, lo, hi VID, offsets []int64, weights []uint32,
	delegates []VID, stripeOff []int64, stripeWeights []uint32) *Shard {
	s := &Shard{
		rank:          rank,
		numRanks:      numRanks,
		rows:          NewRowIndex(lo, hi),
		offsets:       offsets,
		weights:       weights,
		stripeOff:     stripeOff,
		stripeWeights: stripeWeights,
		delegateIdx:   make(map[VID]int32, len(delegates)),
	}
	for i, d := range delegates {
		s.delegateIdx[d] = int32(i)
	}
	return s
}

// resolve fills refs, stripeRefs and ghosts from the slab's and the
// stripes' arc targets, in arc order: each arc target is looked up once
// here instead of once per relaxation. NewShard passes g's arrays and
// NewShardFromSlices the slices a worker received, so both resolve
// identically and nothing extra is shipped.
//
// The scratch is transient and indexed by VID. The arcs mark their targets
// in it, the marked vertices are resolved in VID order — one row lookup and
// at most one ghost slot per vertex, not per arc — and the arcs read the
// result back. Both arc passes are a load and a store with no branch to
// mispredict, which is what keeps this near the cost of copying the arcs.
func (s *Shard) resolve(targets, stripeTargets []VID) {
	top := VID(-1)
	for _, u := range targets {
		top = max(top, u)
	}
	for _, u := range stripeTargets {
		top = max(top, u)
	}
	ref := make([]int32, int(top)+1)
	for _, u := range targets {
		ref[u] = 1
	}
	for _, u := range stripeTargets {
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
	n := len(targets)
	col := make([]int32, n+len(stripeTargets))
	for j, u := range targets {
		col[j] = ref[u]
	}
	for j, u := range stripeTargets {
		col[n+j] = ref[u]
	}
	s.refs, s.stripeRefs = col[:n:n], col[n:]
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

// NumArcs returns the number of arcs in the slab (owned adjacency only).
func (s *Shard) NumArcs() int64 { return int64(len(s.weights)) }

// NumStripeArcs returns the number of delegate-stripe arcs this rank holds.
func (s *Shard) NumStripeArcs() int64 { return int64(len(s.stripeWeights)) }

// NumDelegates returns the number of delegate vertices striped across ranks.
func (s *Shard) NumDelegates() int { return len(s.delegateIdx) }

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

// StripeArcs returns this rank's stripe of delegate v's adjacency (arc index
// ≡ rank mod P, in global arc order) in RowArcs' form. Panics if v is not a
// delegate.
func (s *Shard) StripeArcs(v VID) (weights []uint32, refs []int32) {
	i, ok := s.delegateIdx[v]
	if !ok {
		panic("graph: Shard.StripeArcs on non-delegate vertex")
	}
	lo, hi := s.stripeOff[i], s.stripeOff[i+1]
	return s.stripeWeights[lo:hi], s.stripeRefs[lo:hi]
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
// elsewhere that some slab or stripe arc of this rank points at.
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

// MemoryBytes reports the shard's resident size: slab CSR and delegate
// stripes at 8 bytes per arc (weight + resolved target), their offsets, the
// ghost list (4 bytes per distinct remote target) and the delegate index.
func (s *Shard) MemoryBytes() int64 {
	b := int64(len(s.offsets))*8 + int64(len(s.weights))*4 + int64(len(s.refs))*4
	b += int64(len(s.stripeOff))*8 + int64(len(s.stripeWeights))*4 + int64(len(s.stripeRefs))*4
	b += int64(len(s.ghosts)) * 4
	b += int64(len(s.delegateIdx)) * 12
	return b
}
