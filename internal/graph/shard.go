package graph

import "slices"

// Shard is one rank's local view of the graph: a compact CSR slab holding
// the adjacency of the vertices the rank owns, plus a materialized stripe of
// every high-degree delegate's adjacency (arc index ≡ rank mod P — the
// HavoqGT vertex-cut). It replaces the shared-global-CSR hot path: a rank
// walking its slab touches a contiguous, rank-sized region instead of
// striding the whole graph's arrays, and — because a Shard references
// nothing outside itself except vertex IDs — it is the unit of state a
// multi-process backend would ship to each process.
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

	// Owned-vertex index: affine O(1) vertex→slab-row lookup with a map
	// fallback for irregular owned sets. The same RowIndex layout is used
	// by the rank's control-state slab (internal/voronoi.StateSlab), so a
	// vertex's adjacency row and state row coincide.
	rows *RowIndex

	// Local CSR slab over owned vertices, in increasing vertex order.
	offsets []int64
	targets []VID
	weights []uint32

	// Delegate stripes: delegate d's stripe occupies
	// stripeTargets[stripeOff[i]:stripeOff[i+1]] where i = delegateIdx[d].
	delegateIdx   map[VID]int32
	stripeOff     []int64
	stripeTargets []VID
	stripeWeights []uint32

	// Resolved arc targets, parallel to targets and stripeTargets: ≥ 0 is the
	// target's owned row, < 0 the complement of its ghost slot. ghosts lists
	// the distinct remote targets in increasing order, so a slot is a
	// target's position in it — one slot per remote vertex this rank has an
	// arc to, which is where a rank-local slab (voronoi.StateSlab's ghost
	// rows) keeps what it knows about that neighbour. Filled by resolve.
	refs       []int32
	stripeRefs []int32
	ghosts     []VID
}

// NewShard cuts rank's slab out of g. owned must list the rank's vertices in
// strictly increasing order; delegates lists every delegate vertex of the
// partition (identical on all ranks — each rank materializes its own stripe
// of every delegate, including delegates it owns).
func NewShard(g *Graph, rank, numRanks int, owned []VID, delegates []VID) *Shard {
	s := &Shard{rank: rank, numRanks: numRanks, rows: NewRowIndex(owned)}

	// Slab: copy each owned vertex's adjacency, preserving arc order.
	var arcs int64
	for _, v := range owned {
		arcs += int64(g.Degree(v))
	}
	s.offsets = make([]int64, len(owned)+1)
	s.targets = make([]VID, 0, arcs)
	s.weights = make([]uint32, 0, arcs)
	for i, v := range owned {
		ts, ws := g.Adj(v)
		s.targets = append(s.targets, ts...)
		s.weights = append(s.weights, ws...)
		s.offsets[i+1] = int64(len(s.targets))
	}

	// Delegate stripes: arcs at positions rank, rank+P, ... of each
	// delegate's adjacency, in global arc order.
	s.delegateIdx = make(map[VID]int32, len(delegates))
	s.stripeOff = make([]int64, len(delegates)+1)
	for i, d := range delegates {
		s.delegateIdx[d] = int32(i)
		ts, ws := g.Adj(d)
		for j := rank; j < len(ts); j += numRanks {
			s.stripeTargets = append(s.stripeTargets, ts[j])
			s.stripeWeights = append(s.stripeWeights, ws[j])
		}
		s.stripeOff[i+1] = int64(len(s.stripeTargets))
	}
	s.resolve()
	return s
}

// NewShardFromSlices rebuilds a shard from its raw slabs — the inverse of
// Slices, used by multi-process workers that receive their plan slice over
// the wire (internal/wire.ShardSlice) instead of cutting it from a resident
// global CSR. All slices are retained; delegates must be the partition's
// full delegate list in the same order the stripes were cut in.
func NewShardFromSlices(rank, numRanks int, owned []VID, offsets []int64,
	targets []VID, weights []uint32, delegates []VID,
	stripeOff []int64, stripeTargets []VID, stripeWeights []uint32) *Shard {
	s := &Shard{
		rank:          rank,
		numRanks:      numRanks,
		rows:          NewRowIndex(owned),
		offsets:       offsets,
		targets:       targets,
		weights:       weights,
		stripeOff:     stripeOff,
		stripeTargets: stripeTargets,
		stripeWeights: stripeWeights,
		delegateIdx:   make(map[VID]int32, len(delegates)),
	}
	for i, d := range delegates {
		s.delegateIdx[d] = int32(i)
	}
	s.resolve()
	return s
}

// resolve fills refs, stripeRefs and ghosts from the target arrays: every
// arc target is looked up once here instead of once per relaxation. It
// derives everything from slices a worker also holds, so a shard rebuilt by
// NewShardFromSlices resolves identically and nothing is shipped.
//
// The scratch is transient and indexed by VID. The arcs mark their targets
// in it, the marked vertices are resolved in VID order — one row lookup and
// at most one ghost slot per vertex, not per arc — and the arcs read the
// result back. Both arc passes are a load and a store with no branch to
// mispredict, which is what keeps this near the cost of copying the arcs.
func (s *Shard) resolve() {
	s.refs = make([]int32, len(s.targets))
	s.stripeRefs = make([]int32, len(s.stripeTargets))
	top := VID(-1)
	for _, ts := range [2][]VID{s.targets, s.stripeTargets} {
		for _, u := range ts {
			if u > top {
				top = u
			}
		}
	}
	ref := make([]int32, int(top)+1)
	for _, ts := range [2][]VID{s.targets, s.stripeTargets} {
		for _, u := range ts {
			ref[u] = 1
		}
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
	for i, u := range s.targets {
		s.refs[i] = ref[u]
	}
	for i, u := range s.stripeTargets {
		s.stripeRefs[i] = ref[u]
	}
}

// Slices exposes the shard's raw slabs for wire encoding: the owned vertex
// list, the owned CSR (offsets/targets/weights) and the delegate stripes
// (stripeOff in the partition's delegate-list order). All returned slices
// alias shard storage: read-only.
func (s *Shard) Slices() (owned []VID, offsets []int64, targets []VID, weights []uint32,
	stripeOff []int64, stripeTargets []VID, stripeWeights []uint32) {
	owned = make([]VID, s.rows.Len())
	for i := range owned {
		owned[i] = s.rows.VertexAt(i)
	}
	return owned, s.offsets, s.targets, s.weights, s.stripeOff, s.stripeTargets, s.stripeWeights
}

// Rank returns the rank this shard belongs to.
func (s *Shard) Rank() int { return s.rank }

// NumRanks returns the partition's rank count P.
func (s *Shard) NumRanks() int { return s.numRanks }

// NumOwned returns the number of vertices in the slab.
func (s *Shard) NumOwned() int { return s.rows.Len() }

// Rows returns the owned-vertex row index, shareable with other rank-local
// slabs (the control-state slab) cut from the same owned list.
func (s *Shard) Rows() *RowIndex { return s.rows }

// NumArcs returns the number of arcs in the slab (owned adjacency only).
func (s *Shard) NumArcs() int64 { return int64(len(s.targets)) }

// NumStripeArcs returns the number of delegate-stripe arcs this rank holds.
func (s *Shard) NumStripeArcs() int64 { return int64(len(s.stripeTargets)) }

// NumDelegates returns the number of delegate vertices striped across ranks.
func (s *Shard) NumDelegates() int { return len(s.delegateIdx) }

// Owns reports whether v's adjacency lives in this slab.
func (s *Shard) Owns(v VID) bool { return s.rows.Row(v) >= 0 }

// Adj returns the adjacency of owned vertex v as parallel target/weight
// slices, aliasing the slab (read-only). Arc order matches the global CSR.
// Panics if the shard does not own v — the traversal routing is broken.
func (s *Shard) Adj(v VID) ([]VID, []uint32) {
	i := s.rows.Row(v)
	if i < 0 {
		panic("graph: Shard.Adj on non-owned vertex")
	}
	lo, hi := s.offsets[i], s.offsets[i+1]
	return s.targets[lo:hi], s.weights[lo:hi]
}

// RowArcs returns owned row i's adjacency like Adj, plus the resolved form of
// each target: refs[j] ≥ 0 is targets[j]'s owned row, refs[j] < 0 the
// complement of its ghost slot.
func (s *Shard) RowArcs(i int32) (targets []VID, weights []uint32, refs []int32) {
	lo, hi := s.offsets[i], s.offsets[i+1]
	return s.targets[lo:hi], s.weights[lo:hi], s.refs[lo:hi]
}

// StripeAdj returns this rank's stripe of delegate v's adjacency (arc index
// ≡ rank mod P, in global arc order). Panics if v is not a delegate.
func (s *Shard) StripeAdj(v VID) ([]VID, []uint32) {
	ts, ws, _ := s.StripeArcs(v)
	return ts, ws
}

// StripeArcs is StripeAdj plus the resolved targets, as RowArcs.
func (s *Shard) StripeArcs(v VID) (targets []VID, weights []uint32, refs []int32) {
	i, ok := s.delegateIdx[v]
	if !ok {
		panic("graph: Shard.StripeAdj on non-delegate vertex")
	}
	lo, hi := s.stripeOff[i], s.stripeOff[i+1]
	return s.stripeTargets[lo:hi], s.stripeWeights[lo:hi], s.stripeRefs[lo:hi]
}

// NumGhosts returns the number of ghost slots: distinct vertices owned
// elsewhere that some slab or stripe arc of this rank points at.
func (s *Shard) NumGhosts() int { return len(s.ghosts) }

// GhostAt returns the vertex of ghost slot i — the inverse of Ref's
// complement.
func (s *Shard) GhostAt(i int) VID { return s.ghosts[i] }

// Ref resolves v the way the arc columns do, by binary search over the
// ghost list: v's owned row, or the complement of its ghost slot. For the
// path that holds a vertex but no arc leading to it (a halo message). Panics
// if v is neither owned nor a ghost — no arc of this rank leads to it.
func (s *Shard) Ref(v VID) int32 {
	if i := s.rows.Row(v); i >= 0 {
		return i
	}
	slot, ok := slices.BinarySearch(s.ghosts, v)
	if !ok {
		panic("graph: Shard.Ref on a vertex no local arc points at")
	}
	return ^int32(slot)
}

// EdgeWeight reports the weight of edge {u, v} by binary search over owned
// vertex u's slab row (sorted, like the global CSR). The graph is
// undirected, so EdgeWeight(u, v) on u's owner equals the global
// HasEdge(v, u) from any rank.
func (s *Shard) EdgeWeight(u, v VID) (uint32, bool) {
	ts, ws := s.Adj(u)
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

// MemoryBytes reports the shard's resident size: slab CSR, delegate stripes,
// the resolved column of each (4 bytes per arc), the ghost list (4 bytes per
// distinct remote target — on a hash partition nearly every vertex the rank
// does not own) and the owned-vertex index (zero extra for affine owned
// sets).
func (s *Shard) MemoryBytes() int64 {
	b := int64(len(s.offsets))*8 + int64(len(s.targets))*4 + int64(len(s.weights))*4
	b += int64(len(s.stripeOff))*8 + int64(len(s.stripeTargets))*4 + int64(len(s.stripeWeights))*4
	b += int64(len(s.refs))*4 + int64(len(s.stripeRefs))*4 + int64(len(s.ghosts))*4
	b += int64(len(s.delegateIdx)) * 12
	b += s.rows.MemoryBytes()
	return b
}
