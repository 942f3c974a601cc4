package voronoi

import (
	"fmt"

	"dsteiner/internal/graph"
	"dsteiner/internal/par"
	"dsteiner/internal/partition"
)

// StateSlab is one rank's local share of the Voronoi control state: the
// (src, pred, dist) entry of every vertex in the rank's owned range, stored
// in compact rows addressed by the same VID→row mapping (graph.RowIndex) the
// rank's graph.Shard uses, so a vertex's adjacency and state live at the
// same local row. It replaces the rank's slice of the shared State array —
// the last shared-memory structure on the solver's hot path — mirroring how
// CONGEST-model Steiner constructions keep all per-vertex labels local to
// the owning node. After slabs, a rank's working set is exactly its shard
// (adjacency), its slab (control state) and its mailbox: the state a
// multi-process backend ships to each process. The runtime carries the
// shard and the mailbox; the slab is held by the caller (core's rank host
// pools one per hosted rank) and handed to RunRank.
//
// Alongside the owned rows the slab keeps two smaller regions:
//
//   - ghost rows: one per ghost slot of the rank's graph.Shard, that is per
//     distinct vertex owned elsewhere that a local arc points at. During the
//     flood a ghost row is a sender-side bound — the best (dist, src, pred)
//     this rank has already offered that vertex (offerGhost) — and for phase
//     2 it is overwritten with the final (src, dist) its owner pushes
//     (BeginHalo, SetGhost, Label). Never authoritative, never collected;
//   - phase-6 walk marks (MarkWalked), the epoch-versioned "have I walked
//     this vertex's predecessor chain" bits of Alg. 6, previously a shared
//     O(|V|) bitmap in core.Engine.
//
// All regions are epoch-versioned: Reset invalidates everything
// in O(1), making slabs pool-able across the queries of a long-lived
// engine. Entries of non-owned vertices do not exist here — an access
// panics, because it means traversal routing is broken (like
// graph.Shard.EdgeWeight on a non-owned vertex).
type StateSlab struct {
	rank int
	rows graph.RowIndex

	// Owned-vertex rows, valid while their epoch is cur, and the phase-6
	// walk marks beside them.
	owned  []slabRow
	walked []uint64
	cur    uint64

	// Ghost rows, indexed by the shard's ghost slot. gcur is their epoch: it
	// advances at Reset and once more between the flood and the halo exchange.
	ghost []slabRow
	gcur  uint64
}

// slabRow is one vertex's (dist, src, pred) entry: an owned vertex's label, or
// what a rank knows about one remote neighbour. The fields sit together
// because the flood reads them all on every relaxation: one arc, one cache
// line.
type slabRow struct {
	dist      graph.Dist
	src, pred graph.VID
	epoch     uint64
}

// NewStateSlab builds rank's slab over its owned range [lo, hi). sh, when
// non-nil, is the rank's shard over the same range: the slab gets one ghost
// row per ghost slot. A slab built without a shard has no ghost rows: it
// can hold state, but RunRank refuses it on a multi-rank shard.
func NewStateSlab(rank int, lo, hi graph.VID, sh *graph.Shard) *StateSlab {
	rows := graph.NewRowIndex(lo, hi)
	var ghost []slabRow
	if sh != nil {
		if sh.Rows() != rows {
			panic("voronoi: NewStateSlab over another range than its shard's")
		}
		ghost = make([]slabRow, sh.NumGhosts())
	}
	n := rows.Len()
	return &StateSlab{
		rank:   rank,
		rows:   rows,
		owned:  make([]slabRow, n),
		walked: make([]uint64, n),
		cur:    1,
		ghost:  ghost,
		gcur:   1,
	}
}

// BuildSlabs builds one StateSlab over each shard the plan cut — the
// control-state counterpart of ShardPlan.BuildShards.
func BuildSlabs(plan *partition.ShardPlan, shards []*graph.Shard) []*StateSlab {
	return shardSlabs(plan.Partition(), shards)
}

// shardSlabs builds a StateSlab over each shard, in order, several at once
// (par.Each).
func shardSlabs(part *partition.Partition, shards []*graph.Shard) []*StateSlab {
	slabs := make([]*StateSlab, len(shards))
	par.Each(len(shards), func(i int) {
		lo, hi := part.Range(shards[i].Rank())
		slabs[i] = NewStateSlab(shards[i].Rank(), lo, hi, shards[i])
	})
	return slabs
}

// NumOwned returns the number of owned-vertex rows.
func (sl *StateSlab) NumOwned() int { return sl.rows.Len() }

// Reset invalidates every owned row, ghost row and walk mark in
// O(1) by advancing the epochs. Call between queries; must not be called
// while a traversal is running.
func (sl *StateSlab) Reset() { sl.cur++; sl.gcur++ }

// row returns v's owned row or panics: state access to a non-owned vertex
// means the traversal routed a message to the wrong rank.
func (sl *StateSlab) row(v graph.VID) int32 {
	i := sl.rows.Row(v)
	if i < 0 {
		panic(fmt.Sprintf("voronoi: StateSlab(rank %d) access to non-owned vertex %d", sl.rank, v))
	}
	return i
}

// Reached reports whether owned vertex v has a current-epoch entry.
func (sl *StateSlab) Reached(v graph.VID) bool { return sl.owned[sl.row(v)].epoch == sl.cur }

// Src returns owned vertex v's cell seed, or NilVID when unreached.
func (sl *StateSlab) Src(v graph.VID) graph.VID {
	src, _, _ := sl.Get(v)
	return src
}

// Pred returns owned vertex v's predecessor, or NilVID when unreached.
func (sl *StateSlab) Pred(v graph.VID) graph.VID {
	_, pred, _ := sl.Get(v)
	return pred
}

// Dist returns owned vertex v's distance, or InfDist when unreached.
func (sl *StateSlab) Dist(v graph.VID) graph.Dist {
	_, _, dist := sl.Get(v)
	return dist
}

// Get returns owned vertex v's full entry with a single epoch check.
func (sl *StateSlab) Get(v graph.VID) (src, pred graph.VID, dist graph.Dist) {
	o := &sl.owned[sl.row(v)]
	if o.epoch != sl.cur {
		return graph.NilVID, graph.NilVID, graph.InfDist
	}
	return o.src, o.pred, o.dist
}

// Set installs owned vertex v's entry, stamped with the current epoch.
func (sl *StateSlab) Set(v graph.VID, src, pred graph.VID, dist graph.Dist) {
	sl.owned[sl.row(v)] = slabRow{dist: dist, src: src, pred: pred, epoch: sl.cur}
}

// holds reports whether owned row i still carries the label (src, dist).
func (sl *StateSlab) holds(i int32, src graph.VID, dist graph.Dist) bool {
	o := &sl.owned[i]
	return o.epoch == sl.cur && o.src == src && o.dist == dist
}

// beats reports whether owned row i's distance alone beats an offer of dist,
// which relax would reject: the common case, cheap enough to inline.
func (sl *StateSlab) beats(i int32, dist graph.Dist) bool {
	o := &sl.owned[i]
	return o.epoch == sl.cur && o.dist < dist
}

// relax folds one offer into owned row i, keeping the lexicographic minimum
// under offerBetter, and reports whether the row's (dist, src) label strictly
// improved — the only case in which the vertex must be expanded (again). A
// predecessor-only win is installed and reports false.
func (sl *StateSlab) relax(i int32, src, pred graph.VID, dist graph.Dist) bool {
	o := &sl.owned[i]
	if o.epoch == sl.cur && !offerBetter(dist, src, pred, o.dist, o.src, o.pred) {
		return false
	}
	improved := o.epoch != sl.cur || dist != o.dist || src != o.src
	*o = slabRow{dist: dist, src: src, pred: pred, epoch: sl.cur}
	return improved
}

// ghostBeats is beats' counterpart for ghost slot g: whether the offer this
// rank already sent that vertex beats one of dist on dist alone, which
// offerGhost would reject.
func (sl *StateSlab) ghostBeats(g int32, dist graph.Dist) bool {
	row := &sl.ghost[g]
	return row.epoch == sl.gcur && row.dist < dist
}

// offerGhost is relax's counterpart for a vertex owned elsewhere: it reports
// whether an offer to ghost slot g has to be sent, and records it if so. The
// owner's row is the lexicographic minimum of everything it received, so an
// offer that is not strictly offerBetter than one this rank already sent
// cannot change that row. Strictness matters as in relax: an offer tying on
// (dist, src) with a smaller pred still goes out.
func (sl *StateSlab) offerGhost(g int32, src, pred graph.VID, dist graph.Dist) bool {
	row := &sl.ghost[g]
	if row.epoch == sl.gcur && !offerBetter(dist, src, pred, row.dist, row.src, row.pred) {
		return false
	}
	*row = slabRow{dist: dist, src: src, pred: pred, epoch: sl.gcur}
	return true
}

// BeginHalo invalidates the ghost rows' flood-time bounds so that a valid
// ghost row from here on is a final label pushed by its owner (SetGhost),
// so a rank calls it between the flood and the halo exchange.
func (sl *StateSlab) BeginHalo() { sl.gcur++ }

// SetGhost stores the final (src, dist) of the remote vertex in ghost slot
// g, as its owner pushed it.
func (sl *StateSlab) SetGhost(g int32, src graph.VID, dist graph.Dist) {
	sl.ghost[g] = slabRow{dist: dist, src: src, epoch: sl.gcur}
}

// Label returns the (src, dist) behind a resolved arc target: the owned row
// for ref ≥ 0, the ghost row otherwise — after BeginHalo, what the owner
// pushed. Unreached or never pushed reads (NilVID, InfDist).
func (sl *StateSlab) Label(ref int32) (src graph.VID, dist graph.Dist) {
	if ref >= 0 {
		if o := &sl.owned[ref]; o.epoch == sl.cur {
			return o.src, o.dist
		}
	} else if g := &sl.ghost[^ref]; g.epoch == sl.gcur {
		return g.src, g.dist
	}
	return graph.NilVID, graph.InfDist
}

// MarkWalked records that v's predecessor chain has been walked this epoch
// (Alg. 6) and reports whether the mark is new — false means v was already
// walked and the caller should stop. Replaces the shared O(|V|) walked
// bitmap the engine kept before slabs.
func (sl *StateSlab) MarkWalked(v graph.VID) bool {
	i := sl.row(v)
	if sl.walked[i] == sl.cur {
		return false
	}
	sl.walked[i] = sl.cur
	return true
}

// EachReached calls fn for every owned vertex with a current-epoch entry,
// in row order. Used to collect converged per-rank state into a global view
// (Collect) and by tests.
func (sl *StateSlab) EachReached(fn func(v graph.VID, src, pred graph.VID, dist graph.Dist)) {
	for i, o := range sl.owned {
		if o.epoch == sl.cur {
			fn(sl.rows.VertexAt(i), o.src, o.pred, o.dist)
		}
	}
}

// MemoryBytes reports the slab's resident size (SlabBytes).
func (sl *StateSlab) MemoryBytes() int64 { return SlabBytes(sl.rows.Len(), len(sl.ghost)) }

// SlabBytes is the resident size of a slab of rows owned rows and ghosts
// ghost rows: an owned row is src 4 + pred 4 + dist 8 + epoch 8 + walked 8
// bytes, a ghost row dist 8 + src 4 + pred 4 + epoch 8 — one per distinct
// remote neighbour; the neighbour's VID is the shard's, graph.Shard.Target,
// so a row stays 24 bytes.
func SlabBytes(rows, ghosts int) int64 {
	return int64(rows)*(4+4+8+8+8) + int64(ghosts)*(8+4+4+8)
}

// Collect merges converged per-rank slabs into one shared-form State over n
// vertices — the bridge back to the global view for verification oracles,
// Compute's return value and the experiment tables. The merged state is a
// copy; mutating it does not touch the slabs.
func Collect(slabs []*StateSlab, n int) *State {
	st := NewState(n)
	for _, sl := range slabs {
		sl.EachReached(func(v graph.VID, src, pred graph.VID, dist graph.Dist) {
			st.Set(v, src, pred, dist)
		})
	}
	return st
}
