// Package voronoi implements the paper's distributed Voronoi-cell
// computation (Alg. 4): an asynchronous, Bellman–Ford-based flood from all
// seed vertices simultaneously. Every vertex ends up knowing the closest
// seed (its cell owner src), its tentative shortest distance to that seed
// (d1), and the predecessor on that shortest path (pred) — the state later
// phases use to build the distance graph G'₁ and to expand tree edges.
//
// Tie-breaking is total and deterministic: a vertex adopts an offer
// (dist, seed, pred) iff it is lexicographically smaller than its current
// state. Distance/seed improvements trigger re-relaxation of the vertex's
// neighbors; predecessor-only improvements do not (they cannot change any
// neighbor's offer). The unique fixed point therefore does not depend on
// rank count, queue discipline or message timing — property-tested in
// voronoi_test.go and relied on by the paper-reproduction experiments.
//
// The flood is query-mode agnostic. Steiner Forest and prize-collecting
// queries (core.QuerySpec) reuse the exact same cell computation: every
// terminal floods as a seed regardless of which group it belongs to or what
// penalty it carries, so cells partition the graph identically across
// modes. Mode semantics enter only in the later phases — forest queries tag
// each seed with its group and drop cross-group candidate edges during
// phase 2, and prize queries filter the replicated distance graph before
// the phase-4 MST — which keeps this package, and the rank-local slab
// layout it fills, byte-for-byte identical for every query mode.
package voronoi

import (
	"dsteiner/internal/graph"
	rt "dsteiner/internal/runtime"
)

// State is the shared-array form of the per-vertex Voronoi state: one
// array indexed by global VID, entries partitioned by ownership (only the
// owner rank of v may touch v's entry while a traversal is running). A
// seed s has Src(s) = s, Pred(s) = s, Dist(s) = 0. Vertices unreached
// (disconnected from all seeds) report Src = NilVID, Dist = InfDist.
//
// The solver keeps this state in rank-local StateSlabs instead (owned
// vertices only); State is what the Sequential oracle fills, and the
// collected global view Compute and Collect return.
//
// Entries are epoch-versioned: an entry is valid only while
// epoch[v] == cur, so Reset invalidates the whole state in O(1) instead of
// re-filling three O(n) arrays. That is what makes State pool-able across
// queries of a long-lived solver session (core.Engine): per-query work is
// proportional to the vertices the query actually touches, not to |V|.
type State struct {
	src   []graph.VID
	pred  []graph.VID
	dist  []graph.Dist
	epoch []uint64
	cur   uint64
}

// NewState allocates initialized (unreached) state for n vertices.
func NewState(n int) *State {
	return &State{
		src:   make([]graph.VID, n),
		pred:  make([]graph.VID, n),
		dist:  make([]graph.Dist, n),
		epoch: make([]uint64, n),
		cur:   1,
	}
}

// Len returns the number of vertices the state covers.
func (st *State) Len() int { return len(st.src) }

// Reset invalidates every entry in O(1) by advancing the epoch. Call
// between queries; must not be called while a traversal is running.
func (st *State) Reset() { st.cur++ }

// Reached reports whether v has a valid (current-epoch) entry.
func (st *State) Reached(v graph.VID) bool { return st.epoch[v] == st.cur }

// Src returns v's cell seed, or NilVID if v is unreached this epoch.
func (st *State) Src(v graph.VID) graph.VID {
	if st.epoch[v] != st.cur {
		return graph.NilVID
	}
	return st.src[v]
}

// Pred returns v's shortest-path predecessor, or NilVID if unreached.
func (st *State) Pred(v graph.VID) graph.VID {
	if st.epoch[v] != st.cur {
		return graph.NilVID
	}
	return st.pred[v]
}

// Dist returns v's distance to its cell seed, or InfDist if unreached.
func (st *State) Dist(v graph.VID) graph.Dist {
	if st.epoch[v] != st.cur {
		return graph.InfDist
	}
	return st.dist[v]
}

// Get returns v's full (src, pred, dist) entry with a single epoch check,
// yielding the unreached sentinel triple when stale.
func (st *State) Get(v graph.VID) (src, pred graph.VID, dist graph.Dist) {
	if st.epoch[v] != st.cur {
		return graph.NilVID, graph.NilVID, graph.InfDist
	}
	return st.src[v], st.pred[v], st.dist[v]
}

// Set installs v's entry and stamps it with the current epoch. Only v's
// owner rank may call this while a traversal is running.
func (st *State) Set(v graph.VID, src, pred graph.VID, dist graph.Dist) {
	st.epoch[v] = st.cur
	st.src[v] = src
	st.pred[v] = pred
	st.dist[v] = dist
}

// MemoryBytes reports the state's footprint (Fig. 8 accounting), including
// the epoch array that buys O(1) reuse.
func (st *State) MemoryBytes() int64 {
	return int64(len(st.src))*4 + int64(len(st.pred))*4 + int64(len(st.dist))*8 +
		int64(len(st.epoch))*8
}

// offerBetter implements the deterministic total order on (dist, seed,
// pred) offers described in the package comment.
func offerBetter(nd graph.Dist, ns, np graph.VID, od graph.Dist, os, op graph.VID) bool {
	if nd != od {
		return nd < od
	}
	if ns != os {
		return ns < os
	}
	return np < op
}

// Message kinds of the Voronoi traversal. The zero kind is a relaxation offer
// that no row has seen yet: it is folded into its target's row on arrival
// (Traversal.Admit).
const (
	// delegateRelax marks broadcast messages that ask every rank to relax its
	// stripe of a high-degree delegate's adjacency.
	delegateRelax uint8 = 1
	// labelInstalled marks a queue entry whose (dist, seed) label the sender
	// itself wrote into the target's row: only the expansion is left to do.
	// It never crosses a rank or the wire. Under BSP such an entry reaches
	// the next superstep through the rank's own mailbox, and folding it a
	// second time on arrival would tie with the row it wrote and drop it.
	labelInstalled uint8 = 2
)

// RunRank executes the Voronoi-cell traversal on one rank (call inside
// Comm.Run alongside the other ranks). It returns the rank's traversal work
// counters. State is the rank's attached StateSlab (Comm.AttachStateSlabs /
// voronoi.AttachSlabs): each rank reads and writes only the entries of
// vertices it owns, and remote entries are reached exclusively through
// mailbox relaxation messages.
//
// Adjacency comes from the rank's local shard (graph.Shard.RowArcs /
// StripeArcs), never the global CSR: the communicator must have shards
// attached (Comm.AttachShards or Comm.EnsureShards) before Run.
func RunRank(r *rt.Rank, seeds []graph.VID) rt.TraversalStats {
	return run(r, seeds, false)
}

// RunRankBSP is RunRank under bulk-synchronous supersteps instead of
// asynchronous processing — the §IV async-vs-BSP ablation.
func RunRankBSP(r *rt.Rank, seeds []graph.VID) rt.TraversalStats {
	return run(r, seeds, true)
}

// run is the rank-local hot path: each rank walks its own CSR slab and its
// materialized delegate stripes, and keeps control state in its own
// StateSlab; neither the global CSR nor a shared state array is consulted.
//
// Rows hold tentative labels (HavoqGT's pre_visit/visit split): a row is
// written when an offer for it is made — by offerSender for a target the
// sender owns, by Admit for an offer from another rank — and a queue entry
// exists only for a strict (dist, seed) improvement, so each label of a
// vertex is queued at most once and the queue holds O(improvements), not
// O(arcs); under the priority queue a better label takes over its row's
// queued entry (Traversal.Slot), so the queue holds at most one entry per
// row. Visit writes nothing: it expands the entry if its label is still
// the row's, and returns if a better one has replaced it (that one has its
// own entry). The scans read each arc's target already resolved
// (graph.Shard.RowArcs): an owned row, or the ghost row holding the best
// offer this rank has sent that remote vertex so far; an arc's target VID is
// derived only for the offers that are sent. The fixed point is
// Sequential's: every comparison is the same strict offerBetter, and the
// label a row converges to is expanded exactly once, so every neighbour
// receives the same final offers.
func run(r *rt.Rank, seeds []graph.VID, bsp bool) rt.TraversalStats {
	sl := SlabOf(r)
	sh := r.Shard()
	if sh == nil || sh.NumGhosts() != len(sl.ghost) {
		panic("voronoi: the rank's StateSlab was not built from its shard (NewStateSlab, BuildSlabs)")
	}
	offer := sl.offerSender(r)
	return r.Traverse(&rt.Traversal{
		Key: rt.DistKey,
		// Under the priority queue a row has at most one live entry, so
		// nothing queues a superseded label and nothing pops one.
		// Invariant: a push for a queued slot never carries a worse label.
		// Every push of a row entry follows a strict (dist, seed)
		// improvement of that row, made by relax (offerSender) or by Admit,
		// and carries the label it installed; rows only improve, so the
		// entry it replaces holds an earlier, worse label that Visit would
		// have found stale. Two kinds of entry take no slot because they can
		// break that: a labelInstalled entry that is no longer its row's label
		// (under BSP it reaches the queue a superstep late, through the
		// mailbox, where a better label of the same row may already have been
		// queued — installed later in the superstep, or folded in by Admit
		// from another batch of the same drain), and a delegate broadcast,
		// which Admit always passes, so under shuffled delivery a worse one
		// can arrive after a better one. Both stay ordinary entries, and the
		// stale check in Visit, which the FIFO queue needs anyway, still
		// drops the former.
		Slot: func(m rt.Msg) int32 {
			if m.Kind == delegateRelax {
				return -1
			}
			if i := sl.row(m.Target); sl.holds(i, m.Seed, m.Dist) {
				return i
			}
			return -1
		},
		BSP: bsp,
		Init: func(r *rt.Rank) {
			for _, s := range seeds {
				if r.Owns(s) {
					offer(r, sl.row(s), s, s, 0)
				}
			}
		},
		Admit: func(r *rt.Rank, m rt.Msg) bool {
			// Delegate broadcasts always pass (their stripe relax must run
			// whatever the mirror says), and so do labels already installed.
			return m.Kind != 0 || sl.relax(sl.row(m.Target), m.Seed, m.From, m.Dist)
		},
		Visit: func(r *rt.Rank, m rt.Msg) {
			v := m.Target
			var ws []uint32
			var refs []int32
			if m.Kind == delegateRelax {
				// Fold the broadcast into the local delegate mirror (no-op on
				// the owner), then relax this rank's stripe of v's adjacency.
				sl.ObserveDelegate(v, m.Seed, m.Dist)
				ws, refs = sh.StripeArcs(v)
			} else if i := sl.row(v); !sl.holds(i, m.Seed, m.Dist) {
				return // superseded while queued; the better label has its own entry
			} else if r.IsDelegate(v) {
				// Hub: fan the relaxation out to all ranks; each scans its
				// materialized stripe of v's (large) adjacency. The broadcast
				// is staged, not sent: the outbox keeps only the best (dist,
				// src) offer per hub and releases it at the superstep
				// boundary, so k rapid improvements of one hub cross the wire
				// as one broadcast (Stats.BatchedBroadcasts /
				// CoalescedBroadcasts).
				r.BroadcastBatched(rt.Msg{Target: v, From: v, Seed: m.Seed, Dist: m.Dist, Kind: delegateRelax})
				return
			} else {
				ws, refs = sh.RowArcs(i)
			}
			for j, ref := range refs {
				offer(r, ref, v, m.Seed, m.Dist+graph.Dist(ws[j]))
			}
		},
	})
}

// offerSender returns the one function every relaxation offer of the slab
// path goes through — seeds, neighbour and stripe scans. ref is the target
// resolved against the rank's shard; the target's VID (graph.Shard.Target)
// is only built for an offer that becomes a message. It runs on the rank
// goroutine only.
//
//   - The target is owned here (ref is its row): the offer is folded into
//     the row on the spot (relax) and never becomes a message. Only a strict
//     (dist, seed) improvement queues an expansion entry, marked
//     labelInstalled and pushed without an owner lookup (Rank.SendLocal); a
//     predecessor-only win is installed and queues nothing, because the entry
//     for that (dist, seed) is already queued or expanded and no neighbour's
//     offer depends on pred.
//   - The target is owned elsewhere (ref is its ghost slot) and something
//     local already beats the offer: it is dropped, counted in
//     Stats.Suppressed. Two bounds are consulted. The ghost row holds the best
//     offer this rank has itself sent to u (offerGhost); the owner's row is
//     the minimum of what it received, so it is at least that good. For a
//     delegate there is also the mirror of its (src, dist), fed by the
//     owner's broadcasts — the owner's current or a past state, and rows only
//     improve. An offer either bound beats is beaten for good.
//   - Anything else is sent to its owner, and folded there by Admit.
//
// Every comparison is strict — an offer tying on (dist, src) with a smaller
// predecessor is installed, or still goes out — which keeps the converged
// rows byte-identical to what unconditional sends would reach (pinned
// against Sequential by the equivalence property tests).
func (sl *StateSlab) offerSender(r *rt.Rank) func(r *rt.Rank, ref int32, from, seed graph.VID, dist graph.Dist) {
	sh := r.Shard()
	delegates := r.HasDelegates()
	return func(r *rt.Rank, ref int32, from, seed graph.VID, dist graph.Dist) {
		if ref >= 0 {
			if sl.relax(ref, seed, from, dist) {
				r.SendLocal(rt.Msg{Target: sl.rows.VertexAt(int(ref)), From: from, Seed: seed, Dist: dist, Kind: labelInstalled})
			}
			return
		}
		if delegates {
			if u := sh.Target(ref); r.IsDelegate(u) {
				if ms, md, ok := sl.DelegateState(u); ok && (md < dist || (md == dist && ms < seed)) {
					r.Suppress()
					return
				}
			}
		}
		if !sl.offerGhost(^ref, seed, from, dist) {
			r.Suppress()
			return
		}
		r.Send(rt.Msg{Target: sh.Target(ref), From: from, Seed: seed, Dist: dist})
	}
}

// Compute runs the Voronoi-cell phase standalone on a fresh traversal over
// the given communicator and returns the converged state collected into the
// shared-form view (convenience for tests, Table I and examples; the
// Steiner solver calls RunRank inside its own SPMD body). Shards and state
// slabs are built from g on first use if the communicator has none
// attached; attached slabs are reset, so repeated Computes on one Comm
// reuse them.
func Compute(c *rt.Comm, g *graph.Graph, seeds []graph.VID) *State {
	c.EnsureShards(g)
	slabs := EnsureSlabs(c, g)
	c.ResetStateSlabs()
	c.Run(func(r *rt.Rank) {
		RunRank(r, seeds)
	})
	return Collect(slabs, g.NumVertices())
}

// Sequential computes the same fixed point as RunRank with a sequential
// Dijkstra-like sweep — including the full (dist, seed, pred) tie-breaking
// — and is the verification oracle for the distributed implementation.
func Sequential(g *graph.Graph, seeds []graph.VID) *State {
	st := NewState(g.NumVertices())
	type item struct {
		v    graph.VID
		d    graph.Dist
		src  graph.VID
		pred graph.VID
	}
	// Simple heap on (d, src, pred) triples.
	h := make([]item, 0, len(seeds)*4)
	less := func(a, b item) bool {
		if a.d != b.d {
			return a.d < b.d
		}
		if a.src != b.src {
			return a.src < b.src
		}
		return a.pred < b.pred
	}
	push := func(it item) {
		h = append(h, it)
		i := len(h) - 1
		for i > 0 {
			p := (i - 1) / 2
			if !less(h[i], h[p]) {
				break
			}
			h[i], h[p] = h[p], h[i]
			i = p
		}
	}
	pop := func() item {
		top := h[0]
		last := len(h) - 1
		h[0] = h[last]
		h = h[:last]
		i := 0
		for {
			l, r := 2*i+1, 2*i+2
			m := i
			if l < len(h) && less(h[l], h[m]) {
				m = l
			}
			if r < len(h) && less(h[r], h[m]) {
				m = r
			}
			if m == i {
				break
			}
			h[i], h[m] = h[m], h[i]
			i = m
		}
		return top
	}
	for _, s := range seeds {
		push(item{v: s, d: 0, src: s, pred: s})
	}
	for len(h) > 0 {
		it := pop()
		os, op, od := st.Get(it.v)
		if !offerBetter(it.d, it.src, it.pred, od, os, op) {
			continue
		}
		improved := it.d != od || it.src != os
		st.Set(it.v, it.src, it.pred, it.d)
		if !improved {
			continue
		}
		ts, ws := g.Adj(it.v)
		for i, u := range ts {
			nd := it.d + graph.Dist(ws[i])
			us, up, ud := st.Get(u)
			if offerBetter(nd, it.src, it.v, ud, us, up) {
				push(item{v: u, d: nd, src: it.src, pred: it.v})
			}
		}
	}
	return st
}
