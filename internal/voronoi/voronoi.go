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
// The solver's production path keeps this state in rank-local StateSlabs
// instead (owned vertices only); State remains as the pre-slab reference
// implementation behind core's Options.GlobalCSR — the equivalence oracle —
// and as the collected global view Compute and Collect return.
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

// delegateRelax marks broadcast messages that ask every rank to relax its
// stripe of a high-degree delegate's adjacency.
const delegateRelax uint8 = 1

// RunRank executes the Voronoi-cell traversal on one rank (call inside
// Comm.Run alongside the other ranks). It returns the rank's traversal work
// counters. State is the rank's attached StateSlab (Comm.AttachStateSlabs /
// voronoi.AttachSlabs): each rank reads and writes only the entries of
// vertices it owns, and remote entries are reached exclusively through
// mailbox relaxation messages.
//
// Adjacency comes from the rank's local shard (Rank.Adj / Rank.StripeAdj),
// never the global CSR: the communicator must have shards attached
// (Comm.AttachShards or Comm.EnsureShards) before Run.
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
// Every offer passes the send-side dominance filter first (offerSender):
// offers the rank's own slab proves dead — against the owned row of a local
// target, or the mirror row of a remote delegate — are never sent.
func run(r *rt.Rank, seeds []graph.VID, bsp bool) rt.TraversalStats {
	sl := SlabOf(r)
	sendOffer := sl.offerSender(r)
	relaxNeighbors := func(r *rt.Rank, v graph.VID, src graph.VID, dist graph.Dist) {
		if r.IsDelegate(v) {
			// Hub: fan the relaxation out to all ranks; each scans its
			// materialized stripe of v's (large) adjacency. Broadcasts
			// carry freshly-installed, strictly-improving state: nothing
			// to filter here — but they are staged, not sent: the outbox
			// keeps only the best (dist, src) offer per hub and releases
			// it at the superstep boundary, so k rapid improvements of one
			// hub cross the wire as one broadcast (Stats.BatchedBroadcasts
			// / CoalescedBroadcasts).
			r.BroadcastBatched(rt.Msg{Target: v, From: v, Seed: src, Dist: dist, Kind: delegateRelax})
			return
		}
		ts, ws := r.Adj(v)
		for i, u := range ts {
			sendOffer(r, u, v, src, dist+graph.Dist(ws[i]))
		}
	}
	relaxStripe := func(r *rt.Rank, m rt.Msg) {
		v := m.Target
		// Fold the broadcast into the local delegate mirror (no-op on the
		// owner), then relax this rank's stripe of v's adjacency.
		sl.ObserveDelegate(v, m.Seed, m.Dist)
		ts, ws := r.StripeAdj(v)
		for i, u := range ts {
			sendOffer(r, u, v, m.Seed, m.Dist+graph.Dist(ws[i]))
		}
	}
	// Bucket-drain form of the visit for the intra-rank parallel frontier:
	// same tie-break and state writes, but outbound offers are emitted into
	// the worker's staging outbox instead of sent. Safe without locks
	// because the pool partitions a drained bucket by Target and every
	// state row a visit touches — the owned row (Get/Set) and the delegate
	// mirror row (ObserveDelegate) alike — is keyed by Target. The
	// changed-since filter is deliberately NOT applied here: it reads other
	// vertices' mirror rows, which concurrent chunks may be folding.
	parallelVisit := func(r *rt.Rank, m rt.Msg, w int, emit func(rt.Msg)) {
		if m.Kind == delegateRelax {
			v := m.Target
			sl.ObserveDelegate(v, m.Seed, m.Dist)
			ts, ws := r.StripeAdj(v)
			for i, u := range ts {
				emit(rt.Msg{Target: u, From: v, Seed: m.Seed, Dist: m.Dist + graph.Dist(ws[i])})
			}
			return
		}
		vj := m.Target
		os, op, od := sl.Get(vj)
		if !offerBetter(m.Dist, m.Seed, m.From, od, os, op) {
			// A concurrently relaxed chunk (or earlier traffic) already
			// installed a lex-better entry: the commutative merge resolved
			// a conflict the serial order never sees as one.
			r.FrontierConflict(w)
			return
		}
		distImproved := m.Dist != od || m.Seed != os
		sl.Set(vj, m.Seed, m.From, m.Dist)
		if !distImproved {
			return
		}
		if r.IsDelegate(vj) {
			emit(rt.Msg{Target: vj, From: vj, Seed: m.Seed, Dist: m.Dist, Kind: delegateRelax})
			return
		}
		ts, ws := r.Adj(vj)
		for i, u := range ts {
			emit(rt.Msg{Target: u, From: vj, Seed: m.Seed, Dist: m.Dist + graph.Dist(ws[i])})
		}
	}
	// Replay of one staged message on the rank goroutine, after all workers
	// joined: hub broadcasts go through the superstep outbox and plain
	// offers through the changed-since filter — which now reads the fully
	// merged mirror state — so wire traffic, tie-send rules and batching
	// are exactly those of the serial path.
	parallelFlush := func(r *rt.Rank, m rt.Msg) {
		if m.Kind == delegateRelax {
			r.BroadcastBatched(m)
			return
		}
		sendOffer(r, m.Target, m.From, m.Seed, m.Dist)
	}
	return runWith(r, seeds, sl, bsp, relaxNeighbors, relaxStripe, parallelVisit, parallelFlush)
}

// offerSender returns the relaxation-offer send function. It drops offers
// the sending rank can already prove dead — the send-side dominance filter:
//
//   - the target is owned here and its row already beats the offer under
//     offerBetter, so Visit would reject it on arrival (about half of all
//     offers on a loopback solve);
//   - the target is a delegate owned elsewhere and the local mirror of its
//     (src, dist), fed by past broadcasts, is strictly better — the
//     changed-since filter, counted in Stats.Suppressed.
//
// Both are safe for one reason, shared with Traversal.Admit: a vertex's
// entry only ever improves lexicographically, and the local view is the
// owner's current or a past state, so an offer that view beats is beaten
// for good and Visit's rejection of it is a no-op. Comparisons are strict —
// an offer tying on (dist, src) with a smaller predecessor still goes out —
// which keeps the converged fixed point byte-identical to RunRankGlobal's
// unconditional sends (pinned by the equivalence property tests).
func (sl *StateSlab) offerSender(r *rt.Rank) func(r *rt.Rank, u graph.VID, from, seed graph.VID, dist graph.Dist) {
	delegates := r.HasDelegates()
	return func(r *rt.Rank, u graph.VID, from, seed graph.VID, dist graph.Dist) {
		if i := sl.rows.Row(u); i >= 0 {
			if sl.epoch[i] == sl.cur && !offerBetter(dist, seed, from, sl.dist[i], sl.src[i], sl.pred[i]) {
				return
			}
		} else if delegates && r.IsDelegate(u) {
			if ms, md, ok := sl.DelegateState(u); ok && (md < dist || (md == dist && ms < seed)) {
				r.Suppress()
				return
			}
		}
		r.Send(rt.Msg{Target: u, From: from, Seed: seed, Dist: dist})
	}
}

// RunRankGlobal is the pre-shard, pre-slab reference implementation:
// identical visitor logic, but adjacency read by scanning the shared global
// CSR (delegate stripes as strided scans over the global arrays) and
// control state kept in one shared State array indexed by global VID.
// Retained as the oracle for the shard/slab-equivalence property tests and
// the sharded-vs-global benchmarks; the solver's production path is
// RunRank.
func RunRankGlobal(r *rt.Rank, g *graph.Graph, seeds []graph.VID, st *State) rt.TraversalStats {
	return runGlobal(r, g, seeds, st, false)
}

// RunRankGlobalBSP is RunRankGlobal under bulk-synchronous supersteps.
func RunRankGlobalBSP(r *rt.Rank, g *graph.Graph, seeds []graph.VID, st *State) rt.TraversalStats {
	return runGlobal(r, g, seeds, st, true)
}

func runGlobal(r *rt.Rank, g *graph.Graph, seeds []graph.VID, st *State, bsp bool) rt.TraversalStats {
	relaxNeighbors := func(r *rt.Rank, v graph.VID, src graph.VID, dist graph.Dist) {
		if r.IsDelegate(v) {
			r.Broadcast(rt.Msg{Target: v, From: v, Seed: src, Dist: dist, Kind: delegateRelax})
			return
		}
		ts, ws := g.Adj(v)
		for i, u := range ts {
			r.Send(rt.Msg{Target: u, From: v, Seed: src, Dist: dist + graph.Dist(ws[i])})
		}
	}
	relaxStripe := func(r *rt.Rank, m rt.Msg) {
		v := m.Target
		ts, ws := g.Adj(v)
		p := r.NumRanks()
		for i := r.ID(); i < len(ts); i += p {
			u := ts[i]
			r.Send(rt.Msg{Target: u, From: v, Seed: m.Seed, Dist: m.Dist + graph.Dist(ws[i])})
		}
	}
	// The global-CSR reference path shares one State array across ranks and
	// stays strictly serial per rank: no parallel frontier.
	return runWith(r, seeds, st, bsp, relaxNeighbors, relaxStripe, nil, nil)
}

// runWith is the shared traversal skeleton: tie-breaking and state updates
// are identical for the slab-state and shared-state paths (st is the
// Control view of either), so the two can only differ if an adjacency or
// state source yields different values — exactly what the equivalence
// property tests pin down.
func runWith(r *rt.Rank, seeds []graph.VID, st Control, bsp bool,
	relaxNeighbors func(r *rt.Rank, v graph.VID, src graph.VID, dist graph.Dist),
	relaxStripe func(r *rt.Rank, m rt.Msg),
	parallelVisit rt.ParallelVisitFunc, parallelFlush rt.VisitFunc) rt.TraversalStats {
	tr := &rt.Traversal{
		Key:           rt.DistKey,
		BSP:           bsp,
		ParallelVisit: parallelVisit,
		ParallelFlush: parallelFlush,
		Init: func(r *rt.Rank) {
			for _, s := range seeds {
				if r.Owns(s) {
					r.Send(rt.Msg{Target: s, From: s, Seed: s, Dist: 0})
				}
			}
		},
		Visit: func(r *rt.Rank, m rt.Msg) {
			if m.Kind == delegateRelax {
				// Relax this rank's stripe of the delegate's adjacency.
				// State was already updated by the delegate's owner.
				relaxStripe(r, m)
				return
			}
			vj := m.Target
			os, op, od := st.Get(vj)
			if !offerBetter(m.Dist, m.Seed, m.From, od, os, op) {
				return
			}
			distImproved := m.Dist != od || m.Seed != os
			st.Set(vj, m.Seed, m.From, m.Dist)
			if distImproved {
				relaxNeighbors(r, vj, m.Seed, m.Dist)
			}
		},
	}
	// Dominance pre-filter for inbound offers: an offer the owned entry
	// already lexicographically beats would be rejected by Visit unchanged —
	// state only ever improves — so it is dropped before paying for a queue
	// insertion. Exact ties are NOT dropped here or in Visit (offerBetter is
	// strict), and delegate broadcasts always pass: their stripe relax must
	// run regardless of the mirror's view. It pays on loopback as on a
	// transport: batches sit in the mailbox while the owner keeps settling
	// vertices, and about half of the inbound offers arrive already beaten.
	tr.Admit = func(r *rt.Rank, m rt.Msg) bool {
		if m.Kind == delegateRelax {
			return true
		}
		os, op, od := st.Get(m.Target)
		return offerBetter(m.Dist, m.Seed, m.From, od, os, op)
	}
	return r.Traverse(tr)
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
