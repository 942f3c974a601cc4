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
// array indexed by global VID. A seed s has Src(s) = s, Pred(s) = s,
// Dist(s) = 0. Vertices unreached (disconnected from all seeds) report
// Src = NilVID, Pred = NilVID, Dist = InfDist.
//
// The solver keeps this state in rank-local StateSlabs instead (owned
// vertices only); a State is filled once, by the Sequential oracle or by
// Collect, the global view Compute returns.
type State struct {
	src  []graph.VID
	pred []graph.VID
	dist []graph.Dist
}

// NewState allocates unreached state for n vertices.
func NewState(n int) *State {
	st := &State{
		src:  make([]graph.VID, n),
		pred: make([]graph.VID, n),
		dist: make([]graph.Dist, n),
	}
	for v := range st.src {
		st.src[v], st.pred[v], st.dist[v] = graph.NilVID, graph.NilVID, graph.InfDist
	}
	return st
}

// Len returns the number of vertices the state covers.
func (st *State) Len() int { return len(st.src) }

// Reached reports whether v has an entry.
func (st *State) Reached(v graph.VID) bool { return st.src[v] != graph.NilVID }

// Src returns v's cell seed, or NilVID if v is unreached.
func (st *State) Src(v graph.VID) graph.VID { return st.src[v] }

// Pred returns v's shortest-path predecessor, or NilVID if unreached.
func (st *State) Pred(v graph.VID) graph.VID { return st.pred[v] }

// Dist returns v's distance to its cell seed, or InfDist if unreached.
func (st *State) Dist(v graph.VID) graph.Dist { return st.dist[v] }

// Get returns v's full (src, pred, dist) entry: the unreached sentinel
// triple when v has none.
func (st *State) Get(v graph.VID) (src, pred graph.VID, dist graph.Dist) {
	return st.src[v], st.pred[v], st.dist[v]
}

// Set installs v's entry.
func (st *State) Set(v graph.VID, src, pred graph.VID, dist graph.Dist) {
	st.src[v] = src
	st.pred[v] = pred
	st.dist[v] = dist
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

// labelInstalled is the one message kind of the Voronoi traversal besides the
// zero kind, a relaxation offer that no row has seen yet and that is folded
// into its target's row when its batch arrives (Traversal.Admit). It marks a
// queue entry whose (dist, seed) label the sender itself wrote into the target's row:
// only the expansion is left to do. It never crosses a rank or the wire,
// and the priority queue of an asynchronous flood queues the row instead
// (Rank.PushRow). Under BSP such an entry reaches the next superstep through
// the rank's own mailbox, and folding it a second time on arrival would tie
// with the row it wrote and drop it.
const labelInstalled uint8 = 1

// RunRank executes the Voronoi-cell traversal on one rank (call inside
// Comm.Run alongside the other ranks) and returns the rank's traversal work
// counters. sl is the rank's own StateSlab, built over its shard and reset
// by the caller between queries: each rank reads and writes only the
// entries of vertices it owns, and remote entries are reached exclusively
// through mailbox relaxation messages. bsp runs the flood in
// bulk-synchronous supersteps instead of asynchronously — the §IV
// async-vs-BSP ablation.
//
// Adjacency comes from the rank's local shard (graph.Shard.RowArcs), never
// the global CSR: the communicator must have shards attached
// (Comm.AttachShards or Comm.EnsureShards) before Run.
//
// Rows hold tentative labels (HavoqGT's pre_visit/visit split): a row is
// written when an offer for it is made — by the scan for a target the rank
// owns, by Admit for an offer from another rank — and a queue entry exists
// only for a strict (dist, seed) improvement, so each label of a vertex is
// queued at most once and the queue holds O(improvements), not O(arcs).
// Under the priority queue of an asynchronous flood the entry is the pair
// (dist, row) and nothing else (Rank.PushRow, or Admit's Rank.Queue for the
// row): a better label takes over its row's queued entry, so the queue holds
// at most one entry per row, and Expand reads the label to expand from the
// row when the entry pops.
// Invariant: the label a row entry pops with is the one it was last queued
// for. Every push of a row entry follows a strict (dist, seed) improvement of
// that row and carries its new dist as the key; rows only improve, and every
// improvement re-queues the row, so an entry can never pop with a label it
// was not queued for.
//
// Under BSP every entry keeps its message: a label a rank installs reaches
// the next superstep through the rank's own mailbox (labelInstalled), a row
// may improve again while its entry waits, so an entry keeps the label it
// was queued with and Visit expands it only while the row still holds it.
// The FIFO queue, which holds an entry per improvement, keeps the messages
// and that stale check too. The scan reads each arc's target already
// resolved (graph.Shard.RowArcs): an owned row, or the ghost row holding
// the best offer this rank has sent that remote vertex so far; an arc's
// target VID is derived only for the offers that are sent. The fixed point is
// Sequential's: every comparison is the same strict offerBetter, and the
// label a row converges to is expanded exactly once, so every neighbour
// receives the same final offers.
func RunRank(r *rt.Rank, sl *StateSlab, seeds []graph.VID, bsp bool) rt.TraversalStats {
	sh := r.Shard()
	if sh == nil || sl.rank != r.ID() || sh.NumGhosts() != len(sl.ghost) {
		panic("voronoi: the StateSlab was not built from the rank's shard (NewStateSlab, BuildSlabs)")
	}
	send := sl.offerSender(r)
	// installed queues the expansion of a label just written into owned row
	// i: the row itself where the queue holds rows, a labelInstalled message
	// without an owner lookup everywhere else.
	installed := func(r *rt.Rank, i int32, from, seed graph.VID, dist graph.Dist) {
		if !r.PushRow(uint64(dist), i) {
			r.SendLocal(rt.Msg{Target: sl.rows.VertexAt(int(i)), From: from, Seed: seed, Dist: dist, Kind: labelInstalled})
		}
	}
	// expand offers owned row i's label (seed, dist) plus w to every arc of
	// its vertex v. An owned target is relaxed on the spot; a
	// predecessor-only win is installed and queues nothing, because the
	// entry for that (dist, seed) is already queued or expanded and no
	// neighbour's offer depends on pred.
	expand := func(r *rt.Rank, i int32) {
		v, seed, dist := sl.rows.VertexAt(int(i)), sl.owned[i].src, sl.owned[i].dist
		ws, refs := sh.RowArcs(i)
		for j, ref := range refs {
			d := dist + graph.Dist(ws[j])
			switch {
			case ref < 0 && sl.ghostBeats(^ref, d):
				// Most cross-rank offers lose to one already sent, on dist
				// alone: offerSender would suppress them after a call.
				r.Suppress()
			case ref < 0:
				send(r, ref, v, seed, d)
			case sl.beats(ref, d):
				// Most offers lose on dist alone, decided without a call.
			case sl.relax(ref, seed, v, d):
				installed(r, ref, v, seed, d)
			}
		}
	}
	return r.Traverse(&rt.Traversal{
		Ordered: true,
		BSP:     bsp,
		Init: func(r *rt.Rank) {
			for _, s := range seeds {
				if i := sl.rows.Row(s); i >= 0 && sl.relax(i, s, s, 0) {
					installed(r, i, s, s, 0)
				}
			}
		},
		Admit: func(r *rt.Rank, batch []rt.Msg) {
			done := 0
			for _, m := range batch {
				i := sl.row(m.Target)
				switch {
				case m.Kind == labelInstalled && sl.holds(i, m.Seed, m.Dist):
					// Under BSP, a superstep late: the row's entry while the
					// row still holds its label...
					r.Queue(m, i)
				case m.Kind == labelInstalled:
					// ...an ordinary entry that Visit finds stale otherwise.
					r.Queue(m, -1)
				case sl.relax(i, m.Seed, m.From, m.Dist):
					r.Queue(m, i)
				default:
					done++ // the row already beats the offer
				}
			}
			r.Finished(done)
		},
		Expand: expand,
		Visit: func(r *rt.Rank, m rt.Msg) {
			if i := sl.row(m.Target); sl.holds(i, m.Seed, m.Dist) {
				expand(r, i)
			} // else superseded while queued; the better label has its own entry
		},
	})
}

// offerSender returns the function a cross-rank relaxation offer goes
// through unless the scan's dist-only test (ghostBeats) already dropped it:
// ref is the ghost slot of a target owned elsewhere (an owned target never
// gets here; the scan relaxes it on the spot), and the target's VID
// (graph.Shard.Target) is only built for an offer that becomes a message.
// It runs on the rank goroutine only.
//
//   - If the ghost row already beats the offer, it is dropped, counted in
//     Stats.Suppressed. The ghost row holds the best offer this rank has
//     itself sent to u (offerGhost); the owner's row is the minimum of what
//     it received, so it is at least that good, and rows only improve: an
//     offer the ghost row beats is beaten for good.
//   - Anything else is sent to its owner, and folded there by Admit with
//     the rest of its batch.
//
// Every comparison is strict — an offer tying on (dist, src) with a smaller
// predecessor still goes out, as it is installed when the target is owned —
// which keeps the converged rows byte-identical to what unconditional sends
// would reach (pinned against Sequential by the equivalence property tests).
func (sl *StateSlab) offerSender(r *rt.Rank) func(r *rt.Rank, ref int32, from, seed graph.VID, dist graph.Dist) {
	sh := r.Shard()
	return func(r *rt.Rank, ref int32, from, seed graph.VID, dist graph.Dist) {
		if !sl.offerGhost(^ref, seed, from, dist) {
			r.Suppress()
			return
		}
		r.Send(rt.Msg{Target: sh.Target(ref), From: from, Seed: seed, Dist: dist})
	}
}

// Compute runs the Voronoi-cell phase standalone over the given
// communicator and returns the converged state collected into the
// shared-form view (convenience for tests, Table I and examples; the
// Steiner solver calls RunRank inside its own SPMD body). Shards are built
// from g on first use if the communicator has none attached; every call
// builds fresh state slabs over them, so repeated Computes on one Comm
// answer independently.
func Compute(c *rt.Comm, g *graph.Graph, seeds []graph.VID) *State {
	c.EnsureShards(g)
	slabs := shardSlabs(c.Partition(), c.Shards())
	lo, _ := c.HostRange()
	c.Run(func(r *rt.Rank) {
		RunRank(r, slabs[r.ID()-lo], seeds, false)
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
