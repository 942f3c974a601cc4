package core

import (
	"dsteiner/internal/graph"
	rt "dsteiner/internal/runtime"
	"dsteiner/internal/voronoi"
)

// rankHost is the part of a solve that does not depend on where the ranks
// live: the communicator over the hosted rank range, the pooled per-rank
// state the SPMD body indexes by GLOBAL rank id (only the hosted entries
// are populated), its per-query reset and the run itself. An in-process
// Engine holds one for ranks [0, P); a rankd worker holds one for its
// [lo, hi) beside its transport. Everything global flows through
// collectives, so the body cannot tell the two apart. The communicator
// carries each rank's shard and mailbox; the per-vertex control state
// (voronoi.StateSlab) lives here, one slab per hosted rank's pool.
type rankHost struct {
	comm  *rt.Comm
	bsp   bool        // traversals run bulk-synchronous (Options.BSP)
	pools []*rankPool // per-rank pooled state, by GLOBAL rank id
	seeds slotTable   // the query's terminal -> dense index, shared read-only
}

// rankPool is one rank's pooled per-query state. Each phase resets what it
// uses in O(1) or O(k) and every field keeps its capacity between queries.
type rankPool struct {
	slab         *voronoi.StateSlab // the rank's Voronoi control state, reset per query
	localEN      pairTable          // phase 2's E_N table
	owned        pairTable          // phase 3's routed table shard, sorted by phase 4
	crossScratch []crossRec         // phase 4's radix-sort buffer
	pruned       []crossRec         // phase 4's chosen edges, the same set on every rank
	labels       []int32            // phase 4's label-indexed frag/best/winner arrays
	props        []fragProposal     // phase 4's own proposals of one round
	all          []fragProposal     // phase 4's proposals of every rank in one round
	tree         []graph.Edge       // phase 6's edges; rank 0 appends the others' runs
	treeScratch  []graph.Edge       // phase 6's radix-sort buffer
	halo         haloPlan           // phase 2's static halo, planned at session start
}

// newRankHost pools the state for comm's hosted ranks: slabs[i] is hosted
// rank lo+i's control state, built over the shard attached for it, from
// which its halo is planned.
func newRankHost(comm *rt.Comm, bsp bool, slabs []*voronoi.StateSlab) *rankHost {
	h := &rankHost{comm: comm, bsp: bsp, pools: make([]*rankPool, comm.NumRanks())}
	lo, _ := comm.HostRange()
	shards := comm.Shards()
	for i, sl := range slabs {
		h.pools[lo+i] = &rankPool{slab: sl, halo: newHaloPlan(shards[i], comm.Partition().Owner)}
	}
	return h
}

// run answers one canonical query on the hosted ranks: reset the pooled
// state, run the SPMD body, and return rank 0's Result — solver output is
// filled only on the process hosting rank 0 — with Stats set to this
// process's share of the query's runtime counters. The error is rank 0's
// solve error (disconnected terminals, a corrupt exchange); a rank panic
// unwinds through here.
func (h *rankHost) run(cq canonQuery) (*Result, error) {
	lo, hi := h.comm.HostRange()
	for rank := lo; rank < hi; rank++ {
		h.pools[rank].slab.Reset() // an O(1) epoch bump
	}
	h.seeds.reset()
	for i, s := range cq.dedup {
		h.seeds.put(int64(s), int32(i))
	}
	env := &solveEnv{
		rankHost:  h,
		dedup:     cq.dedup,
		mode:      cq.spec.Mode,
		groupOf:   cq.groupOf,
		numGroups: len(cq.spec.Groups),
		penalty:   cq.penalty,
		res:       &Result{Seeds: cq.dedup, Mode: cq.spec.Mode},
	}
	s0 := h.comm.Stats()
	h.comm.Run(env.rankBody)
	env.res.Stats = h.comm.Stats().Sub(s0)
	return env.res, env.err
}

// tableLens reports the hosted ranks' E_N table sizes, in rank order, for
// the Fig. 8 memory accounting.
func (h *rankHost) tableLens() []int64 {
	lo, hi := h.comm.HostRange()
	lens := make([]int64, 0, hi-lo)
	for rank := lo; rank < hi; rank++ {
		lens = append(lens, int64(len(h.pools[rank].localEN.recs)))
	}
	return lens
}
