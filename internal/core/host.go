package core

import (
	"dsteiner/internal/graph"
	rt "dsteiner/internal/runtime"
)

// rankHost is the part of a solve that does not depend on where the ranks
// live: the communicator over the hosted rank range, the pooled per-rank
// scratch the SPMD body indexes by GLOBAL rank id (only the hosted entries
// are populated), its per-query reset and the run itself. An in-process
// Engine holds one for ranks [0, P); a rankd worker holds one for its
// [lo, hi) beside its transport. Everything global flows through
// collectives, so the body cannot tell the two apart.
type rankHost struct {
	comm *rt.Comm
	bsp  bool // traversals run bulk-synchronous (Options.BSP)

	// Pooled per-query scratch, reset in O(query) by run.
	localENs []map[int64]crossEdge // per-rank E_N tables
	pruneds  []map[int64]crossEdge // per-rank phase-5 survivors
	trees    [][]graph.Edge        // per-rank phase-6 edge accumulators
	owneds   []map[int64]crossEdge // per-rank fragment-merge table shards
	frags    [][]int32             // per-rank fragment-label arrays
	seedIdx  map[graph.VID]int32   // seed -> dense index, rebuilt per query
}

// newRankHost pools the scratch for comm's hosted ranks.
func newRankHost(comm *rt.Comm, bsp bool) *rankHost {
	p := comm.NumRanks()
	h := &rankHost{
		comm:     comm,
		bsp:      bsp,
		localENs: make([]map[int64]crossEdge, p),
		pruneds:  make([]map[int64]crossEdge, p),
		trees:    make([][]graph.Edge, p),
		owneds:   make([]map[int64]crossEdge, p),
		frags:    make([][]int32, p),
		seedIdx:  make(map[graph.VID]int32),
	}
	lo, hi := comm.HostRange()
	for rank := lo; rank < hi; rank++ {
		h.localENs[rank] = map[int64]crossEdge{}
		h.pruneds[rank] = map[int64]crossEdge{}
		h.owneds[rank] = map[int64]crossEdge{}
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
	h.comm.ResetStateSlabs() // O(P) epoch bumps, one per rank slab
	lo, hi := h.comm.HostRange()
	for rank := lo; rank < hi; rank++ {
		clear(h.localENs[rank])
		clear(h.pruneds[rank])
		clear(h.owneds[rank])
		h.trees[rank] = h.trees[rank][:0]
	}
	clear(h.seedIdx)
	for i, s := range cq.dedup {
		h.seedIdx[s] = int32(i)
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
		lens = append(lens, int64(len(h.localENs[rank])))
	}
	return lens
}
