package core

import (
	"fmt"
	"slices"

	"dsteiner/internal/faultpoint"
	"dsteiner/internal/graph"
	rt "dsteiner/internal/runtime"
	"dsteiner/internal/voronoi"
	"dsteiner/internal/wire"
)

// solveEnv is one query's per-process environment for the six-phase SPMD
// solve body: the rankHost it runs on (communicator and the pooled per-rank
// scratch, indexed by GLOBAL rank id) plus the query. The body is one
// function wherever the ranks live — every rank of an in-process Engine, or
// the hosted subset of a rankd worker, which holds only its shards, slabs and
// scratch — because everything global flows through collectives.
type solveEnv struct {
	*rankHost

	// Per-query inputs, identical on every process: the sorted terminals
	// (seedIndex maps them back to dense indices), the query mode, the
	// dense-terminal→group map and group count (forest; nil/0 otherwise) and
	// the dense-terminal penalties (prize; nil otherwise).
	dedup     []graph.VID
	mode      Mode
	groupOf   []int32
	numGroups int
	penalty   []graph.Dist

	// res is written by global rank 0 between barriers; only the process
	// hosting rank 0 publishes it. err is rank 0's solve error.
	res *Result
	err error
}

// rankBody runs the six solver phases on one rank. It must be invoked
// SPMD on every rank of the communicator — local or remote — with an
// identically-initialized env.
func (env *solveEnv) rankBody(r *rt.Rank) {
	dedup, res := env.dedup, env.res
	rec := &recorder{comm: env.comm, res: res}
	rec.lo, _ = env.comm.HostRange()

	// This rank's CSR slab holds its adjacency (Rank.EdgeWeight: weights are
	// symmetric, so {u, v} looked up from owned u's row is the edge's
	// weight) and its StateSlab the control state of the vertices it owns —
	// remote state is reached via the mailbox, never direct reads.
	sl := voronoi.SlabOf(r)

	// Phase 1: Voronoi cells (Alg. 4).
	faultpoint.Hit("solve.phase1")
	rec.phase(r, PhaseVoronoi, func() int64 {
		if env.bsp {
			return voronoi.RunRankBSP(r, dedup).Processed
		}
		return voronoi.RunRank(r, dedup).Processed
	})

	// Phase 2: local min-distance cross-cell edges (Alg. 5,
	// LOCAL_MIN_DIST_EDGE_ASYNC). The owner of each edge's lower endpoint u
	// records the candidate, so it needs the label of v = the higher one.
	sc := env.pools[r.ID()]
	localEN := &sc.localEN
	localEN.reset()
	// record folds arc {u, v} — u in su's cell at distance du, v in sv's at
	// dv, weight w — into the table if it bridges two cells.
	record := func(u, v graph.VID, su, sv graph.VID, du, dv graph.Dist, w uint32) {
		if su == graph.NilVID || sv == graph.NilVID || su == sv {
			return
		}
		// Forest mode: a candidate joining cells of two different groups
		// can never appear in any group's tree, so it is excluded here —
		// the merged distance graph then holds intra-group edges only.
		if env.groupOf != nil && env.groupOf[env.seedIndex(su)] != env.groupOf[env.seedIndex(sv)] {
			return
		}
		localEN.fold(crossRec{key: seedKey(su, sv), crossEdge: crossEdge{D: du + graph.Dist(w) + dv, U: u, V: v}})
	}
	faultpoint.Hit("solve.phase2")
	rec.phase(r, PhaseLocalMinEdge, func() int64 {
		return haloPhase2(r, sl, env.bsp, record)
	})

	// Phase 3: global min-distance edges. The fragment merge routes each
	// record to the rank owning the pair's lower seed (a prize query's to
	// rank 0, which plans it), leaving a disjoint table shard per rank.
	var owned []crossRec
	fs := &fragStats{}
	ok := true
	faultpoint.Hit("solve.phase3")
	rec.phase(r, PhaseGlobalMinEdge, func() int64 {
		owned, ok = env.fragmentRoute(r, localEN.recs, fs)
		return 0
	})
	if !ok {
		return // cross-table decode failure: all ranks bail together
	}

	// Phase 4: MST of the distance graph G'₁ (Alg. 3 line 17): distributed
	// Borůvka rounds over the sharded table.
	faultpoint.Hit("solve.phase4")
	rec.phase(r, PhaseMST, func() int64 {
		ok = env.fragmentMST(r, owned, fs)
		return 0
	})
	if !ok {
		return // disconnected terminals or corrupt round: all ranks bail together
	}

	// Phase 5: global edge pruning (Alg. 5, EDGE_PRUNING_COLL). The
	// fragment merge accumulated its winners into pruned during the Borůvka
	// rounds, so nothing is left to drop; the phase stays recorded so every
	// Result carries all six.
	faultpoint.Hit("solve.phase5")
	rec.phase(r, PhasePruning, func() int64 { return 0 })

	// Phase 6: Steiner tree edges (Alg. 6) — walk predecessor
	// chains from surviving cross-cell endpoints to cell seeds.
	// The walked marks are epoch-versioned like the Voronoi state,
	// so no O(|V|) bitmap is re-zeroed between queries, and the
	// per-rank accumulator keeps its capacity (the published tree
	// is a merged copy, so reuse cannot leak across queries).
	localTree := sc.tree[:0]
	faultpoint.Hit("solve.phase6")
	rec.phase(r, PhaseTreeEdge, func() int64 {
		ts := r.Traverse(&rt.Traversal{
			BSP: env.bsp,
			Init: func(r *rt.Rank) {
				for _, ce := range sc.pruned {
					if !r.Owns(ce.U) {
						continue // u's home partition records the edge
					}
					w, _ := r.EdgeWeight(ce.U, ce.V)
					localTree = append(localTree, graph.Edge{U: ce.U, V: ce.V, W: w}.Canon())
					r.Send(rt.Msg{Target: ce.U})
					r.Send(rt.Msg{Target: ce.V})
				}
			},
			Visit: func(r *rt.Rank, m rt.Msg) {
				vj := m.Target
				if !sl.MarkWalked(vj) {
					return
				}
				if vj == sl.Src(vj) {
					return
				}
				p := sl.Pred(vj)
				// vj is owned here; its predecessor may not be, so the
				// lookup goes through vj's slab row (weights are
				// symmetric).
				w, _ := r.EdgeWeight(vj, p)
				localTree = append(localTree, graph.Edge{U: p, V: vj, W: w}.Canon())
				r.Send(rt.Msg{Target: p})
			},
		})
		return ts.Processed
	})
	sc.tree = localTree // keep the grown capacity pooled

	// Gather the final tree: every rank sorts its own piece, the others send
	// theirs as one encoded blob addressed to rank 0, the only reader, which
	// merges the sorted runs and publishes.
	slices.SortFunc(localTree, graph.CompareEdges)
	var out []rt.Blob
	if r.ID() != 0 && len(localTree) > 0 {
		out = append(out, rt.Blob{Src: r.ID(), Dest: 0, Blob: wire.EncodeEdges(make([]byte, 0, 8*len(localTree)), localTree)})
	}
	parts := rt.Exchange(r, out)
	if r.ID() != 0 {
		return
	}
	runs, buf := [][]graph.Edge{localTree}, localTree
	for _, fb := range parts {
		var err error
		start := len(buf)
		if buf, err = wire.DecodeEdges(fb.Blob, buf); err != nil {
			env.err = fmt.Errorf("core: tree gather from rank %d: %w", fb.Src, err)
			return
		}
		runs = append(runs, buf[start:])
	}
	sc.tree = buf
	res.Tree = mergeRuns(runs, len(buf))
	res.TotalDistance = graph.TotalWeight(res.Tree)
}

// mergeRuns merges (U, V)-sorted edge runs, n edges in all, into one fresh
// sorted slice, nil when empty. Runs are few (one per rank), so each step
// scans their heads.
func mergeRuns(runs [][]graph.Edge, n int) []graph.Edge {
	var out []graph.Edge
	if n > 0 {
		out = make([]graph.Edge, 0, n)
	}
	for len(out) < n {
		next := -1
		for i, run := range runs {
			if len(run) > 0 && (next < 0 || graph.CompareEdges(run[0], runs[next][0]) < 0) {
				next = i
			}
		}
		out = append(out, runs[next][0])
		runs[next] = runs[next][1:]
	}
	return out
}

// haloPhase2 is phase 2 on rank-local state: one halo push, then a local
// scan. Each rank sends the final (src, dist) of every reached vertex v it
// owns once to each peer that owns a neighbour u < v — the peers that hold v
// as a ghost and initiate one of its arcs — and the receiver stores it in
// v's ghost row. After quiescence every label a rank's u < v arcs need is in
// an owned row or a ghost row, and the weight is on the arc itself, so the
// candidates are found without another message or an edge lookup: O(boundary
// vertices) messages instead of two per boundary arc.
func haloPhase2(r *rt.Rank, sl *voronoi.StateSlab, bsp bool,
	record func(u, v, su, sv graph.VID, du, dv graph.Dist, w uint32)) int64 {
	sh := r.Shard()
	rows := sh.Rows()
	sl.BeginHalo()
	ts := r.Traverse(&rt.Traversal{
		BSP: bsp,
		Init: func(r *rt.Rank) {
			// pushed[q] == v+1 once v went to peer q. Rows are sorted by
			// target, so the neighbours below v are a prefix.
			pushed := make([]graph.VID, r.NumRanks())
			for i := int32(0); int(i) < rows.Len(); i++ {
				sv, dv := sl.Label(i)
				if sv == graph.NilVID {
					continue
				}
				v := rows.VertexAt(int(i))
				_, refs := sh.RowArcs(i)
				for _, ref := range refs {
					u := sh.Target(ref)
					if u >= v {
						break
					}
					if ref >= 0 {
						continue
					}
					if q := r.Owner(u); pushed[q] != v+1 {
						pushed[q] = v + 1
						r.SendTo(q, rt.Msg{Target: v, From: v, Seed: sv, Dist: dv})
					}
				}
			}
		},
		Visit: func(r *rt.Rank, m rt.Msg) {
			sl.SetGhost(sh.Ref(m.Target), m.Seed, m.Dist)
		},
	})
	for i := int32(0); int(i) < rows.Len(); i++ {
		su, du := sl.Label(i)
		if su == graph.NilVID {
			continue
		}
		u := rows.VertexAt(int(i))
		ws, refs := sh.RowArcs(i)
		for j := len(refs) - 1; j >= 0; j-- {
			v := sh.Target(refs[j])
			if v <= u {
				break
			}
			sv, dv := sl.Label(refs[j])
			record(u, v, su, sv, du, dv, ws[j])
		}
	}
	return ts.Processed
}
