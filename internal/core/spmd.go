package core

import (
	"fmt"
	"sort"

	"dsteiner/internal/faultpoint"
	"dsteiner/internal/graph"
	"dsteiner/internal/mst"
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
	// (seedIdx maps them back to dense indices), the query mode, the
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
	dedup, seedIdx := env.dedup, env.seedIdx
	res := env.res
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
	localEN := env.localENs[r.ID()]
	// record folds arc {u, v} — u in su's cell at distance du, v in sv's at
	// dv, weight w — into the table if it bridges two cells.
	record := func(u, v graph.VID, su, sv graph.VID, du, dv graph.Dist, w uint32) {
		if su == graph.NilVID || sv == graph.NilVID || su == sv {
			return
		}
		// Forest mode: a candidate joining cells of two different groups
		// can never appear in any group's tree, so it is excluded here —
		// the merged distance graph then holds intra-group edges only.
		if env.groupOf != nil && env.groupOf[seedIdx[su]] != env.groupOf[seedIdx[sv]] {
			return
		}
		foldCross(localEN, seedKey(su, sv), crossEdge{D: du + graph.Dist(w) + dv, U: u, V: v})
	}
	faultpoint.Hit("solve.phase2")
	rec.phase(r, PhaseLocalMinEdge, func() int64 {
		return haloPhase2(r, sl, env.bsp, record)
	})

	// Phase 3: global min-distance edges. The fragment merge routes each
	// record to the rank owning the pair's lower seed (a prize query's to
	// rank 0, which plans it), leaving a disjoint table shard per rank.
	var owned map[int64]crossEdge
	fs := &fragStats{}
	ok := true
	faultpoint.Hit("solve.phase3")
	rec.phase(r, PhaseGlobalMinEdge, func() int64 {
		owned, ok = env.fragmentRoute(r, localEN, fs)
		return 0
	})
	if !ok {
		return // cross-table decode failure: all ranks bail together
	}

	// Phase 4: MST of the distance graph G'₁ (Alg. 3 line 17): distributed
	// Borůvka rounds over the sharded table. seedIdx is shared read-only
	// (built before the SPMD body).
	pruned := env.pruneds[r.ID()]
	faultpoint.Hit("solve.phase4")
	rec.phase(r, PhaseMST, func() int64 {
		ok = env.fragmentMST(r, owned, pruned, fs)
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
	// is a sorted copy, so reuse cannot leak across queries).
	localTree := env.trees[r.ID()]
	faultpoint.Hit("solve.phase6")
	rec.phase(r, PhaseTreeEdge, func() int64 {
		ts := r.Traverse(&rt.Traversal{
			BSP: env.bsp,
			Init: func(r *rt.Rank) {
				for _, ce := range pruned {
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
	env.trees[r.ID()] = localTree // keep the grown capacity pooled

	// Gather the final tree: every other rank's piece travels as one encoded
	// blob addressed to rank 0, the only reader, which sorts and publishes.
	var out []rt.Blob
	if r.ID() != 0 && len(localTree) > 0 {
		out = append(out, rt.Blob{Src: r.ID(), Dest: 0, Blob: wire.EncodeEdges(nil, localTree)})
	}
	parts := rt.Exchange(r, out)
	if r.ID() != 0 {
		return
	}
	tree := append([]graph.Edge(nil), localTree...)
	for _, fb := range parts {
		var err error
		if tree, err = wire.DecodeEdges(fb.Blob, tree); err != nil {
			env.err = fmt.Errorf("core: tree gather from rank %d: %w", fb.Src, err)
			return
		}
	}
	sort.Slice(tree, func(i, j int) bool {
		if tree[i].U != tree[j].U {
			return tree[i].U < tree[j].U
		}
		return tree[i].V < tree[j].V
	})
	res.Tree = tree
	res.TotalDistance = graph.TotalWeight(tree)
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
				us, _, refs := sh.RowArcs(i)
				for j, u := range us {
					if u >= v {
						break
					}
					if refs[j] >= 0 {
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
		vs, ws, refs := sh.RowArcs(i)
		for j := len(vs) - 1; j >= 0 && vs[j] > u; j-- {
			sv, dv := sl.Label(refs[j])
			record(u, vs[j], su, sv, du, dv, ws[j])
		}
	}
	return ts.Processed
}

// forestDisconnectedErr names the first forest group whose terminals the
// group-filtered distance graph cannot connect.
func forestDisconnectedErr(groupOf []int32, numGroups, nT int, edges []mst.WEdge) error {
	uf := make([]int32, nT)
	for i := range uf {
		uf[i] = int32(i)
	}
	find := func(x int32) int32 {
		for uf[x] != x {
			uf[x] = uf[uf[x]]
			x = uf[x]
		}
		return x
	}
	for _, e := range edges {
		if ru, rv := find(e.U), find(e.V); ru != rv {
			uf[ru] = rv
		}
	}
	comps := make([]int, numGroups)
	seen := make(map[int32]bool, nT)
	for i := 0; i < nT; i++ {
		r := find(int32(i))
		if !seen[r] {
			seen[r] = true
			comps[groupOf[i]]++
		}
	}
	for gi, c := range comps {
		if c > 1 {
			return fmt.Errorf("core: forest group %d spans %d connected components; each group must be connected",
				gi, c)
		}
	}
	return fmt.Errorf("core: forest groups are not all connected")
}
