package core

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"

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
	ok := true
	faultpoint.Hit("solve.phase2")
	rec.phase(r, PhaseLocalMinEdge, func() (received int64) {
		received, ok = env.haloPhase2(r, sl)
		return received
	})
	if !ok {
		return // corrupt halo blob: all ranks bail together
	}

	// Phase 3: global min-distance edges. The fragment merge routes each
	// record to the rank owning the pair's lower seed (a prize query's to
	// rank 0, which plans it), leaving a disjoint table shard per rank.
	var owned []crossRec
	fs := &fragStats{}
	faultpoint.Hit("solve.phase3")
	rec.phase(r, PhaseGlobalMinEdge, func() int64 {
		owned, ok = env.fragmentRoute(r, sc.localEN.recs, fs)
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

// haloPlan is one rank's phase-2 halo, planned once per session: Alg. 5
// needs both labels of an edge {u, v}, u < v, at u's owner, a lower rank.
// send[q] lists the owned rows peer q needs, recv[q] the ghost slots of q's
// vertices above the owned range, ascending: every ghost slot is the target
// of an owned row's arc and adjacency is symmetric, so both name the same
// vertices in the same order and a label lands by position.
type haloPlan struct {
	send, recv [][]int32
	high       int32    // the first ghost slot above the owned range
	out        [][]byte // send's blobs, reused across queries
}

// newHaloPlan plans sh's halo under the partition's owner map.
func newHaloPlan(sh *graph.Shard, owner func(graph.VID) int) haloPlan {
	p := haloPlan{send: make([][]int32, sh.NumRanks()), recv: make([][]int32, sh.NumRanks()), out: make([][]byte, sh.NumRanks())}
	lo := sh.Rows().VertexAt(0)
	p.high = int32(sort.Search(sh.NumGhosts(), func(g int) bool { return sh.Target(^int32(g)) >= lo }))
	for i := int32(0); int(i) < sh.NumOwned(); i++ {
		_, refs := sh.RowArcs(i)
		for _, ref := range refs {
			if ref >= 0 || ^ref >= p.high {
				continue
			}
			if q := owner(sh.Target(ref)); len(p.send[q]) == 0 || p.send[q][len(p.send[q])-1] != i {
				p.send[q] = append(p.send[q], i)
			}
		}
	}
	for g := p.high; int(g) < sh.NumGhosts(); g++ {
		q := owner(sh.Target(^g))
		p.recv[q] = append(p.recv[q], g)
	}
	return p
}

// haloRecord is a label's size in a halo blob: src then dist, little-endian.
const haloRecord = 12

// haloPhase2 is phase 2: one Exchange moves the halo under async and BSP
// alike (an unreached row as src NilVID), then a local scan of the u < v
// arcs records the candidates. It returns the labels received, and false
// once all ranks agree a blob was corrupt (rank 0 records env.err).
func (env *solveEnv) haloPhase2(r *rt.Rank, sl *voronoi.StateSlab) (received int64, ok bool) {
	sc := env.pools[r.ID()]
	p, localEN := &sc.halo, &sc.localEN
	localEN.reset()
	var out []rt.Blob
	var pushed int64
	for q, rows := range p.send {
		if len(rows) == 0 {
			continue
		}
		b := p.out[q][:0]
		for _, i := range rows {
			src, dist := sl.Label(i)
			b = binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint32(b, uint32(src)), uint64(dist))
		}
		p.out[q] = b
		out = append(out, rt.Blob{Src: r.ID(), Dest: q, Blob: b})
		pushed += int64(len(rows))
	}
	sl.BeginHalo()
	var failed int64
	for _, fb := range rt.Exchange(r, out) {
		received += int64(len(fb.Blob) / haloRecord)
		if err := env.readHalo(sl, p.recv, fb); err != nil && failed == 0 {
			failed = int64(r.ID()) + 1
		}
	}
	r.CountExchanged(pushed, received)
	if bad := r.AllreduceMaxInt64(failed); bad > 0 {
		if r.ID() == 0 {
			env.err = fmt.Errorf("core: phase-2 halo exchange: corrupt blob at rank %d", bad-1)
		}
		return received, false
	}
	// A row's arcs ascend by target: [lower ghosts | owned | higher ghosts],
	// so the arcs to a v > u are a suffix. Only a cross-cell one needs v.
	sh := r.Shard()
	for i := int32(0); int(i) < sh.NumOwned(); i++ {
		su, du := sl.Label(i)
		if su == graph.NilVID {
			continue
		}
		ws, refs := sh.RowArcs(i)
		for j := len(refs) - 1; j >= 0; j-- {
			ref := refs[j]
			if ref >= 0 && ref <= i || ref < 0 && ^ref < p.high {
				break
			}
			sv, dv := sl.Label(ref)
			// Forest mode: a candidate joining cells of two different
			// groups can never appear in any group's tree, so the merged
			// distance graph holds intra-group edges only.
			if sv == su || sv == graph.NilVID || env.groupOf != nil && env.groupOf[env.seedIndex(su)] != env.groupOf[env.seedIndex(sv)] {
				continue
			}
			localEN.fold(crossRec{key: seedKey(su, sv),
				crossEdge: crossEdge{D: du + graph.Dist(ws[j]) + dv, U: sh.Rows().VertexAt(int(i)), V: sh.Target(ref)}})
		}
	}
	return received, true
}

// readHalo writes fb, one peer's halo blob, into this rank's ghost slots by
// position. It refuses a sender with no slots here, a length other than its
// slots', and a label whose seed is no terminal (the forest check indexes
// by it) or whose distance is negative. An unreached label writes nothing.
func (env *solveEnv) readHalo(sl *voronoi.StateSlab, recv [][]int32, fb rt.Blob) error {
	if fb.Src < 0 || fb.Src >= len(recv) || len(recv[fb.Src]) == 0 || len(fb.Blob) != haloRecord*len(recv[fb.Src]) {
		return fmt.Errorf("%w: %d-byte halo blob from rank %d", wire.ErrCorrupt, len(fb.Blob), fb.Src)
	}
	for k, g := range recv[fb.Src] {
		b := fb.Blob[haloRecord*k:]
		src, dist := graph.VID(int32(binary.LittleEndian.Uint32(b))), graph.Dist(binary.LittleEndian.Uint64(b[4:]))
		if src == graph.NilVID {
			continue
		}
		if env.seedIndex(src) < 0 || dist < 0 {
			return fmt.Errorf("%w: halo label (%d, %d) from rank %d", wire.ErrCorrupt, src, dist, fb.Src)
		}
		sl.SetGhost(g, src, dist)
	}
	return nil
}
