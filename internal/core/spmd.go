package core

import (
	"encoding/binary"
	"fmt"
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

	// res is written by global rank 0 alone; only the process hosting
	// rank 0 publishes it. err is rank 0's solve error.
	res *Result
	err error
}

// rankBody runs the six solver phases on one rank. It must be invoked
// SPMD on every rank of the communicator — local or remote — with an
// identically-initialized env. Only data moves synchronize the ranks: each
// rank records its own phases (recorder), and the tree gather that ends
// the solve carries those records to rank 0.
func (env *solveEnv) rankBody(r *rt.Rank) {
	dedup := env.dedup
	rec := &recorder{phases: make([]PhaseStat, 0, len(PhaseNames))}

	// This rank's CSR slab holds its adjacency (Rank.EdgeWeight: weights are
	// symmetric, so {u, v} looked up from owned u's row is the edge's
	// weight) and its pooled StateSlab the control state of the vertices it
	// owns — remote state is reached via the mailbox, never direct reads.
	sl := env.pools[r.ID()].slab

	// Phase 1: Voronoi cells (Alg. 4).
	faultpoint.Hit("solve.phase1")
	rec.phase(r, PhaseVoronoi, func() PhaseStat {
		return traversed(voronoi.RunRank(r, sl, dedup, env.bsp))
	})

	// Phase 2: local min-distance cross-cell edges (Alg. 5,
	// LOCAL_MIN_DIST_EDGE_ASYNC). The owner of each edge's higher endpoint v
	// records the candidate, so it needs the label of u = the lower one:
	// labels flow from lower ranks to higher ones, which spreads the scan
	// where low-ID hubs would load the lowest rank.
	ok := true
	faultpoint.Hit("solve.phase2")
	rec.phase(r, PhaseLocalMinEdge, func() PhaseStat {
		var pushed, received int64
		pushed, received, ok = env.haloPhase2(r, sl)
		return PhaseStat{Sent: pushed, Processed: received, MaxRankWork: received}
	})
	if !ok {
		return // corrupt halo blob: all ranks bail together
	}

	// Phases 3–5: one gather, one sequential MSF on rank 0, one broadcast.
	if !env.mergeMST(r, rec) {
		return // rank 0's failure, broadcast in phase 5: all ranks bail together
	}
	env.treeEdges(r, rec)
}

// treeEdges is phase 6, Steiner tree edges (Alg. 6): walk predecessor
// chains from the chosen cross-cell edges' endpoints to cell seeds, then
// gather the tree at rank 0.
func (env *solveEnv) treeEdges(r *rt.Rank, rec *recorder) {
	sc := env.pools[r.ID()]
	sl := sc.slab
	// The walked marks are epoch-versioned like the Voronoi state,
	// so no O(|V|) bitmap is re-zeroed between queries, and the
	// per-rank accumulator keeps its capacity (the published tree
	// is a merged copy, so reuse cannot leak across queries).
	localTree := sc.tree[:0]
	// walk records v's chain while it stays on this rank, one edge a step,
	// and hands the rest to the owner of the first remote predecessor in one
	// message. A vertex walked before ends the chain: the rest of it is
	// recorded or on its way.
	walk := func(r *rt.Rank, v graph.VID) {
		for sl.MarkWalked(v) && v != sl.Src(v) {
			p := sl.Pred(v)
			// v is owned here; its predecessor may not be, so the lookup
			// goes through v's slab row (weights are symmetric).
			w, _ := r.EdgeWeight(v, p)
			localTree = append(localTree, graph.Edge{U: p, V: v, W: w}.Canon())
			if !r.Owns(p) {
				r.Send(rt.Msg{Target: p})
				return
			}
			v = p
		}
	}
	faultpoint.Hit("solve.phase6")
	rec.phase(r, PhaseTreeEdge, func() PhaseStat {
		return traversed(r.Traverse(&rt.Traversal{
			BSP: env.bsp,
			Init: func(r *rt.Rank) {
				for _, ce := range sc.pruned {
					if !r.Owns(ce.U) {
						continue // u's home partition records the edge
					}
					w, _ := r.EdgeWeight(ce.U, ce.V)
					localTree = append(localTree, graph.Edge{U: ce.U, V: ce.V, W: w}.Canon())
					walk(r, ce.U)
					if r.Owns(ce.V) {
						walk(r, ce.V)
					} else {
						r.Send(rt.Msg{Target: ce.V})
					}
				}
			},
			Visit: func(r *rt.Rank, m rt.Msg) { walk(r, m.Target) },
		}))
	})
	sc.tree = localTree // keep the grown capacity pooled
	env.gatherTree(r, rec, localTree)
}

// gatherTree ends the solve: every rank radix-sorts its own piece of the
// tree into CompareEdges' (U, V) order, and the others send rank 0, the only
// reader, one blob each: their recorder's account, then their piece.
// Rank 0 folds the accounts into its own, merges the sorted runs and
// publishes both.
func (env *solveEnv) gatherTree(r *rt.Rank, rec *recorder, localTree []graph.Edge) {
	sc, res := env.pools[r.ID()], env.res
	graph.SortByKey(localTree, &sc.treeScratch, func(e graph.Edge) uint64 { return uint64(e.U)<<32 | uint64(e.V) })
	var out []rt.Blob
	if r.ID() != 0 {
		blob := rec.appendTo(make([]byte, 0, 8*len(localTree)+64))
		out = append(out, rt.Blob{Src: r.ID(), Dest: 0, Blob: wire.EncodeEdges(blob, localTree)})
	}
	parts := rt.Exchange(r, out)
	if r.ID() != 0 {
		return
	}
	runs, buf := [][]graph.Edge{localTree}, localTree
	for _, fb := range parts {
		d := wire.NewDec(fb.Blob)
		err := rec.fold(d)
		start := len(buf)
		if err == nil {
			buf, err = wire.DecodeEdges(fb.Blob[len(fb.Blob)-d.Len():], buf)
		}
		if err != nil {
			env.err = fmt.Errorf("core: tree gather from rank %d: %w", fb.Src, err)
			return
		}
		runs = append(runs, buf[start:])
	}
	sc.tree = buf
	res.Tree = mergeRuns(runs, len(buf))
	res.TotalDistance = graph.TotalWeight(res.Tree)
	res.Phases = rec.phases
	res.DistGraphEdges = int(rec.frag.edges)
	res.CrossTableBytes = rec.frag.bytes
	res.FragmentMsgs = rec.frag.msgs
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
// needs both labels of an edge {u, v}, u < v, at v's owner, a higher rank.
// send[q] lists the owned rows peer q needs, recv[q] the ghost slots of q's
// vertices below the owned range, ascending: every ghost slot is the target
// of an owned row's arc and adjacency is symmetric, so both name the same
// vertices in the same order and a label lands by position.
type haloPlan struct {
	send, recv [][]int32
	high       int32    // the first ghost slot above the owned range; the slots below it receive
	out        [][]byte // send's blobs, reused across queries
}

// newHaloPlan plans sh's halo under the partition's owner map, looking up
// each ghost slot's owner once rather than once per arc to it.
func newHaloPlan(sh *graph.Shard, owner func(graph.VID) int) haloPlan {
	p := haloPlan{send: make([][]int32, sh.NumRanks()), recv: make([][]int32, sh.NumRanks()), out: make([][]byte, sh.NumRanks())}
	lo := sh.Rows().VertexAt(0)
	p.high = int32(sort.Search(sh.NumGhosts(), func(g int) bool { return sh.Target(^int32(g)) >= lo }))
	above := make([]int32, sh.NumGhosts()-int(p.high)) // the owner of ghost slot high+j
	for j := range above {
		above[j] = int32(owner(sh.Target(^(p.high + int32(j)))))
	}
	for i := int32(0); int(i) < sh.NumOwned(); i++ {
		_, refs := sh.RowArcs(i)
		for _, ref := range refs {
			if ref >= 0 || ^ref < p.high {
				continue
			}
			if q := above[^ref-p.high]; len(p.send[q]) == 0 || p.send[q][len(p.send[q])-1] != i {
				p.send[q] = append(p.send[q], i)
			}
		}
	}
	for g := int32(0); g < p.high; g++ {
		q := owner(sh.Target(^g))
		p.recv[q] = append(p.recv[q], g)
	}
	return p
}

// haloRecord is a label's size in a halo blob: src then dist, little-endian.
const haloRecord = 12

// haloPhase2 is phase 2: one Exchange moves the halo under async and BSP
// alike (an unreached row as src NilVID), then a local scan of each owned
// row v's arcs to a u < v records the candidates. It returns the labels
// labels pushed and received, and false once all ranks agree a blob was
// corrupt (rank 0 records env.err).
func (env *solveEnv) haloPhase2(r *rt.Rank, sl *voronoi.StateSlab) (pushed, received int64, ok bool) {
	sc := env.pools[r.ID()]
	p, localEN := &sc.halo, &sc.localEN
	localEN.reset()
	var out []rt.Blob
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
		return pushed, received, false
	}
	// A row's arcs ascend by target: [lower ghosts | owned | higher ghosts],
	// so the arcs to a u < v are a prefix. Only a cross-cell one needs u.
	sh := r.Shard()
	for i := int32(0); int(i) < sh.NumOwned(); i++ {
		sv, dv := sl.Label(i)
		if sv == graph.NilVID {
			continue
		}
		ws, refs := sh.RowArcs(i)
		for j, ref := range refs {
			if ref >= i || ^ref >= p.high {
				break // an owned row from v's on, or a ghost above the range
			}
			su, du := sl.Label(ref)
			// Forest mode: a candidate joining cells of two different
			// groups can never appear in any group's tree, so the merged
			// distance graph holds intra-group edges only.
			if su == sv || su == graph.NilVID || env.groupOf != nil && env.groupOf[env.seedIndex(su)] != env.groupOf[env.seedIndex(sv)] {
				continue
			}
			localEN.fold(crossRec{key: seedKey(su, sv),
				crossEdge: crossEdge{D: du + graph.Dist(ws[j]) + dv, U: sh.Target(ref), V: sh.Rows().VertexAt(int(i))}})
		}
	}
	return pushed, received, true
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
