package core

import (
	"cmp"
	"context"
	"runtime/pprof"
	"strconv"
	"time"

	"dsteiner/internal/graph"
	rt "dsteiner/internal/runtime"
)

// crossEdge is the value of the E_N table: the best background-graph edge
// (U, V) bridging a cell pair, with D = d1(s,u) + d(u,v) + d1(v,t).
type crossEdge struct {
	D    graph.Dist
	U, V graph.VID
}

// pickCross is the deterministic MIN used by the local scan and by the
// fragment routing's fold: order by (D, U, V). The paper needs a
// tie-breaking scheme to guarantee a unique cross-cell edge per cell pair
// (§III Step 2, Alg. 5's second collective); a total order gives uniqueness
// in a single reduction.
func pickCross(a, b crossEdge) crossEdge {
	if b.D != a.D {
		if b.D < a.D {
			return b
		}
		return a
	}
	if b.U != a.U {
		if b.U < a.U {
			return b
		}
		return a
	}
	if b.V < a.V {
		return b
	}
	return a
}

// crossRec is one E_N record: a cell pair's seedKey, the dense terminal
// indices of its two seeds (a < b, resolved once per pair) and its bridge.
type crossRec struct {
	key  int64
	a, b int32
	crossEdge
}

// compareCross orders records by (D, key) — the same total order as
// pickCross and mst.Kruskal's (W, U, V) sort: dense seed indices are
// monotone in seed VID (dedup is sorted), so key order equals (U, V) order.
// Under a strict total order the minimum spanning forest is unique, which is
// what makes the fragment merge's chosen edge set byte-identical to
// sequential Kruskal's.
func compareCross(x, y crossRec) int {
	if c := cmp.Compare(x.D, y.D); c != 0 {
		return c
	}
	return cmp.Compare(x.key, y.key)
}

// seedKey packs an ordered seed pair (s < t) into a table key.
func seedKey(s, t graph.VID) int64 {
	if s > t {
		s, t = t, s
	}
	return int64(s)<<32 | int64(t)
}

func unpackSeedKey(k int64) (s, t graph.VID) {
	return graph.VID(k >> 32), graph.VID(k & 0xffffffff)
}

// Solve computes a 2-approximate Steiner minimal tree of g for the given
// seed vertices. Duplicate seeds are rejected with ErrDuplicateSeed; all
// seeds must lie in one connected component (guaranteed by the
// seed-selection strategies of internal/seeds), otherwise an error is
// returned.
//
// Solve is the one-shot convenience form: it builds a throwaway Engine,
// paying the O(|V|) session setup every call. Interactive workloads that
// issue many queries against one resident graph should hold an Engine (or
// internal/steinersvc's engine pool) instead.
func Solve(g *graph.Graph, seeds []graph.VID, opts Options) (*Result, error) {
	return SolveQuery(g, TreeSpec(seeds), opts)
}

// SolveQuery is the one-shot form of Engine.SolveSpec: it answers one
// tree, forest or prize QuerySpec on a throwaway Engine. The spec is
// validated first, and a one-terminal query is answered without building
// the engine at all.
func SolveQuery(g *graph.Graph, spec QuerySpec, opts Options) (*Result, error) {
	cq, err := canonSpec(g.NumVertices(), spec, make(map[graph.VID]bool, len(spec.Seeds)))
	if err != nil {
		return nil, err
	}
	if len(cq.dedup) == 1 {
		return oneTerminal(g, cq)
	}
	e, err := NewEngine(g, opts)
	if err != nil {
		return nil, err
	}
	defer e.Close()
	return e.SolveSpec(spec)
}

// oneTerminal answers a canonical query with a single terminal: an empty
// tree, finished like any other Result. No phase runs, so no engine is
// needed.
func oneTerminal(g *graph.Graph, cq canonQuery) (*Result, error) {
	res := &Result{Seeds: cq.dedup, Mode: cq.spec.Mode}
	if err := finalizeResult(g, cq, res); err != nil {
		return nil, err
	}
	return res, nil
}

// memoryStats models the Fig. 8 accounting: measured sizes for the graph,
// per-rank shards, control state (rank-local slabs) and edge tables, plus a
// buffer-residency model (P outgoing buffers per rank at the configured
// batch size). tableLens holds the per-rank E_N table sizes — on the TCP
// backend the tables live in the workers and only their sizes travel back.
func memoryStats(g *graph.Graph, shard ShardStats, tableLens []int64, res *Result, opts Options) MemoryStats {
	const crossEntryBytes = 8 + 8 + 16 // one flat crossRec: key + dense pair + crossEdge
	const msgBytes = 24
	var tableBytes int64
	for _, n := range tableLens {
		tableBytes += n * crossEntryBytes
	}
	tableBytes += int64(res.DistGraphEdges) * crossEntryBytes // merged copy
	batch := opts.BatchSize
	if batch <= 0 {
		batch = 64
	}
	return MemoryStats{
		GraphBytes:     g.MemoryBytes(),
		ShardBytes:     shard.ShardBytes,
		StateBytes:     shard.StateSlabBytes,
		EdgeTableBytes: tableBytes,
		DistGraphBytes: int64(res.DistGraphEdges) * 20 * int64(opts.Ranks),
		BufferBytes:    int64(opts.Ranks) * int64(opts.Ranks) * int64(batch) * msgBytes,
	}
}

// recorder tracks per-phase wall time and message deltas. Rank 0 writes the
// shared Result between barriers. The message counters live per process, so
// each process leader (its lowest hosted rank, rec.lo) snapshots local
// deltas and the totals are summed with an allreduce.
type recorder struct {
	comm *rt.Comm
	res  *Result
	lo   int

	t0 time.Time
	s0 rt.Stats
}

// phase runs fn on every rank between barriers and records its duration,
// message counts and max-per-rank work (fn's return value, reduced MAX).
func (rec *recorder) phase(r *rt.Rank, name string, fn func() int64) {
	r.Barrier()
	if r.ID() == rec.lo {
		rec.t0 = time.Now()
		rec.s0 = rec.comm.Stats()
	}
	r.Barrier()
	// Tag the phase body with pprof labels so CPU profiles split by solver
	// phase and rank.
	var work int64
	pprof.Do(context.Background(),
		pprof.Labels("dsteiner_phase", name, "dsteiner_rank", strconv.Itoa(r.ID())),
		func(context.Context) { work = fn() })
	r.Barrier()
	maxWork := r.AllreduceMaxInt64(work)
	var d rt.Stats
	if r.ID() == rec.lo {
		d = rec.comm.Stats().Sub(rec.s0)
	}
	sent := r.AllreduceSumInt64(d.Sent)
	processed := r.AllreduceSumInt64(d.Processed)
	if r.ID() == 0 {
		rec.res.Phases = append(rec.res.Phases, PhaseStat{
			Name:        name,
			Seconds:     time.Since(rec.t0).Seconds(),
			Sent:        sent,
			Processed:   processed,
			MaxRankWork: maxWork,
		})
	}
}
