package core

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"runtime/pprof"
	"strconv"
	"time"

	"dsteiner/internal/graph"
	rt "dsteiner/internal/runtime"
	"dsteiner/internal/wire"
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
	cq, err := canonSpec(g.NumVertices(), spec)
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

// recorder is one rank's account of its solve: each phase's wall time on
// this rank, the visitor messages the rank sent and processed in it and its
// work there (the phase body's own measure), plus its share of the fragment
// merge's traffic. Ranks record without synchronizing. The tree gather
// carries every other rank's account to rank 0 (appendTo), which sums the
// counts, keeps the largest work and its own times (fold).
type recorder struct {
	phases []PhaseStat
	frag   fragStats
}

// phase runs fn, this rank's part of the named phase, and records fn's
// counts with the rank's own time in it.
func (rec *recorder) phase(r *rt.Rank, name string, fn func() PhaseStat) {
	t0 := time.Now()
	// Tag the phase body with pprof labels so CPU profiles split by solver
	// phase and rank.
	var ps PhaseStat
	pprof.Do(context.Background(),
		pprof.Labels("dsteiner_phase", name, "dsteiner_rank", strconv.Itoa(r.ID())),
		func(context.Context) { ps = fn() })
	ps.Name, ps.Seconds = name, time.Since(t0).Seconds()
	rec.phases = append(rec.phases, ps)
}

// traversed is a traversal phase's counts on one rank: its work is the
// messages and rows it processed.
func traversed(ts rt.TraversalStats) PhaseStat {
	return PhaseStat{Sent: ts.Sent, Processed: ts.Processed, MaxRankWork: ts.Processed}
}

// appendTo appends the account's counts, all its phases' then the
// fragment merge's, as uvarints.
func (rec *recorder) appendTo(dst []byte) []byte {
	for _, ps := range rec.phases {
		dst = wire.AppendUvarint(dst, uint64(ps.Sent))
		dst = wire.AppendUvarint(dst, uint64(ps.Processed))
		dst = wire.AppendUvarint(dst, uint64(ps.MaxRankWork))
	}
	for _, n := range [...]int64{rec.frag.bytes, rec.frag.msgs, rec.frag.edges} {
		dst = wire.AppendUvarint(dst, uint64(n))
	}
	return dst
}

// fold reads another rank's account, as appendTo wrote it, into this one:
// counts add up and work takes the maximum. A count past int64 is corrupt.
func (rec *recorder) fold(d *wire.Dec) error {
	var huge bool
	count := func() int64 {
		n := d.Uvarint()
		huge = huge || n > math.MaxInt64
		return int64(n)
	}
	for i := range rec.phases {
		ps := &rec.phases[i]
		ps.Sent += count()
		ps.Processed += count()
		ps.MaxRankWork = max(ps.MaxRankWork, count())
	}
	rec.frag.bytes += count()
	rec.frag.msgs += count()
	rec.frag.edges += count()
	if err := d.Err(); err != nil || !huge {
		return err
	}
	return fmt.Errorf("%w: a rank's phase count exceeds int64", wire.ErrCorrupt)
}
