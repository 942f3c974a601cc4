package core

import (
	"errors"
	"fmt"
	"time"

	"dsteiner/internal/graph"
	"dsteiner/internal/transport"
	"dsteiner/internal/voronoi"
	"dsteiner/internal/wire"
)

// cluster is the BackendTCP session state of an Engine acting as
// coordinator: the hub that owns the worker connections. The coordinator
// holds the full graph (it loaded it) but after the handshake no rank
// state lives here — the shards and slabs built to cut the handshake's
// slices are released, and every solve runs entirely in the workers.
type cluster struct {
	hub *transport.Hub
	qid uint64
}

// newClusterEngine is NewEngine's BackendTCP path: listen, hand every
// dialing rankd worker its slice of the shard plan, and return an Engine
// whose Solve dispatches to the worker fleet.
func newClusterEngine(g *graph.Graph, opts Options) (*Engine, error) {
	if opts.Workers <= 0 {
		opts.Workers = 1
	}
	if opts.Workers > opts.Ranks {
		return nil, fmt.Errorf("core: %d workers for %d ranks", opts.Workers, opts.Ranks)
	}
	if opts.ListenAddr == "" {
		opts.ListenAddr = "127.0.0.1:0"
	}
	if opts.WorkerWait <= 0 {
		opts.WorkerWait = 60 * time.Second
	}
	plan, err := buildSubstrate(g, opts.Ranks)
	if err != nil {
		return nil, err
	}
	// Shards and slabs are built only to capture the session's memory
	// accounting; the workers rebuild them from the handshake's slices, and
	// this copy is garbage afterwards.
	shards := plan.BuildShards(g)
	shard := shardStats(shards, voronoi.BuildSlabs(plan, shards))

	hub, err := transport.ListenHub(opts.ListenAddr, opts.Workers, opts.Ranks)
	if err != nil {
		return nil, err
	}
	if opts.Recover {
		hub.EnableRecovery(opts.RejoinWait, opts.OnWorkerLost)
	}
	if opts.OnListen != nil {
		opts.OnListen(hub.Addr())
	}
	_, err = hub.Handshake(opts.WorkerWait, func(w int) wire.Setup {
		lo, hi := hub.RankRange(w)
		setup := wire.Setup{
			Ranks:       opts.Ranks,
			NumVertices: g.NumVertices(),
			Queue:       uint8(opts.Queue),
			BatchSize:   opts.BatchSize,
			BSP:         opts.BSP,
			Bounds:      plan.Partition().Bounds(),
		}
		for rank := lo; rank < hi; rank++ {
			// A shard keeps no target VIDs, so the slices are cut from g.
			vlo, vhi := plan.Range(rank)
			offsets, targets, weights := graph.CutShard(g, vlo, vhi)
			setup.Shards = append(setup.Shards, wire.ShardSlice{
				Rank: rank, Offsets: offsets, Targets: targets, Weights: weights,
			})
		}
		return setup
	})
	if err != nil {
		return nil, err
	}

	return &Engine{
		g:       g,
		opts:    opts,
		cluster: &cluster{hub: hub},
		plan:    plan,
		shard:   shard,
	}, nil
}

// solve dispatches one canonical query to the worker fleet and returns the
// rank-0 worker's solver output, with the fleet's folded counters record,
// plus the per-rank E_N table sizes the workers reported.
func (cl *cluster) solve(cq canonQuery) (*Result, []int64, error) {
	cl.qid++
	out, err := cl.hub.SolveSpec(toWireSpec(cl.qid, cq.spec))
	if err != nil {
		// Dispatch only fails when the session faulted (and, with
		// Options.Recover, could not be healed in time); mark it so
		// serving layers can retry against a later-healed fleet.
		return nil, nil, &sessionFaultErr{fmt.Errorf("core: tcp backend: %w", err)}
	}
	if out.Err != "" {
		return nil, nil, errors.New(out.Err)
	}
	if out.Result == nil {
		return nil, nil, fmt.Errorf("core: tcp backend: no worker reported the rank-0 result")
	}
	res := fromWireResult(out.Result, cq.dedup)
	res.Stats = out.Stats
	return res, out.TableLens, nil
}

// toWireSpec converts a canonical QuerySpec to its wire form.
func toWireSpec(qid uint64, spec QuerySpec) wire.SolveSpec {
	ws := wire.SolveSpec{
		QueryID: qid,
		Mode:    uint8(spec.Mode),
		Seeds:   spec.Seeds,
		Groups:  spec.Groups,
	}
	if len(spec.Penalties) > 0 {
		ws.Penalties = make([]int64, len(spec.Penalties))
		for i, p := range spec.Penalties {
			ws.Penalties[i] = int64(p)
		}
	}
	return ws
}

// specFromWire converts a wire SolveSpec back to the core QuerySpec the
// coordinator encoded (already canonical).
func specFromWire(ws wire.SolveSpec) QuerySpec {
	spec := QuerySpec{
		Mode:   Mode(ws.Mode),
		Seeds:  ws.Seeds,
		Groups: ws.Groups,
	}
	if len(ws.Penalties) > 0 {
		spec.Penalties = make([]graph.Dist, len(ws.Penalties))
		for i, p := range ws.Penalties {
			spec.Penalties[i] = graph.Dist(p)
		}
	}
	return spec
}

// close tears the worker session down.
func (cl *cluster) close() { cl.hub.Close() }

// toWireResult converts rank 0's Result into its wire form (solver output
// only; memory accounting and Steiner counting happen coordinator-side).
func toWireResult(res *Result) wire.SolveResult {
	wr := wire.SolveResult{
		Tree:            res.Tree,
		TotalDistance:   int64(res.TotalDistance),
		DistGraphEdges:  res.DistGraphEdges,
		MSTRounds:       res.MSTRounds,
		Skipped:         res.Skipped,
		CrossTableBytes: res.CrossTableBytes,
		FragmentMsgs:    res.FragmentMsgs,
	}
	for _, p := range res.Phases {
		wr.Phases = append(wr.Phases, wire.PhaseRec{
			Name:        p.Name,
			Seconds:     p.Seconds,
			Sent:        p.Sent,
			Processed:   p.Processed,
			MaxRankWork: p.MaxRankWork,
		})
	}
	return wr
}

// fromWireResult rebuilds a Result from its wire form.
func fromWireResult(wr *wire.SolveResult, dedup []graph.VID) *Result {
	res := &Result{
		Seeds:           dedup,
		Tree:            wr.Tree,
		TotalDistance:   graph.Dist(wr.TotalDistance),
		DistGraphEdges:  wr.DistGraphEdges,
		MSTRounds:       wr.MSTRounds,
		Skipped:         wr.Skipped,
		CrossTableBytes: wr.CrossTableBytes,
		FragmentMsgs:    wr.FragmentMsgs,
	}
	for _, p := range wr.Phases {
		res.Phases = append(res.Phases, PhaseStat{
			Name:        p.Name,
			Seconds:     p.Seconds,
			Sent:        p.Sent,
			Processed:   p.Processed,
			MaxRankWork: p.MaxRankWork,
		})
	}
	return res
}
