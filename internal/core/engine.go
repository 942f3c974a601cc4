package core

import (
	"errors"
	"fmt"
	"sync"

	"dsteiner/internal/graph"
	"dsteiner/internal/partition"
	rt "dsteiner/internal/runtime"
	"dsteiner/internal/voronoi"
)

// Engine is a long-lived solver session bound to one graph: the partition,
// the communicator (with its pinned rank goroutines) and all O(|V|)
// algorithm state are built once and reused across Solve calls, so a query
// against a resident graph pays only work proportional to the query — the
// paper's §I interactive-exploration requirement. A cold Solve per query
// instead pays O(|V|) re-initialization (three Voronoi arrays, a walked
// bitmap, a fresh partition and P new goroutines) every time.
//
// Engine.Solve is safe for concurrent use but serializes internally; run
// several Engines over the same *graph.Graph (it is immutable and shared)
// for concurrent queries, as internal/steinersvc's engine pool does.
type Engine struct {
	g    *graph.Graph
	opts Options

	// Sharded substrate, built once at session setup and pooled across
	// queries: the plan (per-rank ranges) and one
	// rank-local CSR slab per rank, with their memory accounting.
	plan   *partition.ShardPlan
	shards []*graph.Shard
	shard  ShardStats

	// host runs the ranks in this process: the communicator (with its
	// pinned rank goroutines) and the pooled per-query state, the ranks'
	// control-state slabs included. nil on a BackendTCP engine, whose ranks
	// live in external rankd workers behind cluster.
	host    *rankHost
	cluster *cluster

	mu sync.Mutex // serializes Solve on this engine
}

// NewEngine builds a reusable solver session for g. The returned Engine
// holds opts.Ranks pinned goroutines until Close. Engine pools serving one
// graph should build the first engine here and the rest with NewSibling,
// which shares the immutable shard substrate instead of rebuilding it.
func NewEngine(g *graph.Graph, opts Options) (*Engine, error) {
	opts = opts.withDefaults()
	if err := opts.check(); err != nil {
		return nil, err
	}
	if opts.Backend == BackendTCP {
		return newClusterEngine(g, opts)
	}
	plan, err := buildSubstrate(g, opts.Ranks)
	if err != nil {
		return nil, err
	}
	return newEngine(g, opts, plan, plan.BuildShards(g))
}

// buildSubstrate cuts g into ranks, the step both backends start from: the
// shard plan over the equal-vertex ranges the ranks route by
// (plan.Partition()).
func buildSubstrate(g *graph.Graph, ranks int) (*partition.ShardPlan, error) {
	part, err := partition.NewBlock(g.NumVertices(), ranks)
	if err != nil {
		return nil, err
	}
	return partition.NewShardPlan(part, g)
}

// rankBytes is one rank's resident substrate: its shard's bytes and its
// control-state slab's.
type rankBytes struct{ shard, state int64 }

// builtBytes reads each rank's resident bytes off its built shard and slab.
func builtBytes(shards []*graph.Shard, slabs []*voronoi.StateSlab) []rankBytes {
	out := make([]rankBytes, len(shards))
	for i, sh := range shards {
		out[i] = rankBytes{sh.MemoryBytes(), slabs[i].MemoryBytes()}
	}
	return out
}

// shardStats sums the ranks' resident memory.
func shardStats(ranks []rankBytes) ShardStats {
	s := ShardStats{Ranks: len(ranks)}
	for _, b := range ranks {
		s.ShardBytes += b.shard
		s.MaxShardBytes = max(s.MaxShardBytes, b.shard)
		s.StateSlabBytes += b.state
		s.MaxStateSlabBytes = max(s.MaxStateSlabBytes, b.state)
	}
	return s
}

// NewSibling builds another engine over the same graph and options that
// shares the receiver's immutable substrate — partition, shard plan and
// rank-local shards — instead of rebuilding them. Shards are read-only
// after construction, so siblings solve concurrently on one shard set;
// each sibling still owns its communicator (pinned goroutines) and pooled
// per-query state, and must be Closed independently. Engine pools
// (internal/steinersvc) use this so a pool of N engines holds one copy of
// the sharded graph, not N.
func (e *Engine) NewSibling() (*Engine, error) {
	if e.cluster != nil {
		return nil, fmt.Errorf("core: a BackendTCP engine owns its worker fleet and cannot have siblings")
	}
	return newEngine(e.g, e.opts, e.plan, e.shards)
}

// newEngine wires a communicator and pooled per-query state around an
// already-built substrate. opts must have defaults applied.
func newEngine(g *graph.Graph, opts Options, plan *partition.ShardPlan, shards []*graph.Shard) (*Engine, error) {
	comm, err := rt.New(rt.Config{
		Ranks:           opts.Ranks,
		Queue:           opts.Queue,
		BatchSize:       opts.BatchSize,
		ShuffleDelivery: opts.ShuffleDelivery,
		ShuffleSeed:     opts.ShuffleSeed,
	}, plan.Partition())
	if err != nil {
		return nil, err
	}
	if err := comm.AttachShards(shards); err != nil {
		return nil, err
	}
	// Control state is rank-local like the adjacency: one slab per rank,
	// sharing the shard's vertex→row index. Slabs are mutable per-query
	// state, so every engine (including siblings sharing one shard set)
	// builds its own.
	slabs := voronoi.BuildSlabs(plan, shards)
	comm.Start()
	return &Engine{
		g:      g,
		opts:   opts,
		plan:   plan,
		shards: shards,
		shard:  shardStats(builtBytes(shards, slabs)),
		host:   newRankHost(comm, opts.BSP, slabs),
	}, nil
}

// Close releases the engine's pinned rank goroutines — or, for a
// BackendTCP engine, ends the worker session (the rankd processes exit on
// the goodbye). The Engine must not be used afterwards.
func (e *Engine) Close() {
	if e.cluster != nil {
		e.cluster.close()
		return
	}
	e.host.comm.Close()
}

// ShardStats describes an engine's sharded graph substrate, for serving
// layers (/info, /stats) and capacity planning.
type ShardStats struct {
	// Ranks is the number of shards (one per rank).
	Ranks int
	// ShardBytes is the total resident size of all rank-local shards.
	ShardBytes int64
	// MaxShardBytes is the largest single rank's shard — the per-process
	// memory a multi-process backend would need.
	MaxShardBytes int64
	// StateSlabBytes is the total resident size of this engine's rank-local
	// control-state slabs (owned-vertex rows, ghost rows, walk marks).
	// Unlike shards, slabs are per-engine mutable state: a pool of N
	// engines holds N slab sets but one shard set.
	StateSlabBytes int64
	// MaxStateSlabBytes is the largest single rank's slab — together with
	// MaxShardBytes, the per-process footprint of a multi-process rank.
	MaxStateSlabBytes int64
}

// ShardStats reports the engine's shard substrate. On the TCP backend it
// is sized at session setup from each rank's range of the graph — its rows,
// arcs and distinct remote targets — through the formulas the workers'
// shards and slabs report their bytes by, and the workers' Ready totals
// must match it.
func (e *Engine) ShardStats() ShardStats { return e.shard }

// Options returns the engine's configuration with defaults applied.
func (e *Engine) Options() Options { return e.opts }

// ErrDuplicateSeed marks a seed set that names the same terminal more than
// once. A repeated terminal is almost always a caller bug (a broken seed
// generator, a double-submitted form) and silently collapsing it would
// change the query's |S|, so it is rejected instead of deduplicated.
// Serving layers should surface it as a client error (internal/steinersvc
// maps it to HTTP 400).
var ErrDuplicateSeed = errors.New("duplicate seed")

// canonSeedSet validates seeds against an n-vertex graph and returns the
// canonical query form: the same terminals sorted ascending, with pos[i] the
// input position of the i-th. Duplicate terminals are rejected with
// ErrDuplicateSeed. The returned slices are freshly allocated, so they may be
// published in a Result without aliasing pooled state.
func canonSeedSet(n int, seeds []graph.VID) (canon []graph.VID, pos []int32, err error) {
	if len(seeds) == 0 {
		return nil, nil, shapeErrorf("empty seed set")
	}
	return sortedTerminals(n, [][]graph.VID{seeds}, false)
}

// Solve computes a 2-approximate Steiner minimal tree of the resident graph
// for the given seed vertices. Duplicate seeds are rejected with
// ErrDuplicateSeed; all seeds must lie in one connected component, otherwise
// an error is returned. Results are identical to a cold Solve with the same
// options and seeds.
func (e *Engine) Solve(seeds []graph.VID) (*Result, error) {
	return e.SolveSpec(TreeSpec(seeds))
}

// SolveSpec answers one QuerySpec — tree, forest or prize — on the
// resident graph. The spec is validated and canonicalized first (see
// CanonicalSpec); tree-mode specs behave exactly like Solve. The six solver
// phases run on this process's ranks or on the worker fleet, and the Result
// is finished with what only the holder of the full graph can add: memory
// accounting, Steiner-vertex counting and validation.
func (e *Engine) SolveSpec(spec QuerySpec) (*Result, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	cq, err := canonSpec(e.g.NumVertices(), spec)
	if err != nil {
		return nil, err
	}
	if len(cq.dedup) == 1 {
		return oneTerminal(e.g, cq)
	}
	var res *Result
	var tableLens []int64
	if e.cluster != nil {
		res, tableLens, err = e.cluster.solve(cq)
	} else {
		res, err = e.host.run(cq)
		tableLens = e.host.tableLens()
	}
	if err != nil {
		return nil, err
	}
	res.Memory = memoryStats(e.g, e.shard, tableLens, cq, res, e.opts)
	if err := finalizeResult(e.g, cq, res); err != nil {
		return nil, err
	}
	return res, nil
}
