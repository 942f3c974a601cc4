package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
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
	// pinned rank goroutines) and the pooled per-query scratch. slabs is
	// the rank-local control state attached to it. Both nil on a BackendTCP
	// engine, whose ranks live in external rankd workers behind cluster.
	host    *rankHost
	slabs   []*voronoi.StateSlab
	cluster *cluster

	mu   sync.Mutex         // serializes Solve on this engine
	seen map[graph.VID]bool // seed-validation scratch
}

// NewEngine builds a reusable solver session for g. The returned Engine
// holds opts.Ranks pinned goroutines until Close. Engine pools serving one
// graph should build the first engine here and the rest with NewSibling,
// which shares the immutable shard substrate instead of rebuilding it.
func NewEngine(g *graph.Graph, opts Options) (*Engine, error) {
	opts = opts.withDefaults()
	if opts.Backend == BackendTCP {
		return newClusterEngine(g, opts)
	}
	plan, err := buildSubstrate(g, opts)
	if err != nil {
		return nil, err
	}
	return newEngine(g, opts, plan, plan.BuildShards(g))
}

// buildSubstrate cuts g for opts, the step both backends start from: the
// shard plan over the partition the ranks route by — block or arc-block
// ranges (plan.Partition()).
func buildSubstrate(g *graph.Graph, opts Options) (*partition.ShardPlan, error) {
	var part *partition.Partition
	var err error
	if opts.Partition == PartitionArcBlock {
		part, err = partition.NewArcBlock(g, opts.Ranks)
	} else {
		part, err = partition.NewBlock(g.NumVertices(), opts.Ranks)
	}
	if err != nil {
		return nil, err
	}
	return partition.NewShardPlan(part, g)
}

// shardStats sums a built substrate's resident memory.
func shardStats(opts Options, plan *partition.ShardPlan, shards []*graph.Shard, slabs []*voronoi.StateSlab) ShardStats {
	s := ShardStats{
		Partition: opts.Partition.String(),
		Ranks:     opts.Ranks,
	}
	for _, sh := range shards {
		b := sh.MemoryBytes()
		s.ShardBytes += b
		s.MaxShardBytes = max(s.MaxShardBytes, b)
	}
	for _, sl := range slabs {
		b := sl.MemoryBytes()
		s.StateSlabBytes += b
		s.MaxStateSlabBytes = max(s.MaxStateSlabBytes, b)
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
	slabs, err := voronoi.AttachSlabs(comm, plan, shards)
	if err != nil {
		return nil, err
	}
	comm.Start()
	return &Engine{
		g:      g,
		opts:   opts,
		plan:   plan,
		shards: shards,
		shard:  shardStats(opts, plan, shards, slabs),
		host:   newRankHost(comm, opts.BSP),
		slabs:  slabs,
		seen:   make(map[graph.VID]bool),
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

// Graph returns the resident graph the engine is bound to.
func (e *Engine) Graph() *graph.Graph { return e.g }

// ShardStats describes an engine's sharded graph substrate, for serving
// layers (/info, /stats) and capacity planning.
type ShardStats struct {
	// Partition is the vertex-to-rank mapping kind ("block" or
	// "arcblock").
	Partition string
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
// was captured at session setup from the shards and slabs the handshake
// slices were cut from — the same bytes now resident in the workers.
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
// canonical query form: the same terminals sorted ascending. Duplicate
// terminals are rejected with ErrDuplicateSeed. seen is the duplicate-check
// scratch (cleared first); the returned slice is freshly allocated, so it
// may be published in a Result without aliasing pooled state.
func canonSeedSet(n int, seeds []graph.VID, seen map[graph.VID]bool) ([]graph.VID, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("core: empty seed set")
	}
	clear(seen)
	canon := make([]graph.VID, 0, len(seeds))
	for _, s := range seeds {
		if s < 0 || int(s) >= n {
			return nil, fmt.Errorf("core: seed %d out of range [0,%d)", s, n)
		}
		if seen[s] {
			return nil, fmt.Errorf("core: %w: %d appears more than once", ErrDuplicateSeed, s)
		}
		seen[s] = true
		canon = append(canon, s)
	}
	slices.Sort(canon)
	return canon, nil
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
// CanonicalSpec); tree-mode specs behave exactly like Solve.
func (e *Engine) SolveSpec(spec QuerySpec) (*Result, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	cq, err := canonSpec(e.g.NumVertices(), spec, e.seen)
	if err != nil {
		return nil, err
	}
	return e.solveCanonLocked(cq)
}

// BatchItem is one query's outcome within a SolveBatch call. Items succeed
// or fail independently: a bad seed set yields an Err without disturbing the
// other queries in the batch.
type BatchItem struct {
	Result *Result
	Err    error
}

// SolveBatch solves each terminal set in order on this engine's warm pooled
// state, entering the engine's internal serialization once for the whole
// slice instead of once per query — the amortized form for callers holding a
// list of queries (internal/steinersvc's POST /solve/batch). The returned
// slice has one BatchItem per input seed set, in input order. ctx is checked
// between items: once it is cancelled the remaining items fail with its
// error instead of pinning the engine on work nobody will read.
func (e *Engine) SolveBatch(ctx context.Context, seedSets [][]graph.VID) []BatchItem {
	specs := make([]QuerySpec, len(seedSets))
	for i, seeds := range seedSets {
		specs[i] = TreeSpec(seeds)
	}
	return e.SolveSpecBatch(ctx, specs)
}

// SolveSpecBatch is SolveBatch over full QuerySpecs: each spec — any mix of
// tree, forest and prize queries — is solved in order under one pass
// through the engine's internal serialization.
func (e *Engine) SolveSpecBatch(ctx context.Context, specs []QuerySpec) []BatchItem {
	out := make([]BatchItem, len(specs))
	e.mu.Lock()
	defer e.mu.Unlock()
	for i, spec := range specs {
		if err := ctx.Err(); err != nil {
			out[i].Err = err
			continue
		}
		cq, err := canonSpec(e.g.NumVertices(), spec, e.seen)
		if err != nil {
			out[i].Err = err
			continue
		}
		out[i].Result, out[i].Err = e.solveCanonLocked(cq)
	}
	return out
}

// solveCanonLocked runs the six solver phases for a validated canonical
// query — on this process's ranks or on the worker fleet — and finishes the
// Result with what only the holder of the full graph can add: memory
// accounting, Steiner-vertex counting and validation. The caller holds e.mu.
func (e *Engine) solveCanonLocked(cq canonQuery) (*Result, error) {
	if len(cq.dedup) == 1 {
		res := &Result{Seeds: cq.dedup, Mode: cq.spec.Mode}
		if err := finalizeResult(e.g, cq, res); err != nil {
			return nil, err
		}
		return res, nil
	}
	var res *Result
	var tableLens []int64
	var err error
	if e.cluster != nil {
		res, tableLens, err = e.cluster.solve(cq)
	} else {
		res, err = e.host.run(cq)
		tableLens = e.host.tableLens()
	}
	if err != nil {
		return nil, err
	}
	res.Memory = memoryStats(e.g, e.shard, tableLens, res, e.opts)
	if err := finalizeResult(e.g, cq, res); err != nil {
		return nil, err
	}
	return res, nil
}
