// Package dsteiner computes 2-approximate Steiner minimal trees on large
// weighted graphs with a distributed-style parallel algorithm, reproducing
// "Towards Distributed 2-Approximation Steiner Minimal Trees in Billion-edge
// Graphs" (Reza, Sanders, Pearce; IPDPS 2022, arXiv:2205.14503).
//
// Given an edge-weighted undirected graph G and a set of seed (terminal)
// vertices S, Solve returns an acyclic connected subgraph spanning S whose
// total distance is at most 2(1-1/l) times the optimum, where l is the
// minimum number of leaves in any Steiner minimal tree. The algorithm
// replaces the classic KMB all-pair-shortest-path step with Voronoi-cell
// computation (Mehlhorn's construction) executed asynchronously over a
// message-passing runtime with distance-prioritized visitor queues.
//
// # Quick start
//
//	b := dsteiner.NewBuilder(6)
//	b.AddEdge(0, 1, 4)
//	b.AddEdge(1, 2, 3)
//	// ...
//	g, err := b.Build()
//	res, err := dsteiner.Solve(g, []dsteiner.VID{0, 2, 5}, dsteiner.Defaults(4))
//	fmt.Println(res.TotalDistance, len(res.Tree))
//
// The packages under internal/ hold the full system: the message-passing
// runtime (internal/runtime), Voronoi cells (internal/voronoi), the solver
// (internal/core), sequential baselines (internal/baseline), the exact
// Dreyfus–Wagner solver (internal/exact), dataset generators (internal/gen)
// and the paper's experiment harness (internal/experiments). This facade
// re-exports the surface a downstream user needs.
package dsteiner

import (
	"io"
	"os"

	"dsteiner/internal/baseline"
	"dsteiner/internal/core"
	"dsteiner/internal/exact"
	"dsteiner/internal/gen"
	"dsteiner/internal/graph"
	rt "dsteiner/internal/runtime"
	"dsteiner/internal/seeds"
)

// Core graph types.
type (
	// Graph is an immutable undirected weighted graph in CSR form.
	Graph = graph.Graph
	// Builder accumulates edges and produces a Graph.
	Builder = graph.Builder
	// VID identifies a vertex.
	VID = graph.VID
	// Dist is an accumulated path distance.
	Dist = graph.Dist
	// Edge is an undirected weighted edge.
	Edge = graph.Edge
)

// Solver types.
type (
	// Engine is a long-lived solver session bound to one graph: the
	// partition, communicator and all O(|V|) state are built once and
	// pooled across Solve calls. Use for interactive workloads issuing
	// many queries against one resident graph; see NewEngine.
	Engine = core.Engine
	// Options configures Solve; the zero value is a valid single-rank
	// configuration. Use Defaults for the paper's tuned settings.
	Options = core.Options
	// Result is Solve's output: the tree, per-phase statistics, memory
	// accounting and — embedded — the query's RuntimeStats. Result.Clone
	// deep-copies it for cache storage.
	Result = core.Result
	// RuntimeStats is the runtime counters record a Result embeds whole:
	// message and suppressed-offer counters plus the transport traffic
	// (Result.Net).
	RuntimeStats = rt.Stats
	// PhaseStat is one phase's timing and message statistics.
	PhaseStat = core.PhaseStat
	// QueueKind selects the per-rank message queue discipline.
	QueueKind = rt.QueueKind
	// ShardStats describes an Engine's sharded graph substrate (rank
	// count, per-rank shard and state-slab bytes).
	ShardStats = core.ShardStats
	// SeedStrategy selects a seed-vertex selection algorithm.
	SeedStrategy = seeds.Strategy
	// DatasetConfig describes a synthetic graph generator configuration.
	DatasetConfig = gen.Config
	// BaselineTree is the output of the sequential baselines.
	BaselineTree = baseline.Tree
	// QuerySpec is a full query description — mode plus its terminal
	// fields — accepted by SolveQuery and Engine.SolveSpec.
	QuerySpec = core.QuerySpec
	// Mode selects a query kind: ModeTree, ModeForest or ModePrize.
	Mode = core.Mode
)

// Query modes (see docs/API.md for the per-mode semantics).
const (
	// ModeTree is the classic single Steiner tree spanning Seeds.
	ModeTree = core.ModeTree
	// ModeForest solves Steiner Forest: one tree per terminal group in
	// Groups, each internally connected, no edge bridging two groups.
	ModeForest = core.ModeForest
	// ModePrize solves prize-collecting Steiner tree: each seed carries a
	// penalty the solver may pay to leave it unconnected, minimizing tree
	// cost plus paid penalties.
	ModePrize = core.ModePrize
)

// ParseMode maps "tree" (or ""), "forest" or "prize" to its Mode.
func ParseMode(s string) (Mode, error) { return core.ParseMode(s) }

// Queue disciplines (see the paper's §IV and the Fig. 5/6 ablation).
const (
	// QueueFIFO processes messages in arrival order (HavoqGT default).
	QueueFIFO = rt.QueueFIFO
	// QueuePriority processes messages in ascending distance order —
	// the paper's key optimization.
	QueuePriority = rt.QueuePriority
)

// Rank backends: where the communicator's ranks live.
const (
	// BackendInproc runs ranks as goroutines over in-memory mailboxes
	// (the loopback transport — default, and the perf baseline).
	BackendInproc = core.BackendInproc
	// BackendTCP runs ranks in external rankd worker processes; this
	// process coordinates the session and every cross-rank message
	// crosses a real TCP wire (see Options.Workers / Options.ListenAddr).
	BackendTCP = core.BackendTCP
)

// ParseBackend maps "inproc" or "tcp" to its Backend.
func ParseBackend(s string) (core.Backend, error) { return core.ParseBackend(s) }

// ParseQueue maps "fifo" or "priority" to its queue discipline.
func ParseQueue(s string) (rt.QueueKind, error) { return core.ParseQueue(s) }

// WorkerConfig parameterizes RunWorker (peer listen address, timeouts).
type WorkerConfig = core.WorkerConfig

// RunWorker runs one rankd worker session against the coordinator at
// coordAddr, blocking until the session ends (see cmd/rankd).
func RunWorker(coordAddr string, cfg WorkerConfig) error {
	return core.RunWorker(coordAddr, cfg)
}

// Seed selection strategies (§V, §V-E).
const (
	SeedsBFSLevel      = seeds.BFSLevel
	SeedsUniformRandom = seeds.UniformRandom
	SeedsEccentric     = seeds.Eccentric
	SeedsProximate     = seeds.Proximate
)

// ErrDuplicateSeed marks a seed set naming the same terminal more than
// once; Solve, SolveQuery and Engine.Solve/SolveSpec reject such sets
// instead of silently deduplicating them.
var ErrDuplicateSeed = core.ErrDuplicateSeed

// NewBuilder returns a Builder for a graph with n vertices.
func NewBuilder(n int) *Builder { return graph.NewBuilder(n) }

// Defaults returns the paper's tuned configuration at the given simulated
// rank count: asynchronous processing with priority message queues. Every
// engine cuts the graph into equal-vertex contiguous ranges, as the paper
// partitions (§IV).
func Defaults(ranks int) Options { return core.Default(ranks) }

// Solve computes a 2-approximate Steiner minimal tree of g spanning the
// seed vertices. All seeds must lie in one connected component. Solve is
// the one-shot form: it pays O(|V|) session setup per call. Query-heavy
// callers should hold an Engine (see NewEngine) instead.
func Solve(g *Graph, seedSet []VID, opts Options) (*Result, error) {
	return core.Solve(g, seedSet, opts)
}

// SolveQuery is Solve generalized over query modes: it answers one
// QuerySpec — tree, forest or prize — with a transient engine. Tree-mode
// specs behave exactly like Solve. For repeated queries use NewEngine and
// Engine.SolveSpec.
func SolveQuery(g *Graph, spec QuerySpec, opts Options) (*Result, error) {
	return core.SolveQuery(g, spec, opts)
}

// NewEngine builds a reusable solver session bound to g: repeated
// Engine.Solve calls reuse the partition, the communicator's pinned rank
// goroutines and epoch-versioned per-query state, so each query does work
// proportional to the query rather than to |V|. Close the engine to
// release its goroutines. Engine.Solve serializes internally; for
// concurrent queries run one Engine per in-flight query over the shared
// immutable Graph. A list of queries is a loop over Engine.Solve (or
// Engine.SolveSpec for forest and prize queries).
//
//	e, err := dsteiner.NewEngine(g, dsteiner.Defaults(4))
//	defer e.Close()
//	for _, q := range queries {
//		res, err := e.Solve(q.Seeds)
//		// ...
//	}
func NewEngine(g *Graph, opts Options) (*Engine, error) {
	return core.NewEngine(g, opts)
}

// SelectSeeds picks k seed vertices from g's largest connected component
// with the given strategy (deterministic per rngSeed).
func SelectSeeds(g *Graph, k int, strategy SeedStrategy, rngSeed int64) ([]VID, error) {
	return seeds.Select(g, k, strategy, rngSeed)
}

// Dataset returns the named Table III stand-in dataset configuration
// (WDC12, CLW12, UKW07, FRS, LVJ, PTN, MCO, CTS; aliases accepted). Build
// it with its Build/MustBuild method.
func Dataset(name string) (DatasetConfig, error) {
	info, err := gen.Dataset(name)
	if err != nil {
		return DatasetConfig{}, err
	}
	return info.Config, nil
}

// DatasetNames lists the available stand-in datasets, largest first.
func DatasetNames() []string { return gen.DatasetNames() }

// SolveKMB runs the sequential Kou–Markowsky–Berman 2-approximation.
func SolveKMB(g *Graph, seedSet []VID) (BaselineTree, error) { return baseline.KMB(g, seedSet) }

// SolveMehlhorn runs Mehlhorn's sequential 2-approximation.
func SolveMehlhorn(g *Graph, seedSet []VID) (BaselineTree, error) {
	return baseline.Mehlhorn(g, seedSet)
}

// SolveWWW runs the Wu–Widmayer–Wong sequential 2-approximation.
func SolveWWW(g *Graph, seedSet []VID) (BaselineTree, error) { return baseline.WWW(g, seedSet) }

// SolveExact computes a Steiner minimal tree with the Dreyfus–Wagner
// dynamic program — exponential in |seedSet|, feasible up to ~12 seeds.
// memoryLimit <= 0 applies a 1 GiB default.
func SolveExact(g *Graph, seedSet []VID, memoryLimit int64) ([]Edge, Dist, error) {
	sol, err := exact.Solve(g, seedSet, memoryLimit)
	return sol.Edges, sol.Total, err
}

// ValidateSteinerTree checks that edges form a valid Steiner tree of g for
// the seed set (a tree spanning all seeds whose leaves are all seeds).
func ValidateSteinerTree(g *Graph, seedSet []VID, edges []Edge) error {
	return graph.ValidateSteinerTree(g, seedSet, edges)
}

// WriteGraph serializes g in the binary CSR container format.
func WriteGraph(w io.Writer, g *Graph) error { return graph.WriteBinary(w, g) }

// ReadGraph deserializes a graph written by WriteGraph.
func ReadGraph(r io.Reader) (*Graph, error) { return graph.ReadBinary(r) }

// LoadGraphFile reads a graph from a binary CSR file (as written by
// cmd/gengraph).
func LoadGraphFile(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return graph.ReadBinary(f)
}

// WriteDOT emits a Graphviz rendering of a Steiner tree with seeds red and
// Steiner vertices blue (the paper's Fig. 9 styling).
func WriteDOT(w io.Writer, tree []Edge, seedSet []VID) {
	graph.WriteDOT(w, tree, seedSet)
}
