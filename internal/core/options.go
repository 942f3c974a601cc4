// Package core implements the paper's primary contribution: the distributed
// 2-approximation Steiner minimal tree algorithm (Alg. 2, distributed as
// Alg. 3/5/6). Solve orchestrates the six phases over the message-passing
// runtime:
//
//  1. Voronoi Cell          — asynchronous multi-seed Bellman–Ford (Alg. 4)
//  2. Local Min Dist. Edge  — per-rank min cross-cell edge per cell pair,
//     after one halo push of boundary vertices' labels to the ranks that
//     hold them as ghosts (Alg. 5; the paper's request/reply exchange per
//     boundary arc is kept as the GlobalCSR oracle)
//  3. Global Min Dist. Edge — rank-local cross-edge ownership with a
//     distributed fragment merge (default), or the paper's replicated
//     Allreduce(MIN) merge of the per-rank tables (MSTReplicated)
//  4. MST                   — distributed Borůvka/GHS fragment merge over
//     the rank-owned cross edges, byte-identical to sequential Kruskal on
//     the replicated distance graph G'₁; the replicated sequential path
//     (Prim/Kruskal/Borůvka) is retained as the equivalence oracle
//  5. Global Edge Pruning   — drop cross-cell edges absent from the MST G'₂
//  6. Steiner Tree Edge     — predecessor walks from surviving cross-cell
//     edge endpoints back to each cell's seed (Alg. 6)
//
// The output tree satisfies D(G_S)/D_min(G) <= 2(1-1/l) by Mehlhorn's
// theorem: every MST of G'₁ is an MST of the KMB distance graph G₁.
package core

import (
	"fmt"
	"runtime"
	"time"

	rt "dsteiner/internal/runtime"
)

// MSTAlgo selects the sequential MST routine for phase 4.
type MSTAlgo int

const (
	// MSTKruskal sorts + union-find. It is the zero value (and Default)
	// because its (weight, U, V) total order is the one the fragment merge
	// reproduces byte-identically, so replicated and fragment solves agree
	// without configuration.
	MSTKruskal MSTAlgo = iota
	// MSTPrim is the paper's choice (Boost Prim in the original).
	MSTPrim
	// MSTBoruvka is the parallel-style algorithm used by the AblationMST
	// ablation of the "sequential MST is sufficient" claim.
	MSTBoruvka
)

// String returns the flag/API name of the MST algorithm.
func (a MSTAlgo) String() string {
	switch a {
	case MSTPrim:
		return "prim"
	case MSTKruskal:
		return "kruskal"
	case MSTBoruvka:
		return "boruvka"
	default:
		return fmt.Sprintf("MSTAlgo(%d)", int(a))
	}
}

// MSTMode selects how phases 3–5 merge the cross-edge table and build the
// MST of the distance graph G'₁.
type MSTMode int

const (
	// MSTModeAuto picks the fragment merge wherever it is available: every
	// sharded solve (loopback or TCP). GlobalCSR solves fall back to
	// replicated.
	MSTModeAuto MSTMode = iota
	// MSTReplicated is the paper's original path: every rank gathers the
	// entire merged cross-edge table (O(k²) entries to all P ranks) and
	// runs the same sequential MST over it. Retained as the equivalence
	// oracle, like Options.GlobalCSR.
	MSTReplicated
	// MSTFragment is the distributed Borůvka/GHS fragment merge: cross
	// edges stay rank-local (owned by the rank of the lex-min endpoint
	// cell), fragments merge in rounds over O(k) proposal exchanges, and
	// phase 5 consumes an allgather of the O(k) chosen edges instead of
	// the O(k²) table. Deterministic (weight, seedKey) tie-breaking makes
	// the chosen edge set byte-identical to sequential Kruskal.
	MSTFragment
)

// String returns the flag/API name of the MST mode.
func (m MSTMode) String() string {
	switch m {
	case MSTReplicated:
		return "replicated"
	case MSTFragment:
		return "fragment"
	default:
		return "auto"
	}
}

// ParseMSTMode maps a flag/API string to its MSTMode ("auto",
// "replicated", "fragment").
func ParseMSTMode(s string) (MSTMode, error) {
	switch s {
	case "", "auto":
		return MSTModeAuto, nil
	case "replicated":
		return MSTReplicated, nil
	case "fragment":
		return MSTFragment, nil
	default:
		return MSTModeAuto, fmt.Errorf("core: unknown mst mode %q (want auto, replicated or fragment)", s)
	}
}

// FrontierMode selects how a rank drains its Δ-stepping bucket queue in the
// vertex-centric phases: one message at a time (serial) or whole buckets at
// a time on a per-rank worker pool (parallel). The converged fixed point is
// order-independent (strict lex (dist, seed, pred) tie-breaking), so the
// two paths produce byte-identical Results; serial is retained as the
// equivalence oracle.
type FrontierMode int

const (
	// FrontierAuto picks parallel when it can pay off: the bucket queue
	// discipline is active, the sharded (non-GlobalCSR) path is in use, and
	// the resolved per-rank worker count exceeds 1. Anything else runs
	// serial.
	FrontierAuto FrontierMode = iota
	// FrontierSerial always drains one message at a time.
	FrontierSerial
	// FrontierParallel drains whole buckets on the per-rank worker pool.
	// Requires QueueBucket and the sharded path.
	FrontierParallel
)

// String returns the flag/API name of the frontier mode.
func (m FrontierMode) String() string {
	switch m {
	case FrontierSerial:
		return "serial"
	case FrontierParallel:
		return "parallel"
	default:
		return "auto"
	}
}

// ParseFrontier maps a flag/API string to its FrontierMode ("auto",
// "serial", "parallel").
func ParseFrontier(s string) (FrontierMode, error) {
	switch s {
	case "", "auto":
		return FrontierAuto, nil
	case "serial":
		return FrontierSerial, nil
	case "parallel":
		return FrontierParallel, nil
	default:
		return FrontierAuto, fmt.Errorf("core: unknown frontier mode %q (want auto, serial or parallel)", s)
	}
}

// resolveFrontierLocal resolves FrontierAuto for an in-process engine:
// parallel only when the bucket discipline is active, the sharded path is
// in use, and the per-rank worker budget (FrontierWorkers or GOMAXPROCS,
// split across the Ranks this process hosts) exceeds one worker — anything
// else would pay the pool dispatch for no concurrency.
func resolveFrontierLocal(opts Options) FrontierMode {
	switch opts.Frontier {
	case FrontierSerial, FrontierParallel:
		return opts.Frontier
	}
	if opts.Queue != rt.QueueBucket || opts.GlobalCSR {
		return FrontierSerial
	}
	budget := opts.FrontierWorkers
	if budget <= 0 {
		budget = runtime.GOMAXPROCS(0)
	}
	if budget/opts.Ranks > 1 {
		return FrontierParallel
	}
	return FrontierSerial
}

// PartitionKind selects the vertex-to-rank mapping.
type PartitionKind int

const (
	// PartitionBlock gives each rank a contiguous vertex range with an
	// equal share of vertices (the paper's stated partitioning).
	PartitionBlock PartitionKind = iota
	// PartitionHash assigns vertex v to rank v mod P.
	PartitionHash
	// PartitionArcBlock gives each rank a contiguous vertex range with
	// an approximately equal share of ARCS — better load balance on
	// skewed graphs.
	PartitionArcBlock
)

// String returns the flag/API name of the partition kind.
func (p PartitionKind) String() string {
	switch p {
	case PartitionHash:
		return "hash"
	case PartitionArcBlock:
		return "arcblock"
	default:
		return "block"
	}
}

// ParsePartition maps a flag/API string to its PartitionKind ("block",
// "hash", "arcblock").
func ParsePartition(s string) (PartitionKind, error) {
	switch s {
	case "block":
		return PartitionBlock, nil
	case "hash":
		return PartitionHash, nil
	case "arcblock":
		return PartitionArcBlock, nil
	default:
		return PartitionBlock, fmt.Errorf("core: unknown partition kind %q (want block, hash or arcblock)", s)
	}
}

// ParseQueue maps a flag/API string to its runtime queue discipline
// ("fifo", "priority", "bucket").
func ParseQueue(s string) (rt.QueueKind, error) {
	switch s {
	case "fifo":
		return rt.QueueFIFO, nil
	case "priority":
		return rt.QueuePriority, nil
	case "bucket":
		return rt.QueueBucket, nil
	default:
		return rt.QueueFIFO, fmt.Errorf("core: unknown queue discipline %q (want fifo, priority or bucket)", s)
	}
}

// Backend selects where the communicator's ranks live.
type Backend int

const (
	// BackendInproc runs every rank as a goroutine in this process over
	// in-memory mailboxes — the loopback transport, the default and the
	// perf baseline.
	BackendInproc Backend = iota
	// BackendTCP runs the ranks in external rankd worker processes: this
	// process becomes the session coordinator, ships each worker its
	// shard slices at setup, and every cross-rank message, collective
	// and termination token crosses a real TCP wire.
	BackendTCP
)

// String returns the flag/API name of the backend.
func (b Backend) String() string {
	switch b {
	case BackendTCP:
		return "tcp"
	default:
		return "inproc"
	}
}

// ParseBackend maps a flag/API string to its Backend ("inproc", "tcp").
func ParseBackend(s string) (Backend, error) {
	switch s {
	case "", "inproc":
		return BackendInproc, nil
	case "tcp":
		return BackendTCP, nil
	default:
		return BackendInproc, fmt.Errorf("core: unknown backend %q (want inproc or tcp)", s)
	}
}

// Options configures a Solve run. The zero value is a valid single-rank
// configuration with the paper's defaults (priority queue, Prim MST,
// asynchronous processing, block partition, no delegates).
type Options struct {
	// Ranks is the number of simulated MPI processes (default 1).
	Ranks int
	// Queue is the per-rank message discipline. The paper's optimized
	// configuration is QueuePriority; QueueFIFO reproduces the HavoqGT
	// baseline of Fig. 5/6. NOTE: the package default (zero value) is
	// QueueFIFO because that is runtime's zero value; SolveDefaults sets
	// priority.
	Queue rt.QueueKind
	// BucketDelta is the Δ for QueueBucket.
	BucketDelta uint64
	// BatchSize overrides the runtime's message batch size.
	BatchSize int
	// Partition picks the vertex partition (default block).
	Partition PartitionKind
	// DelegateThreshold marks vertices with degree >= threshold as
	// high-degree delegates whose relaxation fans out across all ranks
	// (HavoqGT vertex delegates). 0 disables.
	DelegateThreshold int
	// BSP runs the vertex-centric phases bulk-synchronously instead of
	// asynchronously (the §IV ablation).
	BSP bool
	// MST selects the sequential phase-4 algorithm of the replicated path
	// (default Kruskal — the order the fragment merge reproduces; the
	// paper used Prim). Ignored by the fragment merge, which is
	// Kruskal-equivalent by construction.
	MST MSTAlgo
	// MSTMode selects replicated-table sequential MST vs the distributed
	// fragment merge for phases 3–5 (default auto: fragment wherever
	// available). MSTFragment is incompatible with GlobalCSR.
	MSTMode MSTMode
	// Frontier selects serial vs intra-rank parallel draining of the
	// bucket queue in the vertex-centric phases (default auto: parallel
	// only when QueueBucket is active, the sharded path is in use and more
	// than one worker per rank is available). FrontierParallel requires
	// QueueBucket and is incompatible with GlobalCSR.
	Frontier FrontierMode
	// FrontierWorkers is the per-process frontier worker budget, split
	// evenly across the ranks a process hosts (each rank gets
	// max(1, budget/hosted)). 0 means GOMAXPROCS of the hosting process.
	FrontierWorkers int
	// CollectiveChunk, when positive, splits the Global Min Dist. Edge
	// reduction into chunks of at most this many table entries — the
	// paper's §V-F memory optimization ("multiple collective operations
	// ... on smaller chunks, e.g., 500K or 1M items per chunk, at the
	// expense of runtime performance"). 0 reduces the whole table at
	// once.
	CollectiveChunk int
	// ShuffleDelivery randomizes message delivery order (robustness
	// testing); ShuffleSeed makes it reproducible.
	ShuffleDelivery bool
	ShuffleSeed     int64
	// SkipValidation skips the post-solve Steiner-tree validity check
	// (benchmarks on large graphs).
	SkipValidation bool
	// GlobalCSR selects the pre-shard, pre-slab reference path: traversals
	// scan the shared global CSR instead of rank-local shard slabs AND keep
	// all control state in one shared voronoi.State array instead of
	// per-rank StateSlabs; no shards or slabs are built. Retained as the
	// equivalence oracle for the shard/slab property tests and the
	// sharded-vs-global benchmarks; production solves leave it false.
	GlobalCSR bool
	// Backend selects where ranks run: in-process goroutines (default) or
	// external rankd worker processes over TCP. BackendTCP requires the
	// sharded path (GlobalCSR must be false).
	Backend Backend
	// ListenAddr is the coordinator's listen address for BackendTCP
	// (default 127.0.0.1:0 — an ephemeral localhost port).
	ListenAddr string
	// Workers is the rankd process count for BackendTCP (default 1; must
	// not exceed Ranks). Ranks are split into contiguous near-equal
	// ranges, one per worker.
	Workers int
	// OnListen, when set, is called with the coordinator's bound address
	// right before NewEngine blocks waiting for the workers to dial in —
	// the hook tests and in-process harnesses use to spawn workers.
	OnListen func(addr string)
	// WorkerWait bounds the BackendTCP session handshake (default 60s).
	WorkerWait time.Duration
	// Recover arms BackendTCP session healing: the coordinator retains the
	// handshake payload so a poisoned session (lost worker, dropped
	// connection, rank crash) is rebuilt on the next solve — workers
	// re-handshake (survivors via Rejoin, respawned replacements via a
	// fresh Hello) and the in-flight query is requeued instead of failing.
	// Off by default: a fault fails the session (fail-stop).
	Recover bool
	// RejoinWait bounds how long one session heal waits for all workers to
	// re-handshake (default 30s). Only meaningful with Recover.
	RejoinWait time.Duration
	// OnWorkerLost, when set with Recover, is called on its own goroutine
	// each time the session is poisoned — the hook coordinator-driven
	// worker respawn plugs into (steinersvc's -respawn-cmd).
	OnWorkerLost func(error)
}

func (o Options) withDefaults() Options {
	if o.Ranks <= 0 {
		o.Ranks = 1
	}
	return o
}

// Default returns the paper's optimized configuration at the given rank
// count: asynchronous processing with distance-priority message queues,
// Kruskal as the replicated-path MST (the order the fragment merge
// reproduces byte-identically), and arc-balanced contiguous partitioning
// (our equivalent of HavoqGT's edge-count load balancing for scale-free
// graphs — see the docs/ARCHITECTURE.md substitution table and
// BenchmarkAblation_Delegates).
func Default(ranks int) Options {
	return Options{
		Ranks:     ranks,
		Queue:     rt.QueuePriority,
		MST:       MSTKruskal,
		Partition: PartitionArcBlock,
	}
}
