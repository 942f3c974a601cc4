// Package core implements the paper's primary contribution: the distributed
// 2-approximation Steiner minimal tree algorithm (Alg. 2, distributed as
// Alg. 3/5/6). There is one engine; Solve orchestrates its six phases over
// the message-passing runtime:
//
//  1. Voronoi Cell          — asynchronous multi-seed Bellman–Ford (Alg. 4)
//  2. Local Min Dist. Edge  — per-rank min cross-cell edge per cell pair,
//     after one halo push of boundary vertices' labels to the ranks that
//     hold them as ghosts (Alg. 5 without its request/reply per boundary
//     arc)
//  3. Global Min Dist. Edge — every cell pair's record is routed to the rank
//     owning the pair's lower seed, so the distance graph G'₁ stays sharded
//  4. MST                   — Borůvka/GHS fragment-merge rounds over the
//     rank-owned cross edges, one candidate per fragment per round; under
//     the (D, seed pair) total order the result is the unique minimum
//     spanning forest, the one sequential Kruskal finds on G'₁
//  5. Global Edge Pruning   — the rounds' winners are the surviving
//     cross-cell edges, so nothing is left to drop
//  6. Steiner Tree Edge     — predecessor walks from surviving cross-cell
//     edge endpoints back to each cell's seed (Alg. 6)
//
// Prize queries run the same phases 3–5. The moat-growing plan needs the
// whole distance graph, so phase 3 routes a prize query's every record to
// rank 0, which plans the keep set; the fragment merge then treats an edge
// with a skipped end as dead.
//
// The oracle is sequential test code (reference_test.go): Alg. 2 over
// voronoi.Sequential and mst.Kruskal, sharing no runtime, shard, slab or
// collective with the engine.
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

// FrontierMode selects how a rank drains its Δ-stepping bucket queue in the
// vertex-centric phases: one message at a time (serial) or whole buckets at
// a time on a per-rank worker pool (parallel). The converged fixed point is
// order-independent (strict lex (dist, seed, pred) tie-breaking), so the
// two paths produce byte-identical Results; serial is retained as the
// equivalence oracle.
type FrontierMode int

const (
	// FrontierAuto picks parallel when it can pay off: the bucket queue
	// discipline is active and the resolved per-rank worker count exceeds 1.
	// Anything else runs serial.
	FrontierAuto FrontierMode = iota
	// FrontierSerial always drains one message at a time.
	FrontierSerial
	// FrontierParallel drains whole buckets on the per-rank worker pool.
	// Requires QueueBucket.
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

// resolveFrontierLocal resolves FrontierAuto for the ranks one process
// hosts: parallel only when the bucket discipline is active and the per-rank
// worker budget (FrontierWorkers or GOMAXPROCS, split across the Ranks this
// process hosts) exceeds one worker — anything else would pay the pool
// dispatch for no concurrency.
func resolveFrontierLocal(opts Options) FrontierMode {
	switch opts.Frontier {
	case FrontierSerial, FrontierParallel:
		return opts.Frontier
	}
	if opts.Queue != rt.QueueBucket {
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
// configuration — FIFO queue, asynchronous processing, block partition, no
// delegates — which is the HavoqGT baseline, not the paper's optimized one:
// Default is the constructor that sets the priority queue and the
// arc-balanced partition.
type Options struct {
	// Ranks is the number of simulated MPI processes (default 1).
	Ranks int
	// Queue is the per-rank message discipline. The paper's optimized
	// configuration is QueuePriority (what Default sets); the zero value is
	// QueueFIFO, runtime's zero value, which reproduces the HavoqGT baseline
	// of Fig. 5/6.
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
	// Frontier selects serial vs intra-rank parallel draining of the
	// bucket queue in the vertex-centric phases (default auto: parallel
	// only when QueueBucket is active and more than one worker per rank is
	// available). FrontierParallel requires QueueBucket.
	Frontier FrontierMode
	// FrontierWorkers is the per-process frontier worker budget, split
	// evenly across the ranks a process hosts (each rank gets
	// max(1, budget/hosted)). 0 means GOMAXPROCS of the hosting process.
	FrontierWorkers int
	// ShuffleDelivery randomizes message delivery order (robustness
	// testing); ShuffleSeed makes it reproducible.
	ShuffleDelivery bool
	ShuffleSeed     int64
	// Backend selects where ranks run: in-process goroutines (default) or
	// external rankd worker processes over TCP.
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
// count: asynchronous processing with distance-priority message queues and
// arc-balanced contiguous partitioning (our equivalent of HavoqGT's
// edge-count load balancing for scale-free graphs — see the
// docs/ARCHITECTURE.md substitution table and BenchmarkAblation_Delegates).
func Default(ranks int) Options {
	return Options{
		Ranks:     ranks,
		Queue:     rt.QueuePriority,
		Partition: PartitionArcBlock,
	}
}
