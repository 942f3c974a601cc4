// Package core implements the paper's primary contribution: the distributed
// 2-approximation Steiner minimal tree algorithm (Alg. 2, distributed as
// Alg. 3/5/6). There is one engine; Solve orchestrates its six phases over
// the message-passing runtime:
//
//  1. Voronoi Cell          — asynchronous multi-seed Bellman–Ford (Alg. 4)
//  2. Local Min Dist. Edge  — per-rank min cross-cell edge per cell pair,
//     after one halo exchange of boundary vertices' labels to the ranks
//     that hold them as ghosts (Alg. 5 without its request/reply per
//     boundary arc)
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
	"time"

	rt "dsteiner/internal/runtime"
)

// PartitionKind selects the vertex-to-rank mapping.
type PartitionKind int

const (
	// PartitionBlock gives each rank a contiguous vertex range with an
	// equal share of vertices (the paper's stated partitioning).
	PartitionBlock PartitionKind = iota
	// PartitionArcBlock gives each rank a contiguous vertex range with
	// an approximately equal share of ARCS. Phase-1 work follows popped
	// vertices, so on skewed graphs this unbalances it (see Default).
	PartitionArcBlock
)

// String returns the flag/API name of the partition kind.
func (p PartitionKind) String() string {
	if p == PartitionArcBlock {
		return "arcblock"
	}
	return "block"
}

// ParsePartition maps a flag/API string to its PartitionKind ("block",
// "arcblock").
func ParsePartition(s string) (PartitionKind, error) {
	switch s {
	case "block":
		return PartitionBlock, nil
	case "arcblock":
		return PartitionArcBlock, nil
	default:
		return PartitionBlock, fmt.Errorf("core: unknown partition kind %q (want block or arcblock)", s)
	}
}

// ParseQueue maps a flag/API string to its runtime queue discipline
// ("fifo", "priority").
func ParseQueue(s string) (rt.QueueKind, error) {
	switch s {
	case "fifo":
		return rt.QueueFIFO, nil
	case "priority":
		return rt.QueuePriority, nil
	default:
		return rt.QueueFIFO, fmt.Errorf("core: unknown queue discipline %q (want fifo or priority)", s)
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
// configuration — FIFO queue, asynchronous processing, block partition —
// which is the HavoqGT baseline, not the paper's optimized one:
// Default is the constructor that sets the priority queue.
type Options struct {
	// Ranks is the number of simulated MPI processes (default 1).
	Ranks int
	// Queue is the per-rank message discipline. The paper's optimized
	// configuration is QueuePriority (what Default sets); the zero value is
	// QueueFIFO, runtime's zero value, which reproduces the HavoqGT baseline
	// of Fig. 5/6.
	Queue rt.QueueKind
	// BatchSize overrides the runtime's message batch size.
	BatchSize int
	// Partition picks the vertex partition (default block).
	Partition PartitionKind
	// BSP runs the traversals of phases 1 and 6 bulk-synchronously instead
	// of asynchronously (the §IV ablation).
	BSP bool
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
// equal-vertex contiguous ranges, the paper's "approximately equal share of
// vertices" (§IV). A rank's phase-1 work follows the vertices it pops, not
// the arcs it owns: the ghost-row filter drops most cross-rank offers and
// the indexed queue holds one entry per row. On R-MAT 2^15 × 16 at two
// ranks the arc-balanced split gave one rank ≈80 % of the visits
// (core.phase1_imbalance 1.56–1.61); equal-vertex ranges read 1.06–1.08.
// PartitionArcBlock gives the more even shard bytes instead.
func Default(ranks int) Options {
	return Options{
		Ranks:     ranks,
		Queue:     rt.QueuePriority,
		Partition: PartitionBlock,
	}
}
