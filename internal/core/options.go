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
//  3. Global Min Dist. Edge — one gather of every rank's cell-pair table to
//     rank 0, which folds them into the distance graph G'₁
//  4. MST                   — one sequential Kruskal pass on rank 0; under
//     the (D, seed pair) total order the result is the unique minimum
//     spanning forest
//  5. Global Edge Pruning   — one broadcast of the forest's edges, the
//     surviving cross-cell edges, behind rank 0's status
//  6. Steiner Tree Edge     — predecessor walks from surviving cross-cell
//     edge endpoints back to each cell's seed (Alg. 6)
//
// Prize queries run the same phases 3–5: rank 0, holding the whole distance
// graph, plans the keep set before the pass, which then skips an edge with
// a skipped end.
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
// configuration — FIFO queue, asynchronous processing — which is the
// HavoqGT baseline, not the paper's optimized one: Default is the
// constructor that sets the priority queue. Every engine cuts the graph
// into equal-vertex contiguous ranges, the paper's "approximately equal
// share of vertices" (§IV); see package partition.
type Options struct {
	// Ranks is the number of simulated MPI processes (default 1).
	Ranks int
	// Queue is the per-rank message discipline. The paper's optimized
	// configuration is QueuePriority (what Default sets); the zero value is
	// QueueFIFO, runtime's zero value, which reproduces the HavoqGT baseline
	// of Fig. 5/6.
	Queue rt.QueueKind
	// BatchSize overrides the runtime's message batch size (at most
	// rt.MaxBatchSize).
	BatchSize int
	// BSP runs the traversals of phases 1 and 6 bulk-synchronously instead
	// of asynchronously (the §IV ablation).
	BSP bool
	// ShuffleDelivery randomizes message delivery order (robustness
	// testing); ShuffleSeed makes it reproducible. In process only: a TCP
	// worker's Setup has no field for it, so NewEngine refuses it with
	// BackendTCP.
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

// check refuses what either backend would refuse late or run otherwise than
// asked, so NewEngine fails before a runtime is built or a coordinator
// listens: a queue outside the two disciplines (in process it would run
// FIFO, a TCP worker refuses it at handshake), a batch size above the
// runtime's bound (a TCP fleet would dial in and every worker abort its
// setup), and shuffled delivery on the TCP backend (Setup carries no
// shuffle, so the workers would deliver in arrival order).
func (o Options) check() error {
	if o.Queue != rt.QueueFIFO && o.Queue != rt.QueuePriority {
		return fmt.Errorf("core: unknown queue discipline %v (want fifo or priority)", o.Queue)
	}
	if o.BatchSize > rt.MaxBatchSize {
		return fmt.Errorf("core: batch size %d above the runtime's bound %d", o.BatchSize, rt.MaxBatchSize)
	}
	if o.ShuffleDelivery && o.Backend == BackendTCP {
		return fmt.Errorf("core: shuffled delivery runs in process only, not on the tcp backend")
	}
	return nil
}

// Default returns the paper's optimized configuration at the given rank
// count: asynchronous processing with distance-priority message queues.
func Default(ranks int) Options {
	return Options{
		Ranks: ranks,
		Queue: rt.QueuePriority,
	}
}
