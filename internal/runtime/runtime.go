// Package runtime is the repository's message-passing substrate — the
// substitute for MPI + HavoqGT that the paper's distributed implementation
// (§IV) is built on. Each *rank* is a goroutine with a private mailbox;
// algorithm state is partitioned per rank and all cross-rank interaction
// goes through explicit messages or collectives, mirroring an MPI program:
//
//   - Comm.Run executes an SPMD body on every rank (like mpirun).
//   - Rank.Traverse runs an asynchronous vertex-centric traversal: the
//     equivalent of HavoqGT's do_traversal() with visitor queues. Each rank
//     drains a local queue whose discipline is FIFO (HavoqGT's default) or
//     distance-priority (the paper's key optimization, §IV/§V-C), while
//     batched messages flow between ranks. Global quiescence is detected
//     with a distributed-termination counter.
//   - Collectives (Barrier, the int64 allreduces, and Exchange — the one
//     byte collective, routed blobs with a broadcast address) mirror
//     MPI_Allreduce/MPI_Allgatherv, used by Alg. 5's edge phases; their
//     payloads are integers or encoded bytes, so each runs unchanged
//     in-process and across a transport.
//   - Each rank carries a rank-local graph shard (Comm.AttachShards /
//     Comm.EnsureShards), exposed as Rank.Shard and Rank.EdgeWeight.
//     Traversal code reads adjacency only through the shard — like an MPI
//     process that holds just its partition — so each rank walks a compact
//     slab instead of striding the shared global CSR.
//   - Each rank likewise carries a rank-local control-state slab
//     (Comm.AttachStateSlabs, reset between queries by ResetStateSlabs and
//     accounted by StateMemoryBytes), so per-vertex algorithm state is
//     owned by the rank too: during a traversal a rank references nothing
//     outside its shard, its slab and its mailbox.
//
// The engine also supports a bulk-synchronous (BSP) traversal mode and
// seeded randomized message delivery, used by the ablation benchmarks and
// robustness tests.
package runtime

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"dsteiner/internal/graph"
	"dsteiner/internal/partition"
)

// QueueKind selects the local message-queue discipline of each rank.
type QueueKind int

const (
	// QueueFIFO processes messages in arrival order (HavoqGT default).
	QueueFIFO QueueKind = iota
	// QueuePriority processes messages in ascending key order — the
	// paper's message-prioritization optimization, approximating
	// Dijkstra's settling order.
	QueuePriority
)

// String returns the flag/API name of the queue discipline.
func (k QueueKind) String() string {
	switch k {
	case QueueFIFO:
		return "fifo"
	case QueuePriority:
		return "priority"
	default:
		return fmt.Sprintf("QueueKind(%d)", int(k))
	}
}

// Msg is the visitor message exchanged between ranks. Algorithms interpret
// the payload fields per phase: for Voronoi cells (Alg. 4) Target is the
// vertex being visited, From the sending vertex (predecessor candidate),
// Seed the source seed and Dist the tentative distance. Kind discriminates
// message roles within one traversal, and is rank-local: a message that
// crosses ranks has Kind 0, and the wire codec (internal/wire) does not
// carry the field.
type Msg struct {
	Target graph.VID
	From   graph.VID
	Seed   graph.VID
	Dist   graph.Dist
	Kind   uint8
}

// VisitFunc handles one message on one rank, HavoqGT's visit() callback.
// It may send further messages through r.Send.
type VisitFunc func(r *Rank, m Msg)

// Config parameterizes a Comm.
type Config struct {
	// Ranks is the number of simulated MPI processes (P >= 1).
	Ranks int
	// Queue is the per-rank message-queue discipline.
	Queue QueueKind
	// BatchSize is the number of messages coalesced per cross-rank
	// delivery (default 64). Batching models MPI message aggregation.
	BatchSize int
	// ShuffleDelivery randomizes the order in which queued inbound
	// batches are handed to a rank (failure-injection / robustness
	// testing: asynchronous convergence must not depend on delivery
	// order). Seeded by ShuffleSeed for reproducibility.
	ShuffleDelivery bool
	ShuffleSeed     int64
	// HostLo/HostHi select the contiguous rank range [HostLo, HostHi)
	// this process hosts. Both zero means all ranks (the in-process
	// loopback default). A proper subset requires Transport, which
	// carries traffic to and from the ranks hosted elsewhere.
	HostLo, HostHi int
	// Transport is the cross-process backend for communicators hosting a
	// rank subset. nil means loopback: every rank is in-process and
	// delivery is a direct mailbox append — the perf baseline.
	Transport Transport
}

func (c Config) withDefaults() Config {
	if c.Ranks <= 0 {
		c.Ranks = 1
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 64
	}
	return c
}

// Comm is a communicator: a fixed group of ranks over a vertex partition,
// analogous to MPI_COMM_WORLD plus the partitioned graph handle.
//
// A Comm is reusable: Run may be called any number of times (sequentially —
// runs must not overlap), and each call starts from a clean termination,
// abort and collective state, even after a previous run panicked. Long-lived
// callers (core.Engine) call Start once to pin a persistent goroutine per
// rank, avoiding per-run goroutine churn, and Close when done.
type Comm struct {
	cfg  Config
	part *partition.Partition
	// ranks holds the hosted ranks only: ranks[i] has global id lo+i.
	// Loopback communicators host all P ranks (lo = 0).
	ranks []*Rank
	lo    int
	// trans is the cross-process backend; nil for loopback.
	trans Transport
	// term is the Safra-style termination tracker driven through
	// HoldToken; unused in loopback mode.
	term termState
	// travSeq numbers asynchronous traversals for the transport's
	// termination-token sessions.
	travSeq uint64

	// Distributed-termination state for the current loopback traversal:
	// pending sums the outstanding-message balances the ranks have
	// published (Rank.publish), per batch rather than per message.
	pending  atomic.Int64
	done     chan struct{}
	doneOnce *sync.Once

	// Collective infrastructure.
	coll      *collective
	abort     chan struct{}
	abortOnce sync.Once

	// Persistent-worker state (Start/Close). work is nil until Start;
	// each rank's goroutine loops over its job channel.
	workMu sync.Mutex
	work   []chan job

	// Shared overflow pool of recycled batch buffers (see Rank.getBuf).
	bufMu sync.Mutex
	bufs  [][]Msg

	// Global message counters (monotonic across phases; read via Stats).
	// In a multi-process session they count this process's ranks only.
	// sent and processed are fed by each rank once per completed traversal
	// (Rank.finish), so they equal the sum of the ranks' TraversalStats.
	sent       atomic.Int64
	processed  atomic.Int64
	batches    atomic.Int64
	suppressed atomic.Int64
	// idleRanks counts hosted ranks currently parked in runAsync; a busy
	// rank skips its fairness yield when every peer is parked.
	idleRanks atomic.Int32
}

// job is one Run body dispatched to a persistent rank worker.
type job struct {
	body   func(r *Rank)
	wg     *sync.WaitGroup
	panics []any
}

// New builds a communicator with cfg.Ranks ranks over the given partition.
// The partition's rank count must match cfg.Ranks.
func New(cfg Config, part *partition.Partition) (*Comm, error) {
	cfg = cfg.withDefaults()
	if part.NumRanks() != cfg.Ranks {
		return nil, fmt.Errorf("runtime: partition has %d ranks, config wants %d", part.NumRanks(), cfg.Ranks)
	}
	lo, hi := cfg.HostLo, cfg.HostHi
	if lo == 0 && hi == 0 {
		hi = cfg.Ranks // host everything: the loopback default
	}
	if lo < 0 || hi > cfg.Ranks || lo >= hi {
		return nil, fmt.Errorf("runtime: hosted range [%d,%d) invalid for %d ranks", lo, hi, cfg.Ranks)
	}
	if hi-lo < cfg.Ranks && cfg.Transport == nil {
		return nil, fmt.Errorf("runtime: hosting ranks [%d,%d) of %d requires a Transport", lo, hi, cfg.Ranks)
	}
	c := &Comm{
		cfg:   cfg,
		part:  part,
		lo:    lo,
		trans: cfg.Transport,
		abort: make(chan struct{}),
	}
	c.term.notify = make(chan struct{}, 1)
	c.coll = newCollective(hi-lo, c.abort)
	c.ranks = make([]*Rank, hi-lo)
	for i := range c.ranks {
		r := &Rank{
			comm: c,
			id:   lo + i,
			box:  newMailbox(),
			out:  make([][]Msg, cfg.Ranks),
		}
		if cfg.ShuffleDelivery {
			r.shuffle = rand.New(rand.NewSource(cfg.ShuffleSeed + int64(r.id)*7919))
		}
		c.ranks[i] = r
	}
	if c.trans != nil {
		c.trans.Attach(c)
	}
	return c, nil
}

// localRank returns the hosted rank with global id, or nil when another
// process hosts it.
func (c *Comm) localRank(id int) *Rank {
	i := id - c.lo
	if uint(i) < uint(len(c.ranks)) {
		return c.ranks[i]
	}
	return nil
}

// HostRange returns the global rank range [lo, hi) this process hosts.
func (c *Comm) HostRange() (lo, hi int) { return c.lo, c.lo + len(c.ranks) }

// MustNew is New that panics on error (for tests and examples with known
// good configs).
func MustNew(cfg Config, part *partition.Partition) *Comm {
	c, err := New(cfg, part)
	if err != nil {
		panic(err)
	}
	return c
}

// AttachShards installs one rank-local graph shard per rank, the substrate
// behind Rank.Shard and Rank.EdgeWeight. Call before
// Run (shards must not change while a run is in flight); shards are
// immutable and stay attached across runs, so a long-lived Comm pays the
// build once per session. shards[i] must be the shard of hosted rank
// lo+i: a communicator hosting a rank subset attaches only its own shards.
func (c *Comm) AttachShards(shards []*graph.Shard) error {
	if len(shards) != len(c.ranks) {
		return fmt.Errorf("runtime: %d shards for %d hosted ranks", len(shards), len(c.ranks))
	}
	for i, s := range shards {
		if s == nil || s.Rank() != c.lo+i {
			return fmt.Errorf("runtime: shard for hosted rank %d missing or mis-ranked", c.lo+i)
		}
	}
	for i, r := range c.ranks {
		r.shard = shards[i]
	}
	return nil
}

// EnsureShards builds and attaches shards cut from g by this communicator's
// partition, if none are attached yet. Convenience for callers (tests,
// voronoi.Compute) that build a Comm directly; core.Engine builds its own
// ShardPlan so it can also report shard memory. Call before Run. Panics on
// a partition/graph mismatch — a programming error, like MustNew.
func (c *Comm) EnsureShards(g *graph.Graph) {
	if c.ranks[0].shard != nil {
		return
	}
	plan, err := partition.NewShardPlan(c.part, g)
	if err != nil {
		panic(err)
	}
	if err := c.AttachShards(plan.BuildShards(g)[c.lo : c.lo+len(c.ranks)]); err != nil {
		panic(err)
	}
}

// Sharded reports whether shards are attached.
func (c *Comm) Sharded() bool { return c.ranks[0].shard != nil }

// Shards returns the attached shards in rank order, or nil when none are
// attached. Shards are immutable: read-only.
func (c *Comm) Shards() []*graph.Shard {
	if !c.Sharded() {
		return nil
	}
	shards := make([]*graph.Shard, len(c.ranks))
	for i, r := range c.ranks {
		shards[i] = r.shard
	}
	return shards
}

// StateSlab is the runtime's view of a rank-local control-state slab: the
// per-vertex algorithm state (for the Steiner solver, the Voronoi
// distance/parent/source/epoch fields plus phase-6 walk marks) a rank holds
// for the vertices it owns. Like a graph.Shard, a slab references nothing
// outside itself, so together shard + slab + mailbox are exactly the state
// a multi-process backend would place in each process. The runtime never
// reads slab entries — it only resets slabs between queries and accounts
// their memory; algorithms type-assert Rank.StateSlab to their concrete
// slab type (internal/voronoi.StateSlab for the solver).
type StateSlab interface {
	// Rank returns the rank the slab belongs to.
	Rank() int
	// Reset invalidates every entry (epoch bump, O(1)) between queries.
	Reset()
	// MemoryBytes reports the slab's resident size.
	MemoryBytes() int64
}

// AttachStateSlabs installs one rank-local control-state slab per rank.
// Call before Run; slabs stay attached across runs (their entries are
// per-query, recycled with ResetStateSlabs). slabs[i] must be rank i's
// slab. Unlike shards, slabs are mutable per-engine state: communicators
// must not share a slab set.
func (c *Comm) AttachStateSlabs(slabs []StateSlab) error {
	if len(slabs) != len(c.ranks) {
		return fmt.Errorf("runtime: %d state slabs for %d hosted ranks", len(slabs), len(c.ranks))
	}
	for i, sl := range slabs {
		if sl == nil || sl.Rank() != c.lo+i {
			return fmt.Errorf("runtime: state slab for hosted rank %d missing or mis-ranked", c.lo+i)
		}
	}
	for i, r := range c.ranks {
		r.state = slabs[i]
	}
	return nil
}

// StateAttached reports whether control-state slabs are attached.
func (c *Comm) StateAttached() bool { return c.ranks[0].state != nil }

// StateSlabs returns the attached slabs in rank order, or nil when none are
// attached.
func (c *Comm) StateSlabs() []StateSlab {
	if !c.StateAttached() {
		return nil
	}
	slabs := make([]StateSlab, len(c.ranks))
	for i, r := range c.ranks {
		slabs[i] = r.state
	}
	return slabs
}

// ResetStateSlabs invalidates every attached slab's entries in O(P) epoch
// bumps. Call between queries, never while a Run is in flight.
func (c *Comm) ResetStateSlabs() {
	for _, r := range c.ranks {
		if r.state != nil {
			r.state.Reset()
		}
	}
}

// StateMemoryBytes sums the attached control-state slabs' resident bytes
// (0 if none) — the per-query state counterpart of ShardMemoryBytes.
func (c *Comm) StateMemoryBytes() int64 {
	var b int64
	for _, r := range c.ranks {
		if r.state != nil {
			b += r.state.MemoryBytes()
		}
	}
	return b
}

// ShardMemoryBytes sums the attached shards' resident bytes (0 if none).
func (c *Comm) ShardMemoryBytes() int64 {
	var b int64
	for _, r := range c.ranks {
		if r.shard != nil {
			b += r.shard.MemoryBytes()
		}
	}
	return b
}

// NumRanks returns the communicator size P.
func (c *Comm) NumRanks() int { return c.cfg.Ranks }

// Partition returns the vertex partition.
func (c *Comm) Partition() *partition.Partition { return c.part }

// Config returns the configuration (with defaults applied).
func (c *Comm) Config() Config { return c.cfg }

// Run executes body on every rank concurrently (SPMD) and returns when all
// ranks finish, like mpirun of a single program. A panic on any rank is
// re-raised on the caller after all ranks stop.
//
// Runs must not overlap, but the Comm may be reused: each call resets the
// termination, abort and collective state left by the previous run. After
// Start, bodies execute on the persistent rank goroutines; otherwise a fresh
// goroutine per rank is spawned for this run only.
func (c *Comm) Run(body func(r *Rank)) {
	c.resetForRun()
	panics := make([]any, len(c.ranks))
	var wg sync.WaitGroup
	wg.Add(len(c.ranks))

	c.workMu.Lock()
	work := c.work
	c.workMu.Unlock()

	if work != nil {
		j := job{body: body, wg: &wg, panics: panics}
		for i := range work {
			work[i] <- j
		}
	} else {
		for i := range c.ranks {
			go func(r *Rank) {
				c.runBody(r, job{body: body, wg: &wg, panics: panics})
			}(c.ranks[i])
		}
	}
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
}

// runBody executes one Run body on one rank, capturing a panic and poisoning
// the communicator so blocked peers abort instead of hanging.
func (c *Comm) runBody(r *Rank, j job) {
	defer j.wg.Done()
	defer func() {
		if p := recover(); p != nil {
			j.panics[r.id-c.lo] = p
			// Unblock peers waiting on collectives/traversals.
			c.poison()
		}
	}()
	j.body(r)
}

// Start pins one persistent goroutine per rank; subsequent Run calls
// dispatch to them instead of spawning P goroutines per run. Idempotent.
// Callers that Start must Close to release the goroutines.
func (c *Comm) Start() {
	c.workMu.Lock()
	defer c.workMu.Unlock()
	if c.work != nil {
		return
	}
	c.work = make([]chan job, len(c.ranks))
	for i := range c.work {
		ch := make(chan job, 1)
		c.work[i] = ch
		go func(r *Rank) {
			for j := range ch {
				c.runBody(r, j)
			}
		}(c.ranks[i])
	}
}

// Close stops the persistent rank goroutines pinned by Start. Idempotent.
// Run must not be in flight. After Close the Comm still works in
// spawn-per-run mode.
func (c *Comm) Close() {
	c.workMu.Lock()
	defer c.workMu.Unlock()
	if c.work == nil {
		return
	}
	for _, ch := range c.work {
		close(ch)
	}
	c.work = nil
}

// sharedBuf pops a batch buffer from the communicator-wide overflow pool.
func (c *Comm) sharedBuf() ([]Msg, bool) {
	c.bufMu.Lock()
	defer c.bufMu.Unlock()
	n := len(c.bufs)
	if n == 0 {
		return nil, false
	}
	buf := c.bufs[n-1]
	c.bufs[n-1] = nil
	c.bufs = c.bufs[:n-1]
	return buf, true
}

// shareBuf parks a batch buffer in the overflow pool, bounded so a
// pathological workload cannot pin unbounded memory.
func (c *Comm) shareBuf(buf []Msg) {
	c.bufMu.Lock()
	if len(c.bufs) < 4096*c.cfg.Ranks {
		c.bufs = append(c.bufs, buf)
	}
	c.bufMu.Unlock()
}

// resetForRun restores the communicator to a clean quiescent state at the
// start of a Run: leftover termination counts, buffered or mailboxed
// messages, and — after a run that panicked — the poisoned abort channel and
// collective are all discarded. All ranks are idle between runs, so plain
// field writes are safe.
func (c *Comm) resetForRun() {
	c.pending.Store(0)
	c.idleRanks.Store(0)
	for _, r := range c.ranks {
		r.box.takeAll()
		select {
		case <-r.box.note:
		default:
		}
		for i, buf := range r.out {
			if buf != nil {
				r.out[i] = nil
				r.recycleBuf(buf)
			}
		}
	}
	select {
	case <-c.abort:
		// Previous run was poisoned by a rank panic; arm fresh abort and
		// collective state so this run can proceed.
		c.abort = make(chan struct{})
		c.abortOnce = sync.Once{}
		c.coll = newCollective(len(c.ranks), c.abort)
	default:
	}
}

// Stats is a snapshot of the communicator's message counters. In a
// multi-process session the counters cover this process's hosted ranks;
// the coordinator aggregates per-process deltas for cluster-wide views.
// The record travels whole: Sub turns two snapshots into one query's share,
// and Add folds shares together (across worker processes, then across
// queries), so no layer above spells the fields out again.
type Stats struct {
	// Sent counts point-to-point visitor messages, the paper's
	// message-count metric.
	Sent int64
	// Processed counts Visit and Expand invocations.
	Processed int64
	// Batches counts cross-rank batch deliveries.
	Batches int64
	// Suppressed counts cross-rank relaxations dropped by the sender: offers
	// provably rejectable against the rank's own best earlier offer, never
	// sent (internal/voronoi).
	Suppressed int64
	// Net reports the transport's cumulative traffic; all zero for
	// loopback communicators.
	Net TransportStats
}

// Sub returns the traffic between the earlier snapshot o and s.
func (s Stats) Sub(o Stats) Stats {
	s.Sent -= o.Sent
	s.Processed -= o.Processed
	s.Batches -= o.Batches
	s.Suppressed -= o.Suppressed
	s.Net = s.Net.Sub(o.Net)
	return s
}

// Add folds two shares into one: every counter sums.
func (s Stats) Add(o Stats) Stats {
	s.Sent += o.Sent
	s.Processed += o.Processed
	s.Batches += o.Batches
	s.Suppressed += o.Suppressed
	s.Net = s.Net.Add(o.Net)
	return s
}

// Stats returns current global counters.
func (c *Comm) Stats() Stats {
	s := Stats{
		Sent:       c.sent.Load(),
		Processed:  c.processed.Load(),
		Batches:    c.batches.Load(),
		Suppressed: c.suppressed.Load(),
	}
	if c.trans != nil {
		s.Net = c.trans.Stats()
	}
	return s
}

// ResetStats zeroes the message counters (used between experiment phases).
// Transport counters are cumulative and not reset; read deltas instead.
func (c *Comm) ResetStats() {
	c.sent.Store(0)
	c.processed.Store(0)
	c.batches.Store(0)
	c.suppressed.Store(0)
}
