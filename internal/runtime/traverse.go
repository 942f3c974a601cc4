package runtime

import (
	"runtime"
	"sync"
)

// goyield cooperatively yields the processor to other goroutines.
func goyield() { runtime.Gosched() }

// idleSpins is the number of yield-and-recheck rounds an empty rank spins
// before escalating to a channel park: a couple of yields catch messages
// already in flight from an active peer without paying a park/wake cycle,
// while a truly idle rank still ends up parked, burning no CPU.
const idleSpins = 2

// Traversal describes one vertex-centric computation phase, the analogue of
// a HavoqGT do_traversal() round. Every rank must call Rank.Traverse with
// the same Traversal value (SPMD), like a collective.
type Traversal struct {
	// Visit is the per-message callback (HavoqGT's visit()).
	Visit VisitFunc
	// Expand is the per-row callback of a traversal whose queue holds rows:
	// it processes a row entry queued by Rank.PushRow or by Admit's
	// Rank.Queue. Such an entry carries no message; the row's owner
	// state says what to do. Only an Ordered asynchronous traversal under
	// QueuePriority queues rows; every other one queues the messages.
	Expand func(r *Rank, row int32)
	// Ordered processes messages in ascending Dist order under
	// QueuePriority (FIFO ignores it). Unordered means processing order does
	// not matter — the tree walk — and the traversal bypasses the
	// discipline: inbound messages are visited straight out of their
	// mailbox batch and self-sends drain from the rank's FIFO ring.
	// Sorting equal keys is the heap's worst case.
	Ordered bool
	// Init runs once per rank before processing starts; it seeds the
	// traversal by calling r.Send (HavoqGT's init_all visitors). May be
	// nil.
	Init func(r *Rank)
	// Admit, when set, receives each inbound mailbox batch whole when it is
	// drained, before any of it enters the local queue. It folds every
	// message into the rank's local state and settles what is left to do
	// with each one, through two calls:
	//   - r.Queue(m, row) queues m for row ≥ 0, or as an ordinary entry for
	//     a negative row. Under QueuePriority the queue keeps at most one
	//     live entry per row: an entry for a row that is already queued
	//     replaces that entry and moves its key, and the replaced entry
	//     counts as dropped. The traversal must only do that when the new
	//     entry leaves the old one nothing to do. Where the queue holds rows
	//     (see Expand) the entry is the row alone and m is gone; elsewhere
	//     the entry keeps m. The FIFO queue keeps every message.
	//   - r.Finished(n) releases the n messages of the batch that are done
	//     on arrival: offers the local state already beats, or ones whose
	//     whole effect was the fold. Each costs one comparison instead of a
	//     queue insertion, a pop and a visit, and counts as sent but not as
	//     processed. One call per batch is enough.
	// Every message of the batch must be queued or finished exactly once;
	// finishing more messages than the batch holds panics, since the
	// termination counter would be off.
	// The batch is the runtime's buffer, recycled when Admit returns, so
	// Admit must not keep it. Self-sends do not pass through Admit, except
	// under BSP, where they arrive through the rank's own mailbox.
	Admit func(r *Rank, batch []Msg)
	// BSP switches from asynchronous processing to bulk-synchronous
	// supersteps separated by barriers (the ablation of §IV's async
	// design choice). Messages sent in superstep i are processed in
	// superstep i+1.
	BSP bool
}

// TraversalStats reports per-rank work done in one Traverse call.
type TraversalStats struct {
	Processed  int64 // Visit and Expand invocations on this rank
	Sent       int64 // messages sent by this rank
	Replaced   int64 // queue entries replaced by a push for their slot
	Supersteps int64 // BSP supersteps (0 for async mode)
}

// Traverse runs t to global quiescence and returns this rank's work
// counters. It must be invoked on all ranks in the same order, like an MPI
// collective. Visit callbacks may send messages freely; termination is
// detected when every sent message has been processed.
func (r *Rank) Traverse(t *Traversal) TraversalStats {
	r.setQueue(t.Ordered, t.BSP)
	r.visit = t.Visit
	r.expand = t.Expand
	r.admit = t.Admit
	r.procs = runtime.GOMAXPROCS(0)
	// Discard the counters an aborted traversal never folded into
	// Comm.Stats.
	r.sentHere, r.processedHere, r.droppedHere, r.replacedHere, r.published = 0, 0, 0, 0, 0
	r.suppressedHere = 0

	c := r.comm
	r.counted = c.trans == nil && !t.BSP
	// Reset termination state with all ranks quiescent. Loopback detects
	// quiescence with the shared pending counter; a transport-backed
	// communicator arms a termination-token session instead (the
	// coordinator circulates Safra-style tokens and closes the done
	// channel at global quiescence). BSP traversals synchronize with
	// collectives and need neither.
	r.Barrier()
	if r.id == c.lo {
		if c.trans == nil {
			c.pending.Store(0)
			c.done = make(chan struct{})
			c.doneOnce = new(sync.Once)
		} else if !t.BSP {
			c.term.reset()
			c.travSeq++
			c.done = c.trans.StartTraversal(c.travSeq)
		}
	}
	r.Barrier()

	if t.Init != nil {
		t.Init(r)
	}

	if t.BSP {
		return r.runBSP()
	}
	return r.runAsync()
}

// finish folds this rank's traversal counters into the communicator's
// totals — once per traversal, not per message — and returns them.
func (r *Rank) finish(supersteps int64) TraversalStats {
	r.comm.sent.Add(r.sentHere)
	r.comm.processed.Add(r.processedHere)
	r.comm.suppressed.Add(r.suppressedHere)
	return TraversalStats{
		Processed: r.processedHere, Sent: r.sentHere, Replaced: r.replacedHere, Supersteps: supersteps,
	}
}

// closeDone signals global quiescence exactly once.
func (c *Comm) closeDone() {
	c.doneOnce.Do(func() { close(c.done) })
}

// maybeYield is the busy-loop fairness yield. When the running ranks of
// this communicator outnumber the cores, a rank grinding a long queue hands
// the scheduler a slice so its peers advance at a similar rate; when each
// running rank has a core to itself — real MPI ranks run on dedicated
// cores — the yield only costs a trip through the scheduler, so it is
// skipped. That covers the case where every peer rank is parked (one rank
// drains while the others wait for its offers): the yield could only hand
// the CPU back to this rank. Transport-backed communicators always yield:
// the reader goroutines feeding the mailboxes need the CPU even when peer
// ranks idle. The rule is needYield.
func (r *Rank) maybeYield() {
	c := r.comm
	if needYield(c.trans != nil, len(c.ranks)-int(c.idleRanks.Load()), r.procs) {
		goyield()
	}
}

// needYield is maybeYield's rule for a rank whose communicator runs over a
// transport or not, while busy of its hosted ranks (itself included) are
// not parked and the process runs on procs cores.
func needYield(transport bool, busy, procs int) bool {
	return transport || busy > procs
}

// runAsync is the asynchronous engine loop: drain the local queue in
// discipline order, interleaving inbound batches, until the communicator
// detects that every message ever sent has been processed.
func (r *Rank) runAsync() TraversalStats {
	c := r.comm
	dist := c.trans != nil
	// Flush and publish the initial messages, then synchronize so the
	// zero-message case is decided globally; with a transport the token
	// ring decides it instead.
	r.flushAll()
	r.publish()
	r.Barrier()
	if !dist && r.id == c.lo && c.pending.Load() == 0 {
		c.closeDone()
	}
	done := c.done
	// Flush outgoing buffers at least this often even while local work
	// remains: hoarding frontier updates would let peers burn cycles on
	// stale distances (HavoqGT likewise aggregates but sends eagerly).
	flushEvery := int64(c.cfg.BatchSize)
	sinceFlush := int64(0)
	for {
		// Opportunistically pull fresh inbound batches so the priority
		// discipline sees remote messages early.
		select {
		case <-r.box.note:
			r.drainInbox()
		default:
		}
		if r.step() {
			sinceFlush++
			if sinceFlush >= flushEvery {
				sinceFlush = 0
				r.flushAll()
				// Yield so peer ranks advance at a similar rate even when
				// simulated ranks outnumber physical cores: real MPI ranks
				// run on dedicated cores, and without the yield one rank
				// can burn a whole scheduler slice on stale distances.
				r.maybeYield()
			}
			continue
		}
		// Local queue empty: everything buffered must go out before we
		// sleep, or the system deadlocks with work parked in buffers —
		// ours and the transport's.
		r.flushAll()
		if dist {
			c.trans.Flush()
		}
		if r.drainInbox() {
			continue
		}
		// Short spin before parking: a couple of yields catch messages
		// already in flight from an active peer without a park/wake cycle.
		spun := false
		for s := 0; s < idleSpins; s++ {
			goyield()
			if r.drainInbox() {
				spun = true
				break
			}
		}
		if spun {
			continue
		}
		// Nothing left here: release the units of everything visited or
		// dropped since the last batch went out. The rank that brings the
		// counter to zero wakes every parked peer through done.
		r.publish()
		if dist {
			// Tell the termination tracker this rank is about to block:
			// once every hosted rank is idle with drained mailboxes, the
			// process is passive and may forward a held token.
			c.term.rankIdle()
		}
		// Escalate to a channel park: a truly idle rank burns no CPU.
		c.idleRanks.Add(1)
		select {
		case <-r.box.note:
			c.idleRanks.Add(-1)
			if dist {
				c.term.rankBusy()
			}
			r.drainInbox()
		case <-done:
			c.idleRanks.Add(-1)
			return r.finish(0)
		case <-c.abort:
			c.idleRanks.Add(-1)
			panic(errAborted)
		}
	}
}

// runBSP is the bulk-synchronous engine loop: process the entire local
// queue, exchange messages, barrier, repeat until no rank received
// anything.
func (r *Rank) runBSP() TraversalStats {
	r.bsp = true
	defer func() { r.bsp = false }()
	// Move init messages (buffered, including self-sends) into round 1.
	r.flushAll()
	r.Barrier()
	r.drainInbox()
	steps := int64(0)
	for {
		pending := int64(r.queued())
		if r.AllreduceSumInt64(pending) == 0 {
			return r.finish(steps)
		}
		steps++
		for r.step() {
		}
		r.flushAll()
		r.Barrier()
		r.drainInbox()
	}
}
