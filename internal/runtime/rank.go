package runtime

import (
	"fmt"
	"math/rand"

	"dsteiner/internal/graph"
	"dsteiner/internal/pq"
)

// Rank is one simulated MPI process. All methods are valid only on the
// rank's own goroutine (inside Comm.Run's body).
//
// Comm.New allocates the ranks back to back. Each rank writes its counters
// and queue state on every message, while its peers read its mailbox
// pointer on every batch they deliver, so the padding at both ends keeps
// two ranks' fields out of one cache line: without it, a 2-rank
// traverse-inproc solve on a 2-vCPU host ran ≈5 % slower, depending only
// on the struct's size.
type Rank struct {
	_    [cacheLine]byte
	comm *Comm
	id   int
	box  *mailbox
	out  [][]Msg // per-destination outgoing buffers

	// shard is this rank's local graph substrate (the owned-adjacency slab),
	// installed by Comm.AttachShards. Traversal code reads adjacency through
	// Shard and EdgeWeight so it never touches the global CSR.
	shard *graph.Shard

	// Traversal-scoped state. byKey is set when the traversal is Ordered
	// under QueuePriority and queues in prio; every other traversal queues
	// in fifo. Both keep their capacity across traversals. rows is set when
	// prio holds rows (Traversal.Expand): byKey and asynchronous.
	ordered bool
	byKey   bool
	rows    bool
	prio    *pq.Indexed[Msg]
	fifo    *pq.FIFO[Msg]
	visit   VisitFunc
	expand  func(r *Rank, row int32)
	admit   func(r *Rank, batch []Msg) // optional inbound fold (Traversal.Admit)
	procs   int                        // GOMAXPROCS when the traversal started (maybeYield)
	shuffle *rand.Rand
	// bsp defers local sends to the next superstep via the mailbox.
	bsp bool
	// free recycles cross-rank batch buffers: drainInbox parks drained
	// batches here and Send reuses them, so steady-state traffic stops
	// allocating (~7 append-growth allocations per 64-message batch
	// otherwise — the dominant allocation source of a solve).
	free [][]Msg

	// Per-traversal counters (reset by Traverse), rank-private: the shared
	// counters see them once per batch (publish) or per traversal (finish).
	sentHere       int64
	processedHere  int64
	droppedHere    int64 // inbound messages finished by Admit (Finished)
	replacedHere   int64 // queue entries replaced by a push for their slot
	suppressedHere int64
	// counted is set for loopback asynchronous traversals, whose quiescence
	// is detected with Comm.pending; published is the part of this rank's
	// outstanding balance already added to it.
	counted   bool
	published int64
	_         [cacheLine]byte
}

// cacheLine is the padding on each side of Rank's fields. Two ranks' fields
// end up at least twice this far apart, which also keeps them out of one
// 128-byte adjacent-line prefetch pair.
const cacheLine = 64

// ID returns this rank's index in [0, NumRanks).
func (r *Rank) ID() int { return r.id }

// NumRanks returns the communicator size.
func (r *Rank) NumRanks() int { return r.comm.cfg.Ranks }

// Owner returns the rank owning vertex v's state.
func (r *Rank) Owner(v graph.VID) int { return r.comm.part.Owner(v) }

// Owns reports whether this rank owns v.
func (r *Rank) Owns(v graph.VID) bool { return r.comm.part.Owner(v) == r.id }

// Shard returns this rank's local graph shard, or nil before AttachShards.
func (r *Rank) Shard() *graph.Shard { return r.shard }

// mustShard returns the shard or fails loudly: a traversal asked for local
// adjacency on a communicator that never attached shards.
func (r *Rank) mustShard() *graph.Shard {
	if r.shard == nil {
		panic("runtime: rank has no shard; call Comm.AttachShards or Comm.EnsureShards before Run")
	}
	return r.shard
}

// EdgeWeight reports the weight of edge {u, v} looked up in owned vertex u's
// slab row. The graph is undirected, so this equals a global HasEdge in
// either direction.
func (r *Rank) EdgeWeight(u, v graph.VID) (uint32, bool) { return r.mustShard().EdgeWeight(u, v) }

// Send routes m to the owner of m.Target. Valid inside a traversal (the
// visit callback or init function).
func (r *Rank) Send(m Msg) {
	dest := r.comm.part.Owner(m.Target)
	if dest == r.id {
		r.SendLocal(m)
		return
	}
	r.sentHere++
	r.buffer(dest, m)
}

// CountExchanged adds the records this rank sent and received through an
// Exchange to the communicator's message counters, as if sent as messages.
func (r *Rank) CountExchanged(sent, received int64) {
	r.comm.sent.Add(sent)
	r.comm.processed.Add(received)
}

// SendLocal is Send for a message whose Target the caller knows this rank
// owns, without the owner lookup: it skips the mailbox and goes straight to
// the local queue — except under BSP, where it travels through the rank's
// own mailbox to the next superstep like every other send.
func (r *Rank) SendLocal(m Msg) {
	r.sentHere++
	if r.bsp {
		r.buffer(r.id, m)
		return
	}
	r.Queue(m, -1)
}

// PushRow queues row under key as a row entry (Traversal.Expand), replacing
// the row's queued entry if it has one, and counts it as one sent message.
// It is the self-send of a traversal whose queue holds rows: no message, no
// owner lookup. On any other traversal it queues nothing and reports false;
// the caller then sends the row's message instead.
func (r *Rank) PushRow(key uint64, row int32) bool {
	if !r.rows {
		return false
	}
	r.sentHere++
	if r.prio.PushSlot(key, row) {
		r.replacedHere++
	}
	return true
}

// publish adds the change in this rank's outstanding balance — messages
// sent minus messages visited, dropped or replaced — to the shared
// termination counter, and signals quiescence when that reaches zero. It
// runs before a batch leaves the rank (flushTo), after Init, and before the
// rank parks; never per message. That is enough because every unpublished
// send happened while visiting a popped message whose own unit is only
// released afterwards: while any rank has unpublished work the counter is
// at least one, and it reaches zero only at true quiescence.
// A queue entry replaced by a push for its slot gives its unit back in the
// step that queues its replacement, whose own unit is held until that entry
// is visited, so replacements keep the balance exact.
func (r *Rank) publish() {
	if !r.counted {
		return
	}
	balance := r.sentHere - r.processedHere - r.droppedHere - r.replacedHere
	if d := balance - r.published; d != 0 {
		r.published = balance
		if r.comm.pending.Add(d) == 0 {
			r.comm.closeDone()
		}
	}
}

// Suppress records one cross-rank relaxation dropped by the sender
// (internal/voronoi): the offer was provably rejectable against the best
// offer this rank already sent that vertex, so it was never sent. Surfaced
// as Stats.Suppressed once the traversal completes (Rank.finish).
func (r *Rank) Suppress() { r.suppressedHere++ }

// buffer appends m to dest's outgoing batch (recycled from the free list
// when possible) and flushes a full batch.
func (r *Rank) buffer(dest int, m Msg) {
	buf := r.out[dest]
	if buf == nil {
		buf = r.getBuf()
	}
	buf = append(buf, m)
	r.out[dest] = buf
	if len(buf) >= r.comm.cfg.BatchSize {
		r.flushTo(dest)
	}
}

// getBuf pops a recycled batch buffer — from this rank's private free list,
// then from the communicator's shared overflow pool — or allocates one at
// full batch capacity. The shared pool matters because buffers travel with
// the traffic: a send-heavy rank hands its buffers to receive-heavy peers
// and would otherwise re-allocate every batch while its peers hoard.
func (r *Rank) getBuf() []Msg {
	if n := len(r.free); n > 0 {
		buf := r.free[n-1]
		r.free[n-1] = nil
		r.free = r.free[:n-1]
		return buf
	}
	if buf, ok := r.comm.sharedBuf(); ok {
		return buf
	}
	return make([]Msg, 0, r.comm.cfg.BatchSize)
}

// recycleBuf parks a drained batch buffer for reuse by this rank's sends;
// past a private reserve of one buffer per rank — one outgoing batch to
// each — the buffer goes to the shared pool so send-heavy peers can claim
// it. A larger reserve strands buffers with whichever rank received the
// last phase's traffic, and the next phase's senders allocate.
func (r *Rank) recycleBuf(buf []Msg) {
	if cap(buf) == 0 {
		return
	}
	if len(r.free) < len(r.out) {
		r.free = append(r.free, buf[:0])
		return
	}
	r.comm.shareBuf(buf[:0])
}

// Queue pushes m onto the local discipline queue for row, or as an ordinary
// entry for a negative row. On the priority queue, an entry for a row that is
// already queued replaces that entry; where the queue holds rows, the row is
// all it keeps. Traversal.Admit queues the inbound messages it keeps through
// it; each was counted as sent by its sender.
func (r *Rank) Queue(m Msg, row int32) {
	if !r.byKey {
		r.fifo.Push(m)
		return
	}
	var replaced bool
	if row >= 0 && r.rows {
		replaced = r.prio.PushSlot(uint64(m.Dist), row)
	} else {
		replaced = r.prio.Push(m, uint64(m.Dist), row)
	}
	if replaced {
		r.replacedHere++
	}
}

// Finished releases n inbound messages that Traversal.Admit settled on
// arrival: they count as sent but not as processed, and the next publish
// releases their units of the termination counter.
func (r *Rank) Finished(n int) { r.droppedHere += int64(n) }

// step pops the traversal's next queued entry and processes it — a row entry
// with Expand, a message with Visit — and reports false if the queue was
// empty.
func (r *Rank) step() bool {
	if !r.byKey {
		m, ok := r.fifo.Pop()
		if !ok {
			return false
		}
		r.visit(r, m)
	} else {
		m, row, ok := r.prio.Pop()
		if !ok {
			return false
		}
		if row >= 0 && r.rows {
			r.expand(r, row)
		} else {
			r.visit(r, m)
		}
	}
	r.processedHere++ // after the visit: see publish
	return true
}

// queued returns the number of entries in the traversal's queue.
func (r *Rank) queued() int {
	if r.byKey {
		return r.prio.Len()
	}
	return r.fifo.Len()
}

// flushTo delivers the outgoing buffer for dest: straight into the mailbox
// when this process hosts dest (the loopback hot path), through the
// transport otherwise — counted first (publish, addSent) so termination
// detection observes the send before the bytes can arrive anywhere.
func (r *Rank) flushTo(dest int) {
	buf := r.out[dest]
	if len(buf) == 0 {
		return
	}
	r.out[dest] = nil
	r.publish()
	r.comm.batches.Add(1)
	if l := r.comm.localRank(dest); l != nil {
		if l.box.put(buf) {
			r.out[dest] = buf[:0]
		}
		return
	}
	r.comm.term.addSent(len(buf))
	r.comm.trans.Deliver(dest, buf)
}

// flushAll delivers every non-empty outgoing buffer.
func (r *Rank) flushAll() {
	for dest := range r.out {
		r.flushTo(dest)
	}
}

// drainInbox empties the mailbox, optionally in randomized order (failure
// injection), and recycles the drained buffers. A traversal with an Admit
// hook is handed each batch whole; without one, the messages of a keyed
// traversal move into the local queue, and an unordered asynchronous
// traversal visits them straight out of their batch — order does not
// matter, so copying them into a queue first would only cost the memory —
// and queues nothing but its self-sends. It reports whether any message was
// queued or visited rather than finished on arrival.
func (r *Rank) drainInbox() bool {
	batches := r.box.takeAll()
	if len(batches) == 0 {
		return false
	}
	if r.shuffle != nil {
		r.shuffle.Shuffle(len(batches), func(i, j int) {
			batches[i], batches[j] = batches[j], batches[i]
		})
	}
	direct := !r.ordered && !r.bsp
	dropped, n := r.droppedHere, int64(0)
	for _, batch := range batches {
		if r.shuffle != nil {
			r.shuffle.Shuffle(len(batch), func(i, j int) {
				batch[i], batch[j] = batch[j], batch[i]
			})
		}
		n += int64(len(batch))
		switch {
		case r.admit != nil:
			before := r.droppedHere
			r.admit(r, batch)
			if r.droppedHere-before > int64(len(batch)) {
				// The termination counter would be off: the traversal
				// would end with work still queued, or never end.
				panic(fmt.Sprintf("runtime: Admit finished %d messages of a batch of %d", r.droppedHere-before, len(batch)))
			}
		case direct:
			for _, m := range batch {
				r.visit(r, m)
				r.processedHere++ // after the visit: see publish
			}
		default:
			for _, m := range batch {
				r.Queue(m, -1)
			}
		}
		// Messages are visited, queued or finished; the buffer is free.
		r.recycleBuf(batch)
	}
	r.box.recycle(batches)
	return r.droppedHere-dropped < n
}

// setQueue empties and selects this rank's queue for a traversal: the
// indexed queue prio for an ordered traversal under QueuePriority, and the
// FIFO ring otherwise — under QueueFIFO or when order does not matter. Both
// queues keep their capacity across phases and queries. prio holds rows
// unless the traversal is BSP: there a self-send waits in the mailbox for the
// next superstep, so a row can improve while its entry is queued, and the
// entry has to keep the message it was queued with.
func (r *Rank) setQueue(ordered, bsp bool) {
	r.ordered = ordered
	r.byKey = ordered && r.comm.cfg.Queue == QueuePriority
	r.rows = r.byKey && !bsp
	if r.byKey {
		if r.prio == nil {
			r.prio = pq.NewIndexed[Msg](1024)
		}
		r.prio.Reset()
		return
	}
	if r.fifo == nil {
		r.fifo = pq.NewFIFO[Msg](1024)
	}
	r.fifo.Reset()
}
