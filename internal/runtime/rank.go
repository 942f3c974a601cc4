package runtime

import (
	"math/rand"

	"dsteiner/internal/graph"
	"dsteiner/internal/pq"
)

// Rank is one simulated MPI process. All methods are valid only on the
// rank's own goroutine (inside Comm.Run's body).
type Rank struct {
	comm *Comm
	id   int
	box  *mailbox
	out  [][]Msg // per-destination outgoing buffers

	// shard is this rank's local graph substrate (owned-adjacency slab +
	// delegate stripes), installed by Comm.AttachShards. Traversal code
	// reads adjacency through Shard and EdgeWeight so it never touches the
	// global CSR.
	shard *graph.Shard

	// state is this rank's local control-state slab (owned vertices'
	// per-vertex algorithm state), installed by Comm.AttachStateSlabs.
	// The runtime only resets and accounts it; algorithms type-assert to
	// their concrete slab (internal/voronoi.SlabOf).
	state StateSlab

	// Traversal-scoped state. byKey is set when the traversal has a Key
	// under QueuePriority and queues in prio; every other traversal queues
	// in fifo. Both keep their capacity across traversals.
	byKey   bool
	prio    *pq.Indexed[Msg]
	fifo    *pq.FIFO[Msg]
	keyOf   KeyFunc
	slotOf  func(Msg) int32 // Traversal.Slot, nil when no slots
	visit   VisitFunc
	admit   func(r *Rank, m Msg) bool // optional inbound fold (Traversal.Admit)
	shuffle *rand.Rand
	// bsp defers local sends to the next superstep via the mailbox.
	bsp bool
	// free recycles cross-rank batch buffers: drainInbox parks drained
	// batches here and Send reuses them, so steady-state traffic stops
	// allocating (~7 append-growth allocations per 64-message batch
	// otherwise — the dominant allocation source of a solve).
	free [][]Msg

	// Delegate outbox (superstep broadcast batching): BroadcastBatched
	// stages at most one pending broadcast per delegate, keeping only the
	// lexicographically best (Dist, Seed) offer; flushOutbox releases the
	// stage at superstep boundaries. k rapid improvements of one hub thus
	// cost one P-way broadcast instead of k.
	doutIdx map[graph.VID]int32
	dout    []Msg

	// Per-traversal counters (reset by Traverse), rank-private: the shared
	// counters see them once per batch (publish) or per traversal (finish).
	sentHere       int64
	processedHere  int64
	droppedHere    int64 // inbound messages finished by Admit
	replacedHere   int64 // queue entries replaced by a push for their slot
	suppressedHere int64
	coalescedHere  int64
	// counted is set for loopback asynchronous traversals, whose quiescence
	// is detected with Comm.pending; published is the part of this rank's
	// outstanding balance already added to it.
	counted   bool
	published int64
}

// ID returns this rank's index in [0, NumRanks).
func (r *Rank) ID() int { return r.id }

// NumRanks returns the communicator size.
func (r *Rank) NumRanks() int { return r.comm.cfg.Ranks }

// Owner returns the rank owning vertex v's state.
func (r *Rank) Owner(v graph.VID) int { return r.comm.part.Owner(v) }

// Owns reports whether this rank owns v.
func (r *Rank) Owns(v graph.VID) bool { return r.comm.part.Owner(v) == r.id }

// IsDelegate reports whether v is a high-degree delegate vertex.
func (r *Rank) IsDelegate(v graph.VID) bool { return r.comm.part.IsDelegate(v) }

// HasDelegates reports whether the partition marks any delegates at all —
// a cheap gate that lets per-edge delegate checks (the changed-since
// broadcast filter) vanish entirely on delegate-free partitions.
func (r *Rank) HasDelegates() bool { return r.comm.part.NumDelegates() > 0 }

// Shard returns this rank's local graph shard, or nil before AttachShards.
func (r *Rank) Shard() *graph.Shard { return r.shard }

// StateSlab returns this rank's local control-state slab, or nil before
// Comm.AttachStateSlabs. Algorithms assert it to their concrete slab type
// (the solver uses internal/voronoi.StateSlab via voronoi.SlabOf).
func (r *Rank) StateSlab() StateSlab { return r.state }

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
	r.enqueueLocal(m)
}

// publish adds the change in this rank's outstanding balance — messages
// sent or staged minus messages visited, dropped or replaced — to the shared
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
	balance := r.sentHere + int64(len(r.dout)) - r.processedHere - r.droppedHere - r.replacedHere
	if d := balance - r.published; d != 0 {
		r.published = balance
		if r.comm.pending.Add(d) == 0 {
			r.comm.closeDone()
		}
	}
}

// Suppress records one cross-rank relaxation dropped by the sender
// (internal/voronoi): the offer was provably rejectable against a local
// bound — the delegate mirror, or the best offer this rank already sent that
// vertex — so it was never sent. Surfaced as Stats.Suppressed once the
// traversal completes (Rank.finish).
func (r *Rank) Suppress() { r.suppressedHere++ }

// Broadcast routes m to every rank including this one (used for delegate
// hub updates). Each copy counts as one sent message.
func (r *Rank) Broadcast(m Msg) {
	for dest := 0; dest < r.NumRanks(); dest++ {
		r.sentHere++
		if dest == r.id && !r.bsp {
			r.enqueueLocal(m)
			continue
		}
		r.buffer(dest, m)
	}
}

// BroadcastBatched stages m in the delegate outbox instead of broadcasting
// eagerly. At most one offer per delegate (m.Target) is staged: a strictly
// lex-better (Dist, Seed) offer replaces the stage, anything else — worse
// offers and exact ties — is absorbed (counted as coalesced). Absorbing a
// tie is safe because the staged message is byte-identical to the absorbed
// one; the tie-send rule the changed-since filter depends on concerns
// distinct senders, and the flush always releases the staged best.
//
// A staged entry counts toward the rank's outstanding balance (publish), so
// an asynchronous traversal cannot be declared terminated while offers sit
// in an outbox.
func (r *Rank) BroadcastBatched(m Msg) {
	if i, ok := r.doutIdx[m.Target]; ok {
		s := &r.dout[i]
		if m.Dist < s.Dist || (m.Dist == s.Dist && m.Seed < s.Seed) {
			*s = m
		}
		r.coalescedHere++
		return
	}
	if r.doutIdx == nil {
		r.doutIdx = make(map[graph.VID]int32)
	}
	r.doutIdx[m.Target] = int32(len(r.dout))
	r.dout = append(r.dout, m)
}

// flushOutbox broadcasts every staged delegate offer and clears the stage,
// reporting whether anything was flushed. The stage is cleared only after
// its broadcasts are counted as sent, so a publish mid-flush over-counts.
func (r *Rank) flushOutbox() bool {
	n := len(r.dout)
	if n == 0 {
		return false
	}
	for _, m := range r.dout {
		r.Broadcast(m)
	}
	r.comm.batchedBroadcasts.Add(int64(n))
	r.dout = r.dout[:0]
	clear(r.doutIdx)
	return true
}

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
// past a small private reserve the buffer goes to the shared pool so
// send-heavy peers can claim it.
func (r *Rank) recycleBuf(buf []Msg) {
	if cap(buf) == 0 {
		return
	}
	if len(r.free) < 128 {
		r.free = append(r.free, buf[:0])
		return
	}
	r.comm.shareBuf(buf[:0])
}

// enqueueLocal pushes m onto the local discipline queue. On the priority
// queue, a push for a slot that is already queued replaces that entry.
func (r *Rank) enqueueLocal(m Msg) {
	if !r.byKey {
		r.fifo.Push(m)
		return
	}
	slot := int32(-1)
	if r.slotOf != nil {
		slot = r.slotOf(m)
	}
	if r.prio.Push(m, r.keyOf(m), slot) {
		r.replacedHere++
	}
}

// pop removes the traversal's next queued message.
func (r *Rank) pop() (Msg, bool) {
	if r.byKey {
		return r.prio.Pop()
	}
	return r.fifo.Pop()
}

// queued returns the number of messages in the traversal's queue.
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
		l.box.put(buf)
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
// injection), and recycles the drained buffers. Messages of a keyed
// traversal move into the local queue; an unordered asynchronous traversal
// visits them straight out of their batch — order does not matter, so
// copying them into a queue first would only cost the memory — and queues
// nothing but its self-sends. It reports whether any message was moved or
// visited.
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
	direct := r.keyOf == nil && !r.bsp
	moved := false
	for _, batch := range batches {
		if r.shuffle != nil {
			r.shuffle.Shuffle(len(batch), func(i, j int) {
				batch[i], batch[j] = batch[j], batch[i]
			})
		}
		for _, m := range batch {
			switch {
			case r.admit != nil && !r.admit(r, m):
				// Finished on arrival; the next publish releases its unit
				// of the termination counter.
				r.droppedHere++
			case direct:
				r.visit(r, m)
				r.processedHere++ // after the visit: see publish
				moved = true
			default:
				r.enqueueLocal(m)
				moved = true
			}
		}
		// Messages are visited or copied into the queue; the buffer is free.
		r.recycleBuf(batch)
	}
	r.box.recycle(batches)
	return moved
}

// setQueue empties and selects this rank's queue for a traversal: the
// indexed heap prio when messages carry a priority key under QueuePriority,
// the FIFO ring otherwise — under QueueFIFO or when order does not matter.
// Both queues keep their capacity across phases and queries.
func (r *Rank) setQueue(keyed bool) {
	r.byKey = keyed && r.comm.cfg.Queue == QueuePriority
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
