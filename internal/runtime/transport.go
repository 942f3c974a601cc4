package runtime

import "sync"

// Transport carries cross-process traffic for a communicator that hosts
// only a subset of the P ranks (Config.HostLo/HostHi). It is the seam the
// ROADMAP's multi-process backend plugs into: message batches, collectives
// and termination detection cross it, while the visitor code above —
// which already cannot reach outside shard + slab + mailbox — is unchanged.
//
// Two implementations exist: loopback (a nil Transport — all ranks
// in-process, mailbox delivery, the perf baseline) and the TCP backend in
// internal/transport (length-prefixed wire frames, per-peer write
// coalescing, collectives over the worker mesh and a Safra-style
// termination-token ring).
//
// Contract: Deliver and the collective calls originate on rank goroutines;
// Inbound traffic flows back through the TransportHost the communicator
// registers via Attach. A transport that fails (peer loss, decode error)
// must panic out of any blocked call and Poison the host so every local
// rank unwinds instead of hanging.
type Transport interface {
	// Attach registers the communicator-side callbacks. Called once,
	// before any traffic.
	Attach(host TransportHost)
	// Deliver ships one visitor-message batch to remote rank dest, whole
	// and in send order: every message was counted as sent for
	// termination detection, so every one must reach the receiver's
	// Inbound, which counts it back. The transport takes ownership of the
	// batch buffer and recycles it through the host's free lists after
	// encoding.
	Deliver(dest int, batch []Msg)
	// Barrier runs the cross-process phase of a barrier. It must also act
	// as a delivery fence: every batch Delivered by any process before it
	// entered the barrier is in the destination mailboxes when Barrier
	// returns.
	Barrier()
	// AllreduceInt64 runs the cross-process phase of an int64 allreduce
	// over the per-process partial x (op is OpSum, OpMin or OpMax).
	AllreduceInt64(op CollOp, x int64) int64
	// Exchange runs the cross-process phase of the one byte collective:
	// blobs are this process's hosted ranks' routed contributions (Dest = a
	// global rank, or -1 for broadcast-to-all); the result is every blob
	// addressed to one of this process's hosted ranks plus every broadcast
	// blob. Each process sends a peer only the blobs addressed to that
	// peer's ranks plus the broadcasts, so a routed blob crosses the wire
	// once.
	Exchange(blobs []Blob) []Blob
	// StartTraversal arms distributed termination detection for
	// asynchronous traversal #seq and returns a channel the transport
	// closes at global quiescence (the communicator only receives from
	// it). The transport drives the host's HoldToken as termination
	// tokens arrive.
	StartTraversal(seq uint64) chan struct{}
	// Stats returns cumulative traffic counters.
	Stats() TransportStats
	// Close tears the transport down.
	Close() error
}

// TransportHost is the communicator-side surface a Transport drives:
// inbound delivery, batch-buffer recycling and termination-token handling.
// *Comm implements it.
type TransportHost interface {
	// Inbound delivers a decoded remote batch to local rank dest's
	// mailbox, counting it for termination detection. Takes ownership.
	Inbound(dest int, batch []Msg)
	// BatchBuf returns a recycled message buffer for decoding into.
	BatchBuf() []Msg
	// RecycleBatch returns an encoded (drained) batch buffer to the
	// communicator's free lists.
	RecycleBatch(batch []Msg)
	// HoldToken blocks until this process is passive — every hosted rank
	// idle with an empty mailbox and all outgoing buffers flushed — then
	// folds the process's in-flight counter into q and its color into
	// black, resets the color to white, and returns the updated token.
	HoldToken(q int64, black bool) (int64, bool)
	// Poison aborts every local rank (peer process failure).
	Poison()
}

// Blob is one routed contribution to an Exchange: Src is the contributing
// global rank, Dest the receiving global rank (-1 = broadcast to every
// rank).
type Blob struct {
	Src  int
	Dest int
	Blob []byte
}

// CollOp selects the combining operation of a cross-process collective.
type CollOp uint8

const (
	// OpBarrier synchronizes with no payload.
	OpBarrier CollOp = 1 + iota
	// OpSum sums int64 contributions.
	OpSum
	// OpMin takes the minimum int64 contribution.
	OpMin
	// OpMax takes the maximum int64 contribution.
	OpMax
	// OpExchange routes blobs by destination rank; its reply is
	// personalized per process.
	OpExchange
)

// TransportStats are a transport's cumulative traffic counters, surfaced
// through Comm.Stats so the loopback-vs-TCP overhead is visible per query.
// All zero for loopback communicators.
type TransportStats struct {
	// FramesOut/FramesIn count wire frames written/read.
	FramesOut, FramesIn int64
	// BytesOut/BytesIn count frame bytes (including length prefixes).
	BytesOut, BytesIn int64
	// EncodeNs/DecodeNs are cumulative nanoseconds spent in the wire
	// codec.
	EncodeNs, DecodeNs int64
	// FlushesSmall/Mid/Large histogram the per-peer socket flush sizes:
	// < 4 KiB, [4 KiB, 256 KiB), ≥ 256 KiB. A tail of small flushes means
	// latency-bound control traffic; large ones mean coalescing works.
	FlushesSmall, FlushesMid, FlushesLarge int64
}

// Add returns the field-wise sum of two counter snapshots, for aggregating
// per-query deltas into service-lifetime totals.
func (s TransportStats) Add(o TransportStats) TransportStats {
	s.FramesOut += o.FramesOut
	s.FramesIn += o.FramesIn
	s.BytesOut += o.BytesOut
	s.BytesIn += o.BytesIn
	s.EncodeNs += o.EncodeNs
	s.DecodeNs += o.DecodeNs
	s.FlushesSmall += o.FlushesSmall
	s.FlushesMid += o.FlushesMid
	s.FlushesLarge += o.FlushesLarge
	return s
}

// Sub returns s − o field by field: the traffic between two snapshots of
// cumulative counters.
func (s TransportStats) Sub(o TransportStats) TransportStats {
	s.FramesOut -= o.FramesOut
	s.FramesIn -= o.FramesIn
	s.BytesOut -= o.BytesOut
	s.BytesIn -= o.BytesIn
	s.EncodeNs -= o.EncodeNs
	s.DecodeNs -= o.DecodeNs
	s.FlushesSmall -= o.FlushesSmall
	s.FlushesMid -= o.FlushesMid
	s.FlushesLarge -= o.FlushesLarge
	return s
}

// termState tracks what Safra-style termination detection needs from this
// process: how many hosted ranks are blocked idle, the cross-process
// (sent − received) message counter, and the color (black after any
// receive since the token last left). All fields are guarded by mu.
type termState struct {
	mu     sync.Mutex
	idle   int
	sent   int64
	recv   int64
	black  bool
	notify chan struct{} // 1-buffered nudge for HoldToken waiters
}

// reset rearms the tracker at the start of an asynchronous traversal. All
// ranks are running (not idle) and no messages are in flight — the caller
// synchronizes with barriers on both sides.
func (t *termState) reset() {
	t.mu.Lock()
	t.idle = 0
	t.sent, t.recv = 0, 0
	t.black = true // conservative: force at least two token rounds
	select {
	case <-t.notify:
	default:
	}
	t.mu.Unlock()
}

// addSent counts n messages handed to the transport.
func (t *termState) addSent(n int) {
	t.mu.Lock()
	t.sent += int64(n)
	t.mu.Unlock()
}

// rankIdle marks one hosted rank as blocked idle and nudges any waiting
// token holder.
func (t *termState) rankIdle() {
	t.mu.Lock()
	t.idle++
	t.mu.Unlock()
	select {
	case t.notify <- struct{}{}:
	default:
	}
}

// rankBusy marks one hosted rank as running again.
func (t *termState) rankBusy() {
	t.mu.Lock()
	t.idle--
	t.mu.Unlock()
}

// HoldToken implements TransportHost: it blocks until every hosted rank is
// blocked idle with an empty mailbox (all local and outbound work drained),
// folds this process's counter and color into the token, whitens the
// process, and returns the token. On abort it returns a black token so a
// poisoned run can never be declared terminated.
func (c *Comm) HoldToken(q int64, black bool) (int64, bool) {
	t := &c.term
	for {
		t.mu.Lock()
		if t.idle == len(c.ranks) && c.mailboxesEmpty() {
			q += t.sent - t.recv
			black = black || t.black
			t.black = false
			t.mu.Unlock()
			return q, black
		}
		t.mu.Unlock()
		select {
		case <-t.notify:
		case <-c.abort:
			return q, true
		}
	}
}

// mailboxesEmpty reports whether every hosted rank's mailbox is drained.
// Callers hold term.mu; mailbox locks nest strictly inside it.
func (c *Comm) mailboxesEmpty() bool {
	for _, r := range c.ranks {
		if r.box.len() != 0 {
			return false
		}
	}
	return true
}

// Inbound implements TransportHost: deliver a remote batch to local rank
// dest. Counting it, turning the process black and making it visible in the
// mailbox are one step under term.mu (mailbox locks nest inside it, as in
// HoldToken). Counted first and delivered later, a receive could be folded
// into two tokens while the process still looked passive — idle ranks, empty
// mailboxes — the first fold taking the color, the second one white: a
// traversal was declared terminated with the batch undelivered, and whatever
// it went on to cause arrived in the next phase.
func (c *Comm) Inbound(dest int, batch []Msg) {
	r := c.localRank(dest)
	if r == nil {
		panic("runtime: transport delivered a batch for a rank this process does not host")
	}
	t := &c.term
	t.mu.Lock()
	t.recv += int64(len(batch))
	t.black = true
	copied := r.box.put(batch)
	t.mu.Unlock()
	if copied {
		c.shareBuf(batch[:0])
	}
}

// BatchBuf implements TransportHost: a recycled buffer for the transport's
// decode path, drawn from the communicator's shared free lists.
func (c *Comm) BatchBuf() []Msg {
	if buf, ok := c.sharedBuf(); ok {
		return buf
	}
	return make([]Msg, 0, c.cfg.BatchSize)
}

// RecycleBatch implements TransportHost: return an encoded batch buffer to
// the shared pool.
func (c *Comm) RecycleBatch(batch []Msg) { c.shareBuf(batch[:0]) }

// Poison implements TransportHost: abort every local rank (used by the
// transport on peer failure).
func (c *Comm) Poison() { c.poison() }
