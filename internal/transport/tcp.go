package transport

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	rt "dsteiner/internal/runtime"
	"dsteiner/internal/wire"
)

// ControlKind identifies an application-level control frame the transport
// hands up to its owning worker loop.
type ControlKind uint8

const (
	// ControlSolve carries a query broadcast from the coordinator.
	ControlSolve ControlKind = 1 + iota
	// ControlGoodbye ends the session cleanly.
	ControlGoodbye
	// ControlAbort reports a poisoned session (Err holds the reason).
	ControlAbort
)

// Control is one application-level frame delivered to the worker loop;
// ControlSolve populates Spec.
type Control struct {
	Kind ControlKind
	Spec wire.SolveSpec
	Err  error
}

// TCP is the worker-side runtime.Transport: visitor-message batches and
// collectives flow directly between peer workers over coalescing framed
// connections, while termination tokens and control frames flow through the
// coordinator. A collective is one FrameColl to every peer; each worker
// checks and combines its peers' frames itself. One TCP backs one
// runtime.Comm hosting the worker's rank range.
type TCP struct {
	self   int
	rankLo []int64 // len W+1; worker w hosts ranks [rankLo[w], rankLo[w+1])

	coord *peer
	peers []*peer // indexed by worker; peers[self] == nil

	host rt.TransportHost

	// Collective state. Only the process leader rank calls collectives,
	// one at a time, and numbers them with collSeq (collBuf is the
	// exchange's payload scratch). A peer's read loop checks each FrameColl against peerSeq[w],
	// the last sequence it took from that peer, and queues it on collIn[w].
	// A peer sends collective #n only after this worker's frame #n-1
	// reached it, so it runs at most one collective ahead: two queue slots
	// suffice.
	collSeq uint64
	collBuf []byte
	peerSeq []uint64
	collIn  []chan collIn

	// Asynchronous-traversal termination sessions.
	travMu   sync.Mutex
	travDone map[uint64]chan struct{}

	// Control frames for the worker loop.
	controls chan Control

	// Failure state: first error wins, failCh unblocks waiters. closing
	// marks a clean session end (goodbye seen), after which peer-link
	// EOFs are expected, not failures.
	failOnce sync.Once
	failErr  atomic.Value // error
	failCh   chan struct{}
	closing  atomic.Bool

	// Traffic counters (runtime.TransportStats).
	framesOut, framesIn atomic.Int64
	bytesOut, bytesIn   atomic.Int64
	encodeNs, decodeNs  atomic.Int64
	flushSmall          atomic.Int64
	flushMid            atomic.Int64
	flushLarge          atomic.Int64

	closeOnce sync.Once
}

var _ rt.Transport = (*TCP)(nil)

// NewTCP assembles the worker-side transport from the session's
// connections: coord is the dialed coordinator link, peerConns[w] the mesh
// link to worker w (nil for self), and rankLo the handshake's rank ranges.
// Read loops start immediately; attach the host communicator before any
// traffic can arrive (i.e. before sending Ready).
func NewTCP(self int, rankLo []int64, coord net.Conn, peerConns []net.Conn) *TCP {
	t := &TCP{
		self:     self,
		rankLo:   rankLo,
		peerSeq:  make([]uint64, len(peerConns)),
		collIn:   make([]chan collIn, len(peerConns)),
		travDone: make(map[uint64]chan struct{}),
		controls: make(chan Control, 4),
		failCh:   make(chan struct{}),
	}
	onWrite := func(frames, bytes int64) {
		t.framesOut.Add(frames)
		t.bytesOut.Add(bytes)
		switch {
		case bytes < 4<<10:
			t.flushSmall.Add(1)
		case bytes < 256<<10:
			t.flushMid.Add(1)
		default:
			t.flushLarge.Add(1)
		}
	}
	t.coord = newPeer(coord, onWrite)
	t.peers = make([]*peer, len(peerConns))
	for w, c := range peerConns {
		if c == nil {
			continue
		}
		t.peers[w] = newPeer(c, onWrite)
		t.collIn[w] = make(chan collIn, 2)
	}
	return t
}

// Attach implements runtime.Transport; it also starts the read loops, so
// the communicator must be fully constructed first.
func (t *TCP) Attach(host rt.TransportHost) {
	t.host = host
	go t.readCoord()
	for w, p := range t.peers {
		if p != nil {
			go t.readPeer(w, p)
		}
	}
}

// Controls returns the channel the worker loop consumes solve/goodbye/
// abort frames from.
func (t *TCP) Controls() <-chan Control { return t.controls }

// workerOf maps a global rank to the worker hosting it (binary search over
// the contiguous rank ranges).
func (t *TCP) workerOf(rank int) int {
	lo, hi := 0, len(t.rankLo)-2
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if int(t.rankLo[mid]) <= rank {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// Deliver implements runtime.Transport: encode the batch, in send order,
// into the owning peer's coalescing buffer and recycle the batch buffer
// into the communicator's free lists. The batch stays pending until the
// buffer passes writeMark, a collective or control frame follows it, or
// Flush.
func (t *TCP) Deliver(dest int, batch []rt.Msg) {
	w := t.workerOf(dest)
	p := t.peers[w]
	if p == nil {
		t.fail(fmt.Errorf("transport: rank %d maps to self (worker %d)", dest, w))
		panic(errPoisoned)
	}
	// Only the encode is timed: appendBatch also waits for the peer's lock
	// and on maxPend backpressure, which is not codec time.
	var encode time.Duration
	err := p.appendBatch(func(dst []byte) []byte {
		start := time.Now()
		dst, _ = wire.AppendMsgBatch2(dst, dest, batch)
		encode = time.Since(start)
		return dst
	})
	t.encodeNs.Add(encode.Nanoseconds())
	t.host.RecycleBatch(batch)
	if err != nil {
		t.fail(fmt.Errorf("transport: deliver to worker %d: %w", w, err))
		panic(errPoisoned)
	}
}

// Flush implements runtime.Transport: every peer with batches pending
// gets them written now.
func (t *TCP) Flush() {
	for _, p := range t.peers {
		if p != nil {
			p.flush()
		}
	}
}

// errPoisoned is the panic payload that unwinds rank goroutines blocked on
// a failed transport; Comm.Run converts it back into a run panic and the
// worker loop reports the underlying failure.
const errPoisoned = "transport: session poisoned"

// fail records the first fatal error, poisons the host communicator and
// unblocks every waiter.
func (t *TCP) fail(err error) {
	t.failOnce.Do(func() {
		t.failErr.Store(err)
		close(t.failCh)
		if t.host != nil {
			t.host.Poison()
		}
		// Traversal done channels stay open: ranks blocked on them are
		// released through the poisoned abort channel instead, so a
		// failed session can never look quiesced.
		select {
		case t.controls <- Control{Kind: ControlAbort, Err: err}:
		default:
		}
	})
}

// Err returns the fatal error that poisoned the session, or nil.
func (t *TCP) Err() error {
	if e, ok := t.failErr.Load().(error); ok {
		return e
	}
	return nil
}

// collIn is one peer's checked contribution to a collective.
type collIn struct {
	op    rt.CollOp
	x     int64     // the allreduces' contribution
	blobs []rt.Blob // OpExchange's blobs for this worker's ranks
}

// collective runs collective #n: send a FrameColl carrying payload(w) to
// every peer w, then wait for every peer's frame #n and return them. Each
// frame goes out behind every batch Delivered to that peer before it, and
// frames are FIFO per connection, so once every peer's frame has arrived all
// their pre-collective batches are in the mailboxes: every collective is
// also a delivery barrier (what BSP supersteps rely on).
func (t *TCP) collective(op rt.CollOp, payload func(w int) []byte) []collIn {
	t.collSeq++
	seq := t.collSeq
	for w, p := range t.peers {
		if p == nil {
			continue
		}
		pl := payload(w)
		// Control-sized headroom: a collective must not queue behind full
		// batch backpressure.
		if err := p.appendFrame(true, func(dst []byte) []byte {
			return wire.EncodeColl(dst, wire.Coll{Seq: seq, Op: op, Payload: pl})
		}); err != nil {
			t.fail(fmt.Errorf("transport: collective %d to worker %d: %w", seq, w, err))
			panic(errPoisoned)
		}
	}
	ins := make([]collIn, 0, len(t.peers))
	for w, ch := range t.collIn {
		if ch == nil {
			continue
		}
		select {
		case in := <-ch:
			if in.op != op {
				t.fail(fmt.Errorf("transport: collective %d op mismatch (%d vs %d) from worker %d", seq, op, in.op, w))
				panic(errPoisoned)
			}
			ins = append(ins, in)
		case <-t.failCh:
			panic(errPoisoned)
		}
	}
	return ins
}

// acceptColl checks one FrameColl from worker w and decodes its payload: the
// op must be known, the sequence w's next, and every exchanged blob must come
// from a rank w hosts and be addressed to this worker's ranks or broadcast.
// Whether the op is the one this worker runs at that sequence — programs
// that diverged — is checked in collective, where the local op is known.
func (t *TCP) acceptColl(w int, body []byte) (collIn, error) {
	c, err := wire.DecodeColl(body)
	if err != nil {
		return collIn{}, fmt.Errorf("transport: collective from worker %d: %w", w, err)
	}
	if c.Op < rt.OpBarrier || c.Op > rt.OpExchange {
		return collIn{}, fmt.Errorf("transport: collective %d: unknown op %d from worker %d", c.Seq, c.Op, w)
	}
	switch next := t.peerSeq[w] + 1; {
	case c.Seq < next:
		return collIn{}, fmt.Errorf("transport: collective %d: worker %d contributed twice", c.Seq, w)
	case c.Seq > next:
		return collIn{}, fmt.Errorf("transport: collective %d: worker %d skipped collective %d", c.Seq, w, next)
	}
	t.peerSeq[w] = c.Seq
	in := collIn{op: c.Op}
	switch c.Op {
	case rt.OpBarrier:
	case rt.OpExchange:
		// The payload aliases the read buffer: the blobs get their own copy.
		if in.blobs, err = wire.DecodeBlobs(append([]byte(nil), c.Payload...)); err != nil {
			return collIn{}, fmt.Errorf("transport: exchange %d from worker %d: %w", c.Seq, w, err)
		}
		lo, hi := int(t.rankLo[w]), int(t.rankLo[w+1])
		mlo, mhi := int(t.rankLo[t.self]), int(t.rankLo[t.self+1])
		for _, b := range in.blobs {
			if b.Src < lo || b.Src >= hi || (b.Dest != -1 && (b.Dest < mlo || b.Dest >= mhi)) {
				return collIn{}, fmt.Errorf("transport: exchange %d: blob %d -> %d from worker %d hosting ranks [%d,%d) to ranks [%d,%d)",
					c.Seq, b.Src, b.Dest, w, lo, hi, mlo, mhi)
			}
		}
	default:
		if in.x, err = wire.DecodeInt64(c.Payload); err != nil {
			return collIn{}, fmt.Errorf("transport: allreduce %d from worker %d: %w", c.Seq, w, err)
		}
	}
	return in, nil
}

// Barrier implements runtime.Transport.
func (t *TCP) Barrier() { t.collective(rt.OpBarrier, func(int) []byte { return nil }) }

// AllreduceInt64 implements runtime.Transport: every peer gets this
// process's partial and folds the same W partials, in any order.
func (t *TCP) AllreduceInt64(op rt.CollOp, x int64) int64 {
	pl := wire.EncodeInt64(x)
	for _, in := range t.collective(op, func(int) []byte { return pl }) {
		switch op {
		case rt.OpMin:
			x = min(x, in.x)
		case rt.OpMax:
			x = max(x, in.x)
		default:
			x += in.x
		}
	}
	return x
}

// Exchange implements runtime.Transport: each peer gets the blobs addressed
// to its rank range plus the broadcasts, and the result is this worker's
// share of its own blobs plus what every peer sent it.
func (t *TCP) Exchange(blobs []rt.Blob) []rt.Blob {
	var routed []rt.Blob
	share := func(w int) []rt.Blob {
		lo, hi := int(t.rankLo[w]), int(t.rankLo[w+1])
		routed = routed[:0]
		for _, b := range blobs {
			if b.Dest == -1 || (b.Dest >= lo && b.Dest < hi) {
				routed = append(routed, b)
			}
		}
		return routed
	}
	ins := t.collective(rt.OpExchange, func(w int) []byte {
		t.collBuf = wire.AppendBlobs(t.collBuf[:0], share(w))
		return t.collBuf
	})
	out := append([]rt.Blob(nil), share(t.self)...)
	for _, in := range ins {
		out = append(out, in.blobs...)
	}
	return out
}

// StartTraversal implements runtime.Transport: announce the asynchronous
// traversal to the coordinator and hand back the channel its
// termination-token ring will close at global quiescence.
func (t *TCP) StartTraversal(seq uint64) chan struct{} {
	ch := make(chan struct{})
	t.travMu.Lock()
	t.travDone[seq] = ch
	t.travMu.Unlock()
	if err := t.coord.appendFrame(true, func(dst []byte) []byte {
		return wire.EncodeTraverseBegin(dst, wire.TraverseBegin{Seq: seq})
	}); err != nil {
		t.fail(fmt.Errorf("transport: traverse begin: %w", err))
		panic(errPoisoned)
	}
	return ch
}

// Stats implements runtime.Transport.
func (t *TCP) Stats() rt.TransportStats {
	return rt.TransportStats{
		FramesOut:    t.framesOut.Load(),
		FramesIn:     t.framesIn.Load(),
		BytesOut:     t.bytesOut.Load(),
		BytesIn:      t.bytesIn.Load(),
		EncodeNs:     t.encodeNs.Load(),
		DecodeNs:     t.decodeNs.Load(),
		FlushesSmall: t.flushSmall.Load(),
		FlushesMid:   t.flushMid.Load(),
		FlushesLarge: t.flushLarge.Load(),
	}
}

// SendReady reports handshake completion (substrate rebuilt, mesh up) to
// the coordinator.
func (t *TCP) SendReady(r wire.Ready) error {
	return t.coord.send(wire.EncodeReady(nil, r))
}

// SendWorkerDone ships a query's closing frame to the coordinator.
func (t *TCP) SendWorkerDone(done wire.WorkerDone) error {
	return t.coord.appendFrame(true, func(dst []byte) []byte {
		return wire.EncodeWorkerDone(dst, done)
	})
}

// SendAbort reports a local failure (rank panic) to the coordinator.
func (t *TCP) SendAbort(reason string) {
	_ = t.coord.send(wire.EncodeAbort(nil, wire.Abort{Reason: reason}))
}

// abortReason decodes an Abort frame body. A corrupt or truncated Abort —
// the one frame whose job is to explain a failure — must never decay into
// an empty reason, so the decode error itself becomes the fallback.
func abortReason(body []byte) string {
	a, err := wire.DecodeAbort(body)
	if err != nil {
		return fmt.Sprintf("unreadable abort frame: %v", err)
	}
	return a.Reason
}

// InjectPeerDrop abruptly severs the mesh link to worker w, bypassing the
// coalescing writer's drain — the socket dies as if the peer process was
// killed. Fault injection only (transport.Chaos); reports whether a live
// link existed.
func (t *TCP) InjectPeerDrop(w int) bool {
	if w < 0 || w >= len(t.peers) || t.peers[w] == nil {
		return false
	}
	_ = t.peers[w].conn.Close()
	return true
}

// InjectCoordDrop abruptly severs the coordinator link. Fault injection
// only.
func (t *TCP) InjectCoordDrop() {
	_ = t.coord.conn.Close()
}

// InjectPeerTruncate writes a deliberately cut-short frame — a header
// declaring more bytes than follow — straight onto the mesh socket to
// worker w and closes it. The receiver's framed read must surface a clean
// decode error (wire.ErrTruncated / unexpected EOF), never a hang or a
// panic. Fault injection only; reports whether a live link existed.
func (t *TCP) InjectPeerTruncate(w int) bool {
	if w < 0 || w >= len(t.peers) || t.peers[w] == nil {
		return false
	}
	p := t.peers[w]
	// Raw write, racing the coalescing writer on purpose: whatever frame
	// boundary the receiver ends up mid-way through, the codec's defensive
	// decoders must turn it into a structured error.
	hdr := []byte{64, 0, 0, 0, wire.FrameMsgBatch2} // "64-byte frame" with 1 byte present
	_, _ = p.conn.Write(hdr)
	_ = p.conn.Close()
	return true
}

// Close implements runtime.Transport.
func (t *TCP) Close() error {
	t.closeOnce.Do(func() {
		t.coord.close()
		for _, p := range t.peers {
			if p != nil {
				p.close()
			}
		}
	})
	return nil
}

// readCoord consumes coordinator frames: termination tokens, traversal
// completion, solve requests and session control.
func (t *TCP) readCoord() {
	var buf []byte
	for {
		frame, err := t.coord.readFrame(buf)
		if err != nil {
			t.fail(fmt.Errorf("transport: coordinator link: %w", err))
			return
		}
		buf = frame
		t.framesIn.Add(1)
		t.bytesIn.Add(int64(len(frame)) + 4)
		typ, body := frame[0], frame[1:]
		switch typ {
		case wire.FrameToken:
			tok, err := wire.DecodeToken(body)
			if err != nil {
				t.fail(fmt.Errorf("transport: token: %w", err))
				return
			}
			// Folding the token blocks until this process is passive; a
			// goroutine keeps the read loop responsive meanwhile.
			go t.holdToken(tok)
		case wire.FrameTraverseDone:
			td, err := wire.DecodeTraverseDone(body)
			if err != nil {
				t.fail(fmt.Errorf("transport: traverse done: %w", err))
				return
			}
			t.travMu.Lock()
			if ch, ok := t.travDone[td.Seq]; ok {
				close(ch)
				delete(t.travDone, td.Seq)
			}
			t.travMu.Unlock()
		case wire.FrameSolveSpec:
			spec, err := wire.DecodeSolveSpec(body)
			if err != nil {
				t.fail(fmt.Errorf("transport: solve spec: %w", err))
				return
			}
			t.controls <- Control{Kind: ControlSolve, Spec: spec}
		case wire.FrameGoodbye:
			// Clean end. Relay the goodbye over the mesh before anyone
			// closes a link: peers that have not read their own goodbye
			// yet then see an explicit end-of-session frame instead of a
			// surprise EOF.
			t.closing.Store(true)
			for _, p := range t.peers {
				if p != nil {
					_ = p.send([]byte{wire.FrameGoodbye})
				}
			}
			t.controls <- Control{Kind: ControlGoodbye}
			return
		case wire.FrameAbort:
			t.fail(fmt.Errorf("transport: session aborted by coordinator: %s", abortReason(body)))
			return
		default:
			t.fail(fmt.Errorf("transport: unexpected coordinator frame type %d", typ))
			return
		}
	}
}

// holdToken folds the Safra token through the host (blocking until local
// passivity) and returns it to the coordinator.
func (t *TCP) holdToken(tok wire.Token) {
	q, black := t.host.HoldToken(tok.Q, tok.Black)
	if t.Err() != nil {
		return
	}
	if err := t.coord.appendFrame(true, func(dst []byte) []byte {
		return wire.EncodeToken(dst, wire.Token{Seq: tok.Seq, Q: q, Black: black})
	}); err != nil {
		t.fail(fmt.Errorf("transport: token return: %w", err))
	}
}

// readPeer consumes mesh frames from worker w: message batches into the
// hosted mailboxes, collective contributions into w's collective queue.
func (t *TCP) readPeer(w int, p *peer) {
	var buf []byte
	for {
		frame, err := p.readFrame(buf)
		if err != nil {
			if t.closing.Load() {
				return // session ending: peer teardown is expected
			}
			t.fail(fmt.Errorf("transport: peer %d link: %w", w, err))
			return
		}
		buf = frame
		t.framesIn.Add(1)
		t.bytesIn.Add(int64(len(frame)) + 4)
		typ, body := frame[0], frame[1:]
		switch typ {
		case wire.FrameGoodbye:
			return // peer is shutting down cleanly
		case wire.FrameMsgBatch2:
			start := time.Now()
			dest, batch, err := wire.DecodeMsgBatch2(body, t.host.BatchBuf())
			t.decodeNs.Add(time.Since(start).Nanoseconds())
			if err != nil {
				t.fail(fmt.Errorf("transport: batch from worker %d: %w", w, err))
				return
			}
			t.host.Inbound(dest, batch)
		case wire.FrameColl:
			in, err := t.acceptColl(w, body)
			if err != nil {
				t.fail(err)
				return
			}
			select {
			case t.collIn[w] <- in:
			default:
				t.fail(fmt.Errorf("transport: collective %d: worker %d ran more than one collective ahead", t.peerSeq[w], w))
				return
			}
		default:
			t.fail(fmt.Errorf("transport: unexpected peer frame type %d", typ))
			return
		}
	}
}
