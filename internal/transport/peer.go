// Package transport implements the TCP rank transport behind the
// runtime.Transport seam: real processes exchanging the solver's visitor
// messages, collectives and termination tokens over length-prefixed wire
// frames (internal/wire), the multi-process backend the ROADMAP's
// "rank becomes a process" plan calls for.
//
// Topology: one coordinator (Hub — inside the steinersvc/core process that
// owns the graph) and W workers (cmd/rankd). Control traffic — handshake,
// termination tokens, solve requests and results — flows worker ↔
// coordinator. Visitor-message batches and collectives flow directly worker
// ↔ worker over a full mesh dialed during the handshake, with per-peer write
// coalescing so many batches share one syscall: a collective is one frame
// per peer, combined by each receiver, never a round trip through the
// coordinator.
package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"time"

	"dsteiner/internal/wire"
)

// maxPend bounds a peer's coalescing buffer. A sender that outruns the
// peer's reader blocks here — the MPI-like backpressure that keeps a
// slow receiver from pinning unbounded memory on the sender. Deadlock-free
// because readers drain unconditionally into unbounded mailboxes.
const maxPend = 8 << 20

// Small control frames (tokens, collective contributions) bypass
// the maxPend backpressure up to an extra smallSlack: a termination token
// must not stall behind megabytes of queued visitor batches, or the system
// idles waiting for a token that is itself waiting for the system to idle.
const (
	smallFrame = 256
	smallSlack = 64 << 10
)

// readBufSize sizes the per-connection buffered reader. Raw frame reads
// cost two syscalls each (length prefix + body); buffering turns a burst
// of small frames into one read syscall.
const readBufSize = 64 << 10

// peer is one framed connection with write coalescing: senders append
// frames to a pending buffer under a short lock and a dedicated writer
// goroutine flushes whole buffers per syscall. Reads happen on the
// owner's read loop, not here.
type peer struct {
	conn net.Conn
	// br buffers inbound frame reads. Only the owner's read loop touches
	// it; handshake traffic is read raw from the conn before the peer is
	// built, so no bytes can be stranded in the buffer at creation.
	br *bufio.Reader

	mu      sync.Mutex
	wake    *sync.Cond // writer: pending bytes available (or closed)
	space   *sync.Cond // senders: pending buffer drained below maxPend
	pend    []byte
	spare   []byte // recycled flushed buffer
	writing bool   // writer holds a swapped-out buffer mid-syscall
	closed  bool
	err     error

	onWrite func(frames, bytes int64) // stats hook (may be nil)
	frames  int64                     // frames appended since last flush
}

// newPeer wraps conn and starts its writer goroutine.
func newPeer(conn net.Conn, onWrite func(frames, bytes int64)) *peer {
	p := &peer{conn: conn, br: bufio.NewReaderSize(conn, readBufSize), onWrite: onWrite}
	p.wake = sync.NewCond(&p.mu)
	p.space = sync.NewCond(&p.mu)
	go p.writeLoop()
	return p
}

// appendFrame appends one length-prefixed frame built in place by build
// (which must only append to its argument and return the result). Blocks
// while the coalescing buffer is over maxPend; small control frames get
// smallSlack extra headroom so they never queue behind full visitor-batch
// backpressure.
func (p *peer) appendFrame(small bool, build func(dst []byte) []byte) error {
	limit := maxPend
	if small {
		limit += smallSlack
	}
	p.mu.Lock()
	for len(p.pend) > limit && !p.closed {
		p.space.Wait()
	}
	if p.closed {
		err := p.err
		p.mu.Unlock()
		if err == nil {
			err = net.ErrClosed
		}
		return err
	}
	off := len(p.pend)
	p.pend = append(p.pend, 0, 0, 0, 0)
	p.pend = build(p.pend)
	n := len(p.pend) - off - 4
	if n <= 0 || n > wire.MaxFrame {
		p.pend = p.pend[:off] // drop the malformed frame, keep the stream sane
		p.mu.Unlock()
		return fmt.Errorf("transport: bad frame size %d", n)
	}
	binary.LittleEndian.PutUint32(p.pend[off:], uint32(n))
	p.frames++
	p.mu.Unlock()
	p.wake.Signal()
	return nil
}

// send appends an already-encoded frame payload (type byte first).
func (p *peer) send(payload []byte) error {
	return p.appendFrame(len(payload) <= smallFrame, func(dst []byte) []byte { return append(dst, payload...) })
}

// writeLoop flushes coalesced frames until the peer closes.
func (p *peer) writeLoop() {
	for {
		p.mu.Lock()
		for len(p.pend) == 0 && !p.closed {
			p.wake.Wait()
		}
		if len(p.pend) == 0 && p.closed {
			p.mu.Unlock()
			return
		}
		buf := p.pend
		frames := p.frames
		p.pend, p.spare = p.spare[:0], nil
		p.frames = 0
		p.writing = true
		p.mu.Unlock()
		p.space.Broadcast()

		_, err := p.conn.Write(buf)
		if p.onWrite != nil {
			p.onWrite(frames, int64(len(buf)))
		}
		p.mu.Lock()
		p.writing = false
		if err != nil && p.err == nil {
			p.err = err
			p.closed = true
		}
		if p.spare == nil && cap(buf) <= maxPend {
			p.spare = buf[:0]
		}
		closed := p.closed
		p.mu.Unlock()
		if closed && err != nil {
			p.space.Broadcast()
			return
		}
	}
}

// close shuts the connection down: no new frames are accepted, the writer
// gets a bounded chance to drain what is already queued (session-ending
// goodbyes must reach the wire), then the socket dies and blocked senders
// unblock.
func (p *peer) close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.wake.Signal()
	p.space.Broadcast()
	deadline := time.Now().Add(2 * time.Second)
	for {
		p.mu.Lock()
		drained := (len(p.pend) == 0 && !p.writing) || p.err != nil
		p.mu.Unlock()
		if drained || time.Now().After(deadline) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	_ = p.conn.Close()
}

// readFrame reads the next inbound frame on the caller's goroutine,
// through the connection's buffered reader.
func (p *peer) readFrame(buf []byte) ([]byte, error) {
	return wire.ReadFrame(p.br, buf)
}
