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
// ↔ worker over a full mesh dialed during the handshake: a collective is one
// frame per peer, combined by each receiver, never a round trip through the
// coordinator.
//
// Writes are coalesced per peer so many batches share one syscall. A
// visitor batch only joins the peer's pending buffer; the peer's writer
// goroutine wakes when that buffer passes writeMark, when a collective,
// token or control frame is queued behind it (the frame carries the batches
// ahead of it on the same FIFO link), or when the owning rank runs out of
// local work and calls TCP.Flush before it parks.
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

// writeMark is the pending visitor-batch bytes at which a peer's writer
// wakes without waiting for a collective, a control frame or Flush. Below
// it batches wait for the sending rank to run out of work, so a busy rank
// writes its socket about once per 8 KiB (≈20 batches) instead of once per
// batch. A sweep on a 2-vCPU box (2-worker engine on the R-MAT 2^15 × 16
// traverse graph, 150 warm 16-terminal queries a run, 3 alternating runs
// a mark) read p50 latency 31.2/25.4/28.3 ms at 4 KiB, 28.4/21.7/29.4 ms
// at 8 KiB and 25.2/23.5/26.9 ms at 16 KiB, against 31.8/27.9/28.4 ms
// writing every batch; writes per query 163–165, 135–140 and 116–120
// against 689–725. Each doubling delays offers more — phase-1 processed
// messages 39.3–39.7 K, 40.3–40.9 K and 40.7–42.9 K against 37.6–38.7 K —
// while the latencies do not separate 8 KiB from 16 KiB.
const writeMark = 8 << 10

// readBufSize sizes the per-connection buffered reader. Raw frame reads
// cost two syscalls each (length prefix + body); buffering turns a burst
// of small frames into one read syscall.
const readBufSize = 64 << 10

// peer is one framed connection with write coalescing: senders append
// frames to a pending buffer under a short lock and a dedicated writer
// goroutine flushes whole buffers per syscall once they are due (see
// writeMark). Reads happen on the owner's read loop, not here.
type peer struct {
	conn net.Conn
	// br buffers inbound frame reads. Only the owner's read loop touches
	// it; handshake traffic is read raw from the conn before the peer is
	// built, so no bytes can be stranded in the buffer at creation.
	br *bufio.Reader

	mu      sync.Mutex
	wake    *sync.Cond // writer: pending bytes due (or closed)
	space   *sync.Cond // senders: pending buffer drained below maxPend
	pend    []byte
	due     bool   // pend must go out now, whatever its size
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
// (which must only append to its argument and return the result) and wakes
// the writer. Blocks while the coalescing buffer is over maxPend; small
// control frames get smallSlack extra headroom so they never queue behind
// full visitor-batch backpressure.
func (p *peer) appendFrame(small bool, build func(dst []byte) []byte) error {
	return p.appendTo(small, true, build)
}

// appendBatch appends one visitor-batch frame like appendFrame, but leaves
// it pending until the buffer passes writeMark or something else makes it
// due: a later frame, flush or close.
func (p *peer) appendBatch(build func(dst []byte) []byte) error {
	return p.appendTo(false, false, build)
}

// appendTo appends one frame; due makes the whole pending buffer due at
// once (appendFrame) instead of at writeMark (appendBatch).
func (p *peer) appendTo(small, due bool, build func(dst []byte) []byte) error {
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
	p.due = p.due || due
	wake := p.due || len(p.pend) >= writeMark
	p.mu.Unlock()
	if wake {
		p.wake.Signal()
	}
	return nil
}

// flush makes whatever is pending due and wakes the writer for it.
func (p *peer) flush() {
	p.mu.Lock()
	wake := len(p.pend) > 0 && !p.due
	p.due = p.due || wake
	p.mu.Unlock()
	if wake {
		p.wake.Signal()
	}
}

// send appends an already-encoded frame payload (type byte first).
func (p *peer) send(payload []byte) error {
	return p.appendFrame(len(payload) <= smallFrame, func(dst []byte) []byte { return append(dst, payload...) })
}

// writeLoop flushes coalesced frames until the peer closes.
func (p *peer) writeLoop() {
	for {
		p.mu.Lock()
		for !p.due && len(p.pend) < writeMark && !p.closed {
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
		p.due = false
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
