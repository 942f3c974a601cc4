// Package wire is the rank transport's binary codec: the versioned,
// length-prefixed frame format that crosses process boundaries when the
// solver's simulated MPI ranks become real processes (cmd/rankd driven by a
// steinersvc/core coordinator). Everything a traversal exchanges in-process
// has a wire form here:
//
//   - visitor-message batches (runtime.Msg, the paper's §IV message plane),
//   - collective contributions, one frame per peer for every op of
//     runtime.CollOp (barrier / allreduce / exchange — the
//     MPI_Allreduce/MPI_Allgatherv equivalents of Alg. 5),
//   - termination-detection tokens (a Safra-style counter+color token that
//     replaces the shared-memory pending counter for asynchronous
//     traversals),
//   - the session-setup handshake: each worker receives its slice of the
//     partition.ShardPlan — the range bounds and its ranks' CSR slab rows —
//     plus the graph metadata needed to rebuild its graph.Shard and
//     voronoi.StateSlab locally, never materializing the full CSR,
//   - solve requests and encoded Results flowing back to the coordinator.
//
// The codec is deliberately dependency-free and defensive: every decoder
// returns an error on truncated or corrupt input (fuzzed by
// FuzzDecodeFrame), never panics, and bounds element counts by the bytes
// actually present so hostile lengths cannot force huge allocations.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	"dsteiner/internal/graph"
	rt "dsteiner/internal/runtime"
)

// Version is the one wire format this build speaks. Coordinator and rankd
// are always built from the same tree, so there is nothing to negotiate: a
// worker's Hello or Rejoin must announce exactly this version or it is
// refused with an Abort before any session state is built.
const Version uint32 = 17

// readChunk is the most ReadFrame allocates ahead of the bytes it has read.
const readChunk = 1 << 20

// MaxFrame bounds a frame's payload so a corrupt length prefix cannot make
// a reader allocate unbounded memory. Handshake frames carry whole shard
// slices, so the bound is generous.
const MaxFrame = 1 << 30

// Frame types. The first payload byte of every frame identifies it. The
// numbers are those of the last negotiated format (retired kinds keep their
// slots), so a Hello or Rejoin from a binary of that era still reads as one
// and is refused by version rather than as an unknown frame.
const (
	// FrameHello is worker → coordinator: protocol version + the address
	// the worker's peer-mesh listener accepts on.
	FrameHello uint8 = 1 + iota
	// FrameSetup is coordinator → worker: the session handshake (Setup).
	FrameSetup
	// FrameReady is worker → coordinator: shard + slab built, peer mesh
	// established, resident byte counts reported.
	FrameReady
	_ // 4: the retired tree-only query frame
	// FrameWorkerDone is worker → coordinator: query finished on this
	// worker's ranks (per-rank table sizes, counter deltas, and — from the
	// worker hosting rank 0 — the encoded Result).
	FrameWorkerDone
	_ // 6: the retired uncompacted message batch
	// FrameColl is worker → worker: the sender's contribution to
	// collective #Seq, sent on every mesh link. Each receiver combines the
	// peers' frames itself, and since a frame is ordered after every
	// message batch the sender issued before the collective, it is also
	// the collective's delivery fence.
	FrameColl
	_ // 8: the retired coordinator reply to a collective
	_ // 9: the retired per-peer delivery fence (now FrameColl itself)
	// FrameTraverseBegin is worker → coordinator: an asynchronous
	// traversal started; begin circulating termination tokens.
	FrameTraverseBegin
	// FrameToken carries the Safra-style termination token both ways:
	// coordinator → worker to probe, worker → coordinator with the
	// worker's in-flight counter folded in and its color merged.
	FrameToken
	// FrameTraverseDone is coordinator → worker: traversal #Seq reached
	// global quiescence.
	FrameTraverseDone
	// FramePeerHello opens a worker-to-worker mesh connection: it names
	// the dialing worker so the acceptor can index the connection.
	FramePeerHello
	// FrameAbort poisons the session in either direction (rank panic,
	// connection loss); carries a human-readable reason.
	FrameAbort
	// FrameGoodbye is coordinator → worker: session over, exit cleanly.
	FrameGoodbye
	// FrameMsgBatch2 is worker → worker: one coalesced visitor-message
	// batch for a remote rank's mailbox, in send order, with zigzag
	// delta-varint field columns (see AppendMsgBatch2).
	FrameMsgBatch2
	// FrameSolveSpec is coordinator → worker: run one query (mode +
	// canonical seeds/groups/penalties).
	FrameSolveSpec
	_ // 18: the retired fragment exchange (now FrameColl's OpExchange)
	_ // 19: its personalized reply
	_ // 20: the retired per-query fragment summary
	// FrameRejoin is worker → coordinator: a replacement (or reconnecting)
	// worker's first frame when re-handshaking into an existing session
	// after a fault. It carries the SessionID the worker learned from its
	// Setup, proving it belongs to this coordinator's session rather than
	// some other fleet. The coordinator answers with a fresh Setup exactly
	// as it would a Hello.
	FrameRejoin
	// frameEnd is one past the last frame kind.
	frameEnd
)

var (
	// ErrTruncated reports a frame or field cut short.
	ErrTruncated = errors.New("wire: truncated input")
	// ErrCorrupt reports a structurally invalid frame.
	ErrCorrupt = errors.New("wire: corrupt input")
)

// WriteFrame writes one length-prefixed frame. payload must already start
// with the frame-type byte.
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) == 0 {
		return fmt.Errorf("%w: empty frame payload", ErrCorrupt)
	}
	if len(payload) > MaxFrame {
		return fmt.Errorf("%w: frame payload %d exceeds limit", ErrCorrupt, len(payload))
	}
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// AppendFrame appends the length-prefixed frame to dst (for write
// coalescing: many frames per syscall).
func AppendFrame(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	return append(dst, payload...)
}

// ReadFrame reads one frame payload (type byte first), reusing buf when it
// has capacity. io.EOF is returned untouched on a clean end-of-stream;
// a stream cut mid-frame yields ErrTruncated.
func ReadFrame(r io.Reader, buf []byte) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("%w: frame header: %v", ErrTruncated, err)
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n == 0 || n > MaxFrame {
		return nil, fmt.Errorf("%w: frame length %d", ErrCorrupt, n)
	}
	// Grow toward a large declared length only as the bytes arrive, so a
	// hostile prefix on a short stream cannot force a MaxFrame allocation.
	buf = buf[:0]
	for remaining := int(n); remaining > 0; {
		step := min(remaining, readChunk)
		buf = slices.Grow(buf, step)[:len(buf)+step]
		if _, err := io.ReadFull(r, buf[len(buf)-step:]); err != nil {
			return nil, fmt.Errorf("%w: frame body: %v", ErrTruncated, err)
		}
		remaining -= step
	}
	return buf, nil
}

// DecodeFrame splits a buffered byte stream into (type, body, rest). It is
// the pure-parsing form of ReadFrame used by tests and the fuzz target.
func DecodeFrame(b []byte) (typ uint8, body, rest []byte, err error) {
	if len(b) < 4 {
		return 0, nil, nil, fmt.Errorf("%w: frame header", ErrTruncated)
	}
	n := binary.LittleEndian.Uint32(b)
	if n == 0 || n > MaxFrame {
		return 0, nil, nil, fmt.Errorf("%w: frame length %d", ErrCorrupt, n)
	}
	if uint64(len(b)-4) < uint64(n) {
		return 0, nil, nil, fmt.Errorf("%w: frame body", ErrTruncated)
	}
	payload := b[4 : 4+n]
	return payload[0], payload[1:], b[4+n:], nil
}

// ---------------------------------------------------------------------------
// Primitive append/decode helpers.

// AppendUvarint appends x in unsigned LEB128.
func AppendUvarint(dst []byte, x uint64) []byte { return binary.AppendUvarint(dst, x) }

// AppendVarint appends x zigzag-encoded.
func AppendVarint(dst []byte, x int64) []byte { return binary.AppendVarint(dst, x) }

// AppendString appends a length-prefixed string.
func AppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// AppendBytes appends a length-prefixed byte slice.
func AppendBytes(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// AppendVIDs appends a length-prefixed []graph.VID as raw little-endian
// 32-bit values (bulk arrays skip varint: shard slices dominate handshake
// size and are effectively random, where varint only adds branches).
func AppendVIDs(dst []byte, vs []graph.VID) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(vs)))
	for _, v := range vs {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(v))
	}
	return dst
}

// AppendUint32s appends a length-prefixed []uint32 raw little-endian.
func AppendUint32s(dst []byte, vs []uint32) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(vs)))
	for _, v := range vs {
		dst = binary.LittleEndian.AppendUint32(dst, v)
	}
	return dst
}

// AppendInt64s appends a length-prefixed []int64 raw little-endian.
func AppendInt64s(dst []byte, vs []int64) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(vs)))
	for _, v := range vs {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(v))
	}
	return dst
}

// Dec is a defensive decoder over one frame body. The first failed read
// poisons it; check Err (or use the per-struct Decode funcs, which do).
type Dec struct {
	b   []byte
	err error
}

// NewDec returns a decoder over b.
func NewDec(b []byte) *Dec { return &Dec{b: b} }

// Err returns the first decode error, if any.
func (d *Dec) Err() error { return d.err }

// Len returns the number of undecoded bytes.
func (d *Dec) Len() int { return len(d.b) }

func (d *Dec) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", ErrTruncated, what)
	}
}

// Uvarint decodes an unsigned LEB128 value.
func (d *Dec) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	x, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("uvarint")
		return 0
	}
	d.b = d.b[n:]
	return x
}

// Varint decodes a zigzag value.
func (d *Dec) Varint() int64 {
	if d.err != nil {
		return 0
	}
	x, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail("varint")
		return 0
	}
	d.b = d.b[n:]
	return x
}

// Int decodes a uvarint that must fit a non-negative int.
func (d *Dec) Int() int {
	x := d.Uvarint()
	if d.err == nil && x > math.MaxInt32 {
		d.err = fmt.Errorf("%w: int field %d out of range", ErrCorrupt, x)
	}
	return int(x)
}

// Byte decodes one byte.
func (d *Dec) Byte() uint8 {
	if d.err != nil {
		return 0
	}
	if len(d.b) == 0 {
		d.fail("byte")
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

// Bool decodes a 0/1 byte.
func (d *Dec) Bool() bool { return d.Byte() != 0 }

// Float64 decodes an IEEE-754 bit pattern.
func (d *Dec) Float64() float64 {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 8 {
		d.fail("float64")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b))
	d.b = d.b[8:]
	return v
}

// String decodes a length-prefixed string.
func (d *Dec) String() string {
	n := d.Uvarint()
	if d.err != nil {
		return ""
	}
	if uint64(len(d.b)) < n {
		d.fail("string body")
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

// Bytes decodes a length-prefixed byte slice. The result aliases the frame
// buffer; copy it if it outlives the frame.
func (d *Dec) Bytes() []byte {
	n := d.Uvarint()
	if d.err != nil {
		return nil
	}
	if uint64(len(d.b)) < n {
		d.fail("bytes body")
		return nil
	}
	b := d.b[:n:n]
	d.b = d.b[n:]
	return b
}

// count validates a bulk-array length against the bytes present. The
// division form cannot overflow, so a hostile length can never bypass the
// check and reach an allocation.
func (d *Dec) count(elemBytes int, what string) int {
	n := d.Uvarint()
	if d.err != nil {
		return 0
	}
	if n > uint64(len(d.b))/uint64(elemBytes) {
		d.fail(what)
		return 0
	}
	return int(n)
}

// VIDs decodes a length-prefixed []graph.VID.
func (d *Dec) VIDs() []graph.VID {
	n := d.count(4, "vid array")
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]graph.VID, n)
	for i := range out {
		out[i] = graph.VID(int32(binary.LittleEndian.Uint32(d.b[4*i:])))
	}
	d.b = d.b[4*n:]
	return out
}

// Uint32s decodes a length-prefixed []uint32.
func (d *Dec) Uint32s() []uint32 {
	n := d.count(4, "uint32 array")
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]uint32, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(d.b[4*i:])
	}
	d.b = d.b[4*n:]
	return out
}

// Int64s decodes a length-prefixed []int64.
func (d *Dec) Int64s() []int64 {
	n := d.count(8, "int64 array")
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(d.b[8*i:]))
	}
	d.b = d.b[8*n:]
	return out
}

// finish returns d.err, upgraded to ErrCorrupt when undecoded bytes remain:
// a frame must be consumed exactly.
func (d *Dec) finish() error {
	if d.err != nil {
		return d.err
	}
	if len(d.b) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(d.b))
	}
	return nil
}

// ---------------------------------------------------------------------------
// Visitor-message batches.

// zigzag maps a signed delta onto the unsigned varint space (as
// binary.AppendVarint does, without the append).
func zigzag(x int64) uint64 { return uint64(x<<1) ^ uint64(x>>63) }

// appendUv is binary.AppendUvarint with the one-, two- and three-byte
// cases inlined: the delta columns are overwhelmingly small values, so
// the common cases skip the library call (and its length loop) entirely.
// The emitted bytes are identical — this is the same LEB128 encoding.
func appendUv(dst []byte, x uint64) []byte {
	if x < 0x80 {
		return append(dst, byte(x))
	}
	if x < 0x4000 {
		return append(dst, byte(x)|0x80, byte(x>>7))
	}
	if x < 0x20_0000 {
		return append(dst, byte(x)|0x80, byte(x>>7)|0x80, byte(x>>14))
	}
	return binary.AppendUvarint(dst, x)
}

// AppendMsgBatch2 appends a FrameMsgBatch2 payload: the batch of visitor
// messages bound for remote rank dest, in the order the rank sent them.
// The body is columnar — target, seed, from and dist columns in turn — and
// every entry is the zigzag varint of the field's delta against the
// previous message's same field (the first against zero). A row scan sends
// a run of offers with one From and Seed, ascending targets and dists a
// single edge weight apart, so those columns cost about a byte per message
// without sorting. Msg.Kind is not carried: it is rank-local, and every
// message that crosses ranks has Kind 0.
//
// AppendMsgBatch2 neither reorders nor modifies msgs, and every message is
// encoded: elided is always 0.
func AppendMsgBatch2(dst []byte, dest int, msgs []rt.Msg) (out []byte, elided int) {
	dst = append(dst, FrameMsgBatch2)
	dst = binary.AppendUvarint(dst, uint64(dest))
	dst = binary.AppendUvarint(dst, uint64(len(msgs)))
	// One loop per column, in order Target, Seed, From, Dist: a loop that
	// switched on the column per message measured ≈1.6× slower.
	var prev int32
	for i := range msgs {
		t := int32(msgs[i].Target)
		dst = appendUv(dst, zigzag(int64(t)-int64(prev)))
		prev = t
	}
	prev = 0
	for i := range msgs {
		s := int32(msgs[i].Seed)
		dst = appendUv(dst, zigzag(int64(s)-int64(prev)))
		prev = s
	}
	prev = 0
	for i := range msgs {
		f := int32(msgs[i].From)
		dst = appendUv(dst, zigzag(int64(f)-int64(prev)))
		prev = f
	}
	prevD := int64(0)
	for i := range msgs {
		x := int64(msgs[i].Dist)
		dst = appendUv(dst, zigzag(x-prevD))
		prevD = x
	}
	return dst, 0
}

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// DecodeMsgBatch2 decodes a FrameMsgBatch2 body into buf (reused when it
// has capacity), returning the destination rank and the batch in the
// order it was encoded. It reads the body in one pass and rejects
// truncated, overlong or trailing input, and a Target, Seed or From
// outside int32.
func DecodeMsgBatch2(body []byte, buf []rt.Msg) (dest int, msgs []rt.Msg, err error) {
	d := NewDec(body)
	dest = d.Int()
	n := d.count(4, "msg batch2") // ≥ 1 byte per column per message
	if d.err != nil {
		return 0, nil, d.err
	}
	if cap(buf) < n {
		buf = make([]rt.Msg, 0, n)
	}
	msgs = buf[:n]
	b, p := d.b, 0
	// Columns in order: Target, Seed, From, Dist.
	for col := 0; col < 4; col++ {
		prev := int64(0)
		for i := range msgs {
			// appendUv's one- and two-byte cases, inlined.
			var u uint64
			if p < len(b) && b[p] < 0x80 {
				u, p = uint64(b[p]), p+1
			} else if p+1 < len(b) && b[p+1] < 0x80 {
				u, p = uint64(b[p]&0x7f)|uint64(b[p+1])<<7, p+2
			} else {
				var k int
				if u, k = binary.Uvarint(b[p:]); k == 0 {
					return 0, nil, fmt.Errorf("%w: msg batch2 column %d", ErrTruncated, col)
				} else if k < 0 {
					return 0, nil, fmt.Errorf("%w: msg batch2 column %d: varint overflows 64 bits", ErrCorrupt, col)
				}
				p += k
			}
			prev += unzigzag(u)
			m := &msgs[i]
			switch col {
			case 0:
				m.Target = graph.VID(prev)
			case 1:
				m.Seed = graph.VID(prev)
			case 2:
				m.From = graph.VID(prev)
			default:
				m.Dist = graph.Dist(prev)
				m.Kind = 0 // buf may hold a recycled batch
				continue
			}
			if prev != int64(int32(prev)) {
				return 0, nil, fmt.Errorf("%w: msg batch2 vid %d outside int32", ErrCorrupt, prev)
			}
		}
	}
	if p != len(b) {
		return 0, nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(b)-p)
	}
	return dest, msgs, nil
}
