package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"

	"dsteiner/internal/graph"
)

// The Setup frame is the one frame too large to stage: it carries a
// worker's share of the graph's arcs. WriteSetup streams it from the
// Setup's own arrays into the socket and ReadSetup decodes it off the socket
// straight into the worker's arrays, each column through one
// graph.ColumnChunk scratch. EncodeSetup and DecodeSetup run the same code
// over a byte slice, so there is one Setup codec and one frame layout:
//
//	FrameSetup, Ranks, NumVertices, WorkerIndex, RankLo,
//	len(PeerAddrs), PeerAddrs..., Queue, BatchSize, BSP, Bounds,
//	len(Shards), {Rank, Offsets, Targets, Weights}..., SessionID
//
// Integers are uvarints, Queue and BSP one byte each, a string its length
// and bytes, and a column its length and its raw little-endian entries, the
// layout AppendVIDs and AppendInt64s give the columns of other frames.

// EncodeSetup appends a FrameSetup payload.
func EncodeSetup(dst []byte, s Setup) []byte {
	b := bytes.NewBuffer(dst)
	b.Grow(int(setupSize(s)))
	encodeSetup(&setupEnc{w: b}, s) // a bytes.Buffer never fails
	return b.Bytes()
}

// WriteSetup writes s as one FrameSetup frame — the bytes WriteFrame(w,
// EncodeSetup(nil, s)) writes — without staging it: the header and scalars
// go out through a graph.ColumnChunk buffer, and each column straight from
// s's arrays (which may alias the coordinator's graph, graph.CutShard).
func WriteSetup(w io.Writer, s Setup) error {
	n := setupSize(s)
	if n > MaxFrame {
		return fmt.Errorf("%w: frame payload %d exceeds limit", ErrCorrupt, n)
	}
	bw := bufio.NewWriterSize(w, graph.ColumnChunk)
	e := &setupEnc{w: bw}
	e.write(binary.LittleEndian.AppendUint32(e.tmp[:0], uint32(n)))
	encodeSetup(e, s)
	if e.err != nil {
		return e.err
	}
	return bw.Flush()
}

// DecodeSetup decodes a FrameSetup body.
func DecodeSetup(body []byte) (Setup, error) {
	return decodeSetup(newSetupDec(bytes.NewReader(body), int64(len(body))))
}

// ReadSetup reads the frame a coordinator answers a Hello or Rejoin with. A
// FrameSetup is decoded as its bytes arrive (setupDec), so the worker never
// holds the frame and the Setup decoded from it at once, and what it
// allocates stays within about twice the bytes received plus the scratch,
// whatever the frame declares. Any other frame — an Abort — is returned
// whole in other, type byte first, with a zero Setup.
func ReadSetup(r io.Reader) (s Setup, other []byte, err error) {
	n, err := readFrameLen(r)
	if err != nil {
		return Setup{}, nil, err
	}
	var typ [1]byte
	if _, err := io.ReadFull(r, typ[:]); err != nil {
		return Setup{}, nil, fmt.Errorf("%w: frame body: %v", ErrTruncated, err)
	}
	if typ[0] != FrameSetup {
		other, err = readFrameBody(r, typ[:], int(n)-1)
		return Setup{}, other, err
	}
	s, err = decodeSetup(newSetupDec(r, int64(n)-1))
	return s, nil, err
}

// setupSize is the length of s's FrameSetup payload: encodeSetup's byte
// count, with no writer to write to.
func setupSize(s Setup) int64 {
	e := &setupEnc{}
	encodeSetup(e, s)
	return e.n
}

// setupEnc writes a Setup's fields to w in frame order, counting the bytes
// in n; with no w it only counts. The first failed write poisons it.
type setupEnc struct {
	w       io.Writer
	n       int64
	scratch []byte // the column scratch, allocated at the first column
	tmp     [binary.MaxVarintLen64]byte
	err     error
}

func (e *setupEnc) write(b []byte) {
	e.n += int64(len(b))
	if e.w != nil && e.err == nil {
		_, e.err = e.w.Write(b)
	}
}

func (e *setupEnc) uvarint(x uint64) { e.write(binary.AppendUvarint(e.tmp[:0], x)) }

func (e *setupEnc) byte(b uint8) { e.write(append(e.tmp[:0], b)) }

func (e *setupEnc) string(s string) {
	e.uvarint(uint64(len(s)))
	e.n += int64(len(s))
	if e.w != nil && e.err == nil {
		_, e.err = io.WriteString(e.w, s)
	}
}

// encodeColumn writes col's length, then its entries through e's scratch.
func encodeColumn[T graph.Column](e *setupEnc, col []T) {
	e.uvarint(uint64(len(col)))
	e.n += int64(len(col) * binary.Size(T(0)))
	if e.w == nil || e.err != nil || len(col) == 0 {
		return
	}
	if e.scratch == nil {
		e.scratch = make([]byte, graph.ColumnChunk)
	}
	e.err = graph.WriteColumn(e.w, col, e.scratch)
}

func encodeSetup(e *setupEnc, s Setup) {
	e.byte(FrameSetup)
	e.uvarint(uint64(s.Ranks))
	e.uvarint(uint64(s.NumVertices))
	e.uvarint(uint64(s.WorkerIndex))
	encodeColumn(e, s.RankLo)
	e.uvarint(uint64(len(s.PeerAddrs)))
	for _, a := range s.PeerAddrs {
		e.string(a)
	}
	e.byte(s.Queue)
	e.uvarint(uint64(s.BatchSize))
	if s.BSP {
		e.byte(1)
	} else {
		e.byte(0)
	}
	encodeColumn(e, s.Bounds)
	e.uvarint(uint64(len(s.Shards)))
	for _, sh := range s.Shards {
		e.uvarint(uint64(sh.Rank))
		encodeColumn(e, sh.Offsets)
		encodeColumn(e, sh.Targets)
		encodeColumn(e, sh.Weights)
	}
	e.uvarint(s.SessionID)
}

// setupDec decodes a FrameSetup body from the next left bytes of a stream.
// Scalars are read through a small buffer; columns bypass it, through one
// graph.ColumnChunk scratch, into arrays grown as their bytes arrive
// (decodeColumn). A count is bounded by the bytes the frame has left, as Dec
// bounds it by the bytes present. The first failure poisons the decoder.
type setupDec struct {
	body    *io.LimitedReader // the frame body's unread bytes
	r       *bufio.Reader     // over body
	scratch []byte
	err     error
}

func newSetupDec(r io.Reader, left int64) *setupDec {
	body := &io.LimitedReader{R: r, N: left}
	return &setupDec{body: body, r: bufio.NewReaderSize(body, 256)}
}

// left is the number of body bytes not yet decoded.
func (d *setupDec) left() int64 { return d.body.N + int64(d.r.Buffered()) }

func (d *setupDec) fail(what string, err error) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s: %v", ErrTruncated, what, err)
	}
}

func (d *setupDec) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	x, err := binary.ReadUvarint(d.r)
	if err != nil {
		d.fail("uvarint", err)
	}
	return x
}

// int decodes a uvarint that must fit a non-negative int.
func (d *setupDec) int() int {
	x := d.uvarint()
	if d.err == nil && x > math.MaxInt32 {
		d.err = fmt.Errorf("%w: int field %d out of range", ErrCorrupt, x)
	}
	return int(x)
}

func (d *setupDec) byte() uint8 {
	if d.err != nil {
		return 0
	}
	b, err := d.r.ReadByte()
	if err != nil {
		d.fail("byte", err)
	}
	return b
}

// string decodes a length-prefixed string, its bytes read into growing parts
// (readParts) as decodeColumn reads a column's entries.
func (d *setupDec) string() string {
	n := d.count(1, "string body")
	if n == 0 {
		return ""
	}
	parts, err := readParts(n, 1, func(part []byte) error {
		_, err := io.ReadFull(d.r, part)
		return err
	})
	if err != nil {
		d.fail("string body", err)
		return ""
	}
	var b strings.Builder
	b.Grow(n)
	for _, part := range parts {
		b.Write(part)
	}
	return b.String()
}

// count decodes a count of things at least minBytes long each, refusing
// one the body's remaining bytes cannot hold.
func (d *setupDec) count(minBytes int, what string) int {
	n := d.uvarint()
	if d.err == nil && n > uint64(d.left())/uint64(minBytes) {
		d.err = fmt.Errorf("%w: %s %d exceeds the frame", ErrTruncated, what, n)
	}
	if d.err != nil {
		return 0
	}
	return int(n)
}

// firstPart is the byte size of the first part readParts reads into; each
// later part doubles the last.
const firstPart = graph.ColumnChunk / 16

// readParts reads n entries of size bytes each through fill into parts that
// double from firstPart bytes, so what it has allocated is never more than
// twice the bytes it has received plus firstPart: a frame that declares a
// long column or string and then stops costs what was sent, not what was
// declared. Joining the parts, once all have arrived, is the caller's.
func readParts[T any](n, size int, fill func(part []T) error) ([][]T, error) {
	var parts [][]T
	for got, step := 0, firstPart/size; got < n; step *= 2 {
		part := make([]T, min(step, n-got))
		if err := fill(part); err != nil {
			return nil, err
		}
		parts = append(parts, part)
		got += len(part)
	}
	return parts, nil
}

// decodeColumn decodes a length-prefixed column through readParts, joining
// its parts once the column is whole.
func decodeColumn[T graph.Column](d *setupDec, what string) []T {
	n := d.count(binary.Size(T(0)), what)
	if n == 0 {
		return nil
	}
	if d.scratch == nil {
		d.scratch = make([]byte, graph.ColumnChunk)
	}
	parts, err := readParts(n, binary.Size(T(0)), func(part []T) error {
		return graph.ReadColumn(d.r, part, d.scratch)
	})
	if err != nil {
		d.fail(what, err)
		return nil
	}
	if len(parts) == 1 {
		return parts[0]
	}
	return slices.Concat(parts...)
}

func decodeSetup(d *setupDec) (Setup, error) {
	var s Setup
	s.Ranks = d.int()
	s.NumVertices = d.int()
	s.WorkerIndex = d.int()
	s.RankLo = decodeColumn[int64](d, "int64 array")
	nAddrs := d.int()
	if d.err == nil && int64(nAddrs) > d.left() {
		return s, fmt.Errorf("%w: peer address count", ErrCorrupt)
	}
	for i := 0; i < nAddrs && d.err == nil; i++ {
		s.PeerAddrs = append(s.PeerAddrs, d.string())
	}
	s.Queue = d.byte()
	s.BatchSize = d.int()
	s.BSP = d.byte() != 0
	s.Bounds = decodeColumn[graph.VID](d, "vid array")
	nShards := d.int()
	if d.err == nil && int64(nShards) > d.left() {
		return s, fmt.Errorf("%w: shard slice count", ErrCorrupt)
	}
	for i := 0; i < nShards && d.err == nil; i++ {
		s.Shards = append(s.Shards, ShardSlice{
			Rank:    d.int(),
			Offsets: decodeColumn[int64](d, "int64 array"),
			Targets: decodeColumn[graph.VID](d, "vid array"),
			Weights: decodeColumn[uint32](d, "uint32 array"),
		})
	}
	s.SessionID = d.uvarint()
	if d.err != nil {
		return s, d.err
	}
	if left := d.left(); left != 0 {
		return s, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, left)
	}
	return s, nil
}
