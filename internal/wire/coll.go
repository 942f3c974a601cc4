package wire

import (
	"fmt"

	rt "dsteiner/internal/runtime"
)

// Coll is one process's contribution to collective #Seq. Op is the
// runtime's closed enum, carried as its byte; Payload is op-specific: empty
// for OpBarrier, a varint int64 for the allreduces, a routed-blob list for
// OpExchange.
type Coll struct {
	Seq     uint64
	Op      rt.CollOp
	Payload []byte
}

// EncodeColl appends a FrameColl payload.
func EncodeColl(dst []byte, c Coll) []byte {
	dst = append(dst, FrameColl)
	dst = AppendUvarint(dst, c.Seq)
	dst = append(dst, byte(c.Op))
	dst = AppendBytes(dst, c.Payload)
	return dst
}

// DecodeColl decodes a FrameColl body. Payload aliases body.
func DecodeColl(body []byte) (Coll, error) {
	d := NewDec(body)
	c := Coll{Seq: d.Uvarint(), Op: rt.CollOp(d.Byte()), Payload: d.Bytes()}
	return c, d.finish()
}

// CollReply is the coordinator's result for collective #Seq: the same
// payload to every worker, except OpExchange's, which carries only the blobs
// addressed to the receiving worker's ranks plus the broadcasts.
type CollReply struct {
	Seq     uint64
	Payload []byte
}

// EncodeCollReply appends a FrameCollReply payload.
func EncodeCollReply(dst []byte, c CollReply) []byte {
	dst = append(dst, FrameCollReply)
	dst = AppendUvarint(dst, c.Seq)
	dst = AppendBytes(dst, c.Payload)
	return dst
}

// DecodeCollReply decodes a FrameCollReply body. Payload aliases body.
func DecodeCollReply(body []byte) (CollReply, error) {
	d := NewDec(body)
	c := CollReply{Seq: d.Uvarint(), Payload: d.Bytes()}
	return c, d.finish()
}

// EncodeInt64 encodes an allreduce contribution/result payload.
func EncodeInt64(x int64) []byte { return AppendVarint(nil, x) }

// DecodeInt64 decodes an allreduce payload.
func DecodeInt64(payload []byte) (int64, error) {
	d := NewDec(payload)
	x := d.Varint()
	return x, d.finish()
}

// AppendBlobs appends an OpExchange payload, contribution or personalized
// reply: a length-prefixed routed-blob list. Dest is zigzag-encoded because
// -1 means broadcast.
func AppendBlobs(dst []byte, blobs []rt.Blob) []byte {
	dst = AppendUvarint(dst, uint64(len(blobs)))
	for _, b := range blobs {
		dst = AppendUvarint(dst, uint64(b.Src))
		dst = AppendVarint(dst, int64(b.Dest))
		dst = AppendBytes(dst, b.Blob)
	}
	return dst
}

// DecodeBlobs decodes an OpExchange payload. Blobs alias payload.
func DecodeBlobs(payload []byte) ([]rt.Blob, error) {
	d := NewDec(payload)
	n := d.count(3, "blob list") // ≥ 3 bytes per blob
	out := make([]rt.Blob, 0, min(n, 1024))
	for i := 0; i < n && d.err == nil; i++ {
		b := rt.Blob{Src: d.Int()}
		dest := d.Varint()
		if d.err == nil && (dest < -1 || dest > 1<<24) {
			return nil, fmt.Errorf("%w: blob dest %d", ErrCorrupt, dest)
		}
		b.Dest = int(dest)
		b.Blob = d.Bytes()
		out = append(out, b)
	}
	if err := d.finish(); err != nil {
		return nil, err
	}
	return out, nil
}

// Fence is the per-peer delivery fence entering collective #Seq: ordered
// after every message frame the sender issued before the collective, so
// receiving fence #Seq from every peer proves all pre-collective traffic
// has been delivered.
type Fence struct {
	Seq uint64
}

// EncodeFence appends a FrameFence payload.
func EncodeFence(dst []byte, f Fence) []byte {
	dst = append(dst, FrameFence)
	return AppendUvarint(dst, f.Seq)
}

// DecodeFence decodes a FrameFence body.
func DecodeFence(body []byte) (Fence, error) {
	d := NewDec(body)
	f := Fence{Seq: d.Uvarint()}
	return f, d.finish()
}

// TraverseBegin announces that this process entered asynchronous traversal
// #Seq; the coordinator starts circulating termination tokens once every
// process has announced.
type TraverseBegin struct {
	Seq uint64
}

// EncodeTraverseBegin appends a FrameTraverseBegin payload.
func EncodeTraverseBegin(dst []byte, t TraverseBegin) []byte {
	dst = append(dst, FrameTraverseBegin)
	return AppendUvarint(dst, t.Seq)
}

// DecodeTraverseBegin decodes a FrameTraverseBegin body.
func DecodeTraverseBegin(body []byte) (TraverseBegin, error) {
	d := NewDec(body)
	t := TraverseBegin{Seq: d.Uvarint()}
	return t, d.finish()
}

// Token is the Safra-style termination token for traversal #Seq. Q
// accumulates each process's (messages sent − messages received) cross-
// process counter; Black records whether any visited process received a
// message since it last forwarded the token. The coordinator declares
// quiescence after a full round that stays white with Q == 0.
type Token struct {
	Seq   uint64
	Q     int64
	Black bool
}

// EncodeToken appends a FrameToken payload.
func EncodeToken(dst []byte, t Token) []byte {
	dst = append(dst, FrameToken)
	dst = AppendUvarint(dst, t.Seq)
	dst = AppendVarint(dst, t.Q)
	return appendBool(dst, t.Black)
}

// DecodeToken decodes a FrameToken body.
func DecodeToken(body []byte) (Token, error) {
	d := NewDec(body)
	t := Token{Seq: d.Uvarint(), Q: d.Varint(), Black: d.Bool()}
	return t, d.finish()
}

// TraverseDone reports global quiescence of traversal #Seq.
type TraverseDone struct {
	Seq uint64
}

// EncodeTraverseDone appends a FrameTraverseDone payload.
func EncodeTraverseDone(dst []byte, t TraverseDone) []byte {
	dst = append(dst, FrameTraverseDone)
	return AppendUvarint(dst, t.Seq)
}

// DecodeTraverseDone decodes a FrameTraverseDone body.
func DecodeTraverseDone(body []byte) (TraverseDone, error) {
	d := NewDec(body)
	t := TraverseDone{Seq: d.Uvarint()}
	return t, d.finish()
}
