package wire

import (
	"fmt"

	rt "dsteiner/internal/runtime"
)

// Fragment-merge MST frames. One fragment exchange mirrors the
// collective flow — every worker contributes a FragmentConnect for sequence
// #Seq, the coordinator routes and answers each worker with a personalized
// FragmentRelabel — but unlike OpGather the reply carries only the blobs a
// worker's rank range actually needs (plus broadcasts), which is the
// wire-byte reduction the fragment merge exists for.

// FragmentConnect is one process's contribution to fragment exchange #Seq:
// the routed blobs of its hosted ranks (Dest = global rank, or -1 for
// broadcast to every rank).
type FragmentConnect struct {
	Seq   uint64
	Blobs []rt.FragBlob
}

// EncodeFragmentConnect appends a FrameFragmentConnect payload.
func EncodeFragmentConnect(dst []byte, f FragmentConnect) []byte {
	dst = append(dst, FrameFragmentConnect)
	dst = AppendUvarint(dst, f.Seq)
	return appendFragBlobs(dst, f.Blobs)
}

// DecodeFragmentConnect decodes a FrameFragmentConnect body. Blobs alias
// body.
func DecodeFragmentConnect(body []byte) (FragmentConnect, error) {
	d := NewDec(body)
	f := FragmentConnect{Seq: d.Uvarint()}
	f.Blobs = decodeFragBlobs(d)
	return f, d.finish()
}

// FragmentRelabel is the coordinator's personalized result of fragment
// exchange #Seq for one worker: the blobs addressed to the worker's rank
// range plus every broadcast blob.
type FragmentRelabel struct {
	Seq   uint64
	Blobs []rt.FragBlob
}

// EncodeFragmentRelabel appends a FrameFragmentRelabel payload.
func EncodeFragmentRelabel(dst []byte, f FragmentRelabel) []byte {
	dst = append(dst, FrameFragmentRelabel)
	dst = AppendUvarint(dst, f.Seq)
	return appendFragBlobs(dst, f.Blobs)
}

// DecodeFragmentRelabel decodes a FrameFragmentRelabel body. Blobs alias
// body.
func DecodeFragmentRelabel(body []byte) (FragmentRelabel, error) {
	d := NewDec(body)
	f := FragmentRelabel{Seq: d.Uvarint()}
	f.Blobs = decodeFragBlobs(d)
	return f, d.finish()
}

// appendFragBlobs appends a length-prefixed routed-blob list. Dest is
// zigzag-encoded because -1 means broadcast.
func appendFragBlobs(dst []byte, blobs []rt.FragBlob) []byte {
	dst = AppendUvarint(dst, uint64(len(blobs)))
	for _, fb := range blobs {
		dst = AppendUvarint(dst, uint64(fb.Src))
		dst = AppendVarint(dst, int64(fb.Dest))
		dst = AppendBytes(dst, fb.Blob)
	}
	return dst
}

// decodeFragBlobs decodes a routed-blob list; blobs alias the frame buffer.
func decodeFragBlobs(d *Dec) []rt.FragBlob {
	n := d.Int()
	if d.err == nil && n > d.Len() {
		d.err = fmt.Errorf("%w: fragment blob count", ErrCorrupt)
		return nil
	}
	out := make([]rt.FragBlob, 0, min(n, 1024))
	for i := 0; i < n && d.err == nil; i++ {
		fb := rt.FragBlob{Src: d.Int()}
		dest := d.Varint()
		if d.err == nil && (dest < -1 || dest > 1<<24) {
			d.err = fmt.Errorf("%w: fragment blob dest %d", ErrCorrupt, dest)
			return nil
		}
		fb.Dest = int(dest)
		fb.Blob = d.Bytes()
		out = append(out, fb)
	}
	return out
}

// FragmentRoundSummary is one process's fragment-merge totals for the query
// it just finished: Borůvka rounds, proposal/routing records, and encoded
// cross-table bytes. One-way worker → coordinator; the hub folds it into the
// pending query's outcome and requires the round count to agree across
// workers.
type FragmentRoundSummary struct {
	Rounds int64
	Msgs   int64
	Bytes  int64
}

// EncodeFragmentRoundSummary appends a FrameFragmentRoundSummary payload.
func EncodeFragmentRoundSummary(dst []byte, f FragmentRoundSummary) []byte {
	dst = append(dst, FrameFragmentRoundSummary)
	dst = AppendVarint(dst, f.Rounds)
	dst = AppendVarint(dst, f.Msgs)
	return AppendVarint(dst, f.Bytes)
}

// DecodeFragmentRoundSummary decodes a FrameFragmentRoundSummary body.
func DecodeFragmentRoundSummary(body []byte) (FragmentRoundSummary, error) {
	d := NewDec(body)
	f := FragmentRoundSummary{Rounds: d.Varint(), Msgs: d.Varint(), Bytes: d.Varint()}
	return f, d.finish()
}
