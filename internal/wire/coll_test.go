package wire

import (
	"testing"

	rt "dsteiner/internal/runtime"
)

// exchangeBody encodes a FrameColl body carrying an OpExchange blob list;
// decodeExchange is its inverse, through both decoders.
func exchangeBody(seq uint64, blobs []rt.Blob) []byte {
	return EncodeColl(nil, Coll{Seq: seq, Op: rt.OpExchange, Payload: AppendBlobs(nil, blobs)})[1:]
}

func decodeExchange(body []byte) (uint64, []rt.Blob, error) {
	c, err := DecodeColl(body)
	if err != nil {
		return 0, nil, err
	}
	blobs, err := DecodeBlobs(c.Payload)
	return c.Seq, blobs, err
}

// TestFragmentRoundTrip covers the exchange the fragment merge rides on:
// routed blob lists (including the -1 broadcast destination and empty
// blobs) survive encode/decode as a contribution and as a personalized
// reply.
func TestFragmentRoundTrip(t *testing.T) {
	blobs := []rt.Blob{
		{Src: 0, Dest: 3, Blob: []byte{9, 8, 7}},
		{Src: 2, Dest: -1, Blob: []byte("broadcast")},
		{Src: 1, Dest: 0, Blob: nil},
	}
	seq, got, err := decodeExchange(exchangeBody(41, blobs))
	if err != nil || seq != 41 || !blobsEqual(got, blobs) {
		t.Fatalf("exchange contribution: %d %+v %v", seq, got, err)
	}
	reply, err := DecodeCollReply(EncodeCollReply(nil, CollReply{Seq: 42, Payload: AppendBlobs(nil, blobs[1:])})[1:])
	if got, berr := DecodeBlobs(reply.Payload); err != nil || berr != nil || reply.Seq != 42 || !blobsEqual(got, blobs[1:]) {
		t.Fatalf("exchange reply: %+v %+v %v %v", reply, got, err, berr)
	}
	// Empty contributions are legal (a rank may own no cross edges).
	seq, got, err = decodeExchange(exchangeBody(7, nil))
	if err != nil || seq != 7 || len(got) != 0 {
		t.Fatalf("empty exchange: %d %+v %v", seq, got, err)
	}
}

func blobsEqual(a, b []rt.Blob) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Src != b[i].Src || a[i].Dest != b[i].Dest || string(a[i].Blob) != string(b[i].Blob) {
			return false
		}
	}
	return true
}

// TestFragmentDecodersRejectTruncation drops every suffix of a valid
// exchange body, and of its bare blob list, through the decoders: always an
// error, never a panic and never silent success.
func TestFragmentDecodersRejectTruncation(t *testing.T) {
	blobs := []rt.Blob{{Src: 1, Dest: -1, Blob: []byte{1, 2, 3}}, {Src: 0, Dest: 2, Blob: []byte{4}}}
	rejectTruncations(t, map[string]truncCase{
		"exchange": {exchangeBody(5, blobs), func(b []byte) error { _, _, err := decodeExchange(b); return err }},
		"blobs":    {AppendBlobs(nil, blobs), func(b []byte) error { _, err := DecodeBlobs(b); return err }},
	})
}

// TestFragmentBlobDestRejected pins the destination guard: a decoded blob
// destination below -1 is corrupt, not a routing request.
func TestFragmentBlobDestRejected(t *testing.T) {
	var bad []byte
	bad = AppendUvarint(bad, 1) // blob count
	bad = AppendUvarint(bad, 0) // src
	bad = AppendVarint(bad, -2) // dest: only -1 (broadcast) and ranks are legal
	bad = AppendBytes(bad, nil) // blob
	if _, err := DecodeBlobs(bad); err == nil {
		t.Fatal("dest -2 decoded silently")
	}
}
