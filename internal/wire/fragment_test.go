package wire

import (
	"testing"

	rt "dsteiner/internal/runtime"
)

// TestFragmentRoundTrip covers the fragment-merge frames: routed
// blob lists (including the -1 broadcast destination and empty blobs)
// survive encode/decode, and the round summary round-trips exactly.
func TestFragmentRoundTrip(t *testing.T) {
	blobs := []rt.FragBlob{
		{Src: 0, Dest: 3, Blob: []byte{9, 8, 7}},
		{Src: 2, Dest: -1, Blob: []byte("broadcast")},
		{Src: 1, Dest: 0, Blob: nil},
	}
	c := FragmentConnect{Seq: 41, Blobs: blobs}
	gotC, err := DecodeFragmentConnect(EncodeFragmentConnect(nil, c)[1:])
	if err != nil || gotC.Seq != 41 || !blobsEqual(gotC.Blobs, blobs) {
		t.Fatalf("fragment connect: %+v %v", gotC, err)
	}

	r := FragmentRelabel{Seq: 42, Blobs: blobs[1:]}
	gotR, err := DecodeFragmentRelabel(EncodeFragmentRelabel(nil, r)[1:])
	if err != nil || gotR.Seq != 42 || !blobsEqual(gotR.Blobs, blobs[1:]) {
		t.Fatalf("fragment relabel: %+v %v", gotR, err)
	}

	// Empty contributions are legal (a rank may own no cross edges).
	empty, err := DecodeFragmentConnect(EncodeFragmentConnect(nil, FragmentConnect{Seq: 7})[1:])
	if err != nil || empty.Seq != 7 || len(empty.Blobs) != 0 {
		t.Fatalf("empty fragment connect: %+v %v", empty, err)
	}

	s := FragmentRoundSummary{Rounds: 3, Msgs: 120, Bytes: 4096}
	gotS, err := DecodeFragmentRoundSummary(EncodeFragmentRoundSummary(nil, s)[1:])
	if err != nil || gotS != s {
		t.Fatalf("fragment summary: %+v %v", gotS, err)
	}
}

func blobsEqual(a, b []rt.FragBlob) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Src != b[i].Src || a[i].Dest != b[i].Dest ||
			string(a[i].Blob) != string(b[i].Blob) {
			return false
		}
	}
	return true
}

// TestFragmentDecodersRejectTruncation drops every suffix of valid
// fragment bodies through their decoders: always an error, never a panic
// and never silent success.
func TestFragmentDecodersRejectTruncation(t *testing.T) {
	blobs := []rt.FragBlob{{Src: 1, Dest: -1, Blob: []byte{1, 2, 3}}, {Src: 0, Dest: 2, Blob: []byte{4}}}
	bodies := map[string]struct {
		body []byte
		dec  func([]byte) error
	}{
		"connect": {EncodeFragmentConnect(nil, FragmentConnect{Seq: 5, Blobs: blobs})[1:],
			func(b []byte) error { _, err := DecodeFragmentConnect(b); return err }},
		"relabel": {EncodeFragmentRelabel(nil, FragmentRelabel{Seq: 6, Blobs: blobs})[1:],
			func(b []byte) error { _, err := DecodeFragmentRelabel(b); return err }},
		"summary": {EncodeFragmentRoundSummary(nil, FragmentRoundSummary{Rounds: 2, Msgs: 30, Bytes: 400})[1:],
			func(b []byte) error { _, err := DecodeFragmentRoundSummary(b); return err }},
	}
	for name, tc := range bodies {
		if err := tc.dec(tc.body); err != nil {
			t.Fatalf("%s: valid body rejected: %v", name, err)
		}
		for cut := 0; cut < len(tc.body); cut++ {
			if err := tc.dec(tc.body[:cut]); err == nil {
				t.Fatalf("%s: truncation at %d/%d decoded silently", name, cut, len(tc.body))
			}
		}
	}
}

// TestFragmentBlobDestRejected pins the destination guard: a decoded blob
// destination below -1 is corrupt, not a routing request.
func TestFragmentBlobDestRejected(t *testing.T) {
	var bad []byte
	bad = AppendUvarint(bad, 1) // seq
	bad = AppendUvarint(bad, 1) // blob count
	bad = AppendUvarint(bad, 0) // src
	bad = AppendVarint(bad, -2) // dest: only -1 (broadcast) and ranks are legal
	bad = AppendBytes(bad, nil) // blob
	if _, err := DecodeFragmentConnect(bad); err == nil {
		t.Fatal("dest -2 decoded silently")
	}
}
