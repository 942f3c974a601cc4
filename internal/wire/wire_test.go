package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"dsteiner/internal/graph"
	rt "dsteiner/internal/runtime"
)

// TestFrameRoundTrip checks WriteFrame/ReadFrame and DecodeFrame agree on a
// stream of frames.
func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{
		{FrameGoodbye},
		EncodeColl(nil, Coll{Seq: 42, Op: rt.OpBarrier}),
		EncodeToken(nil, Token{Seq: 7, Q: -3, Black: true}),
	}
	for _, p := range payloads {
		if err := WriteFrame(&buf, p); err != nil {
			t.Fatal(err)
		}
	}
	// Streaming reads.
	r := bytes.NewReader(buf.Bytes())
	var scratch []byte
	for i, want := range payloads {
		got, err := ReadFrame(r, scratch)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d: got % x want % x", i, got, want)
		}
		scratch = got
	}
	if _, err := ReadFrame(r, scratch); err != io.EOF {
		t.Fatalf("want io.EOF at stream end, got %v", err)
	}
	// Buffered decode.
	rest := buf.Bytes()
	for i, want := range payloads {
		typ, body, r2, err := DecodeFrame(rest)
		if err != nil {
			t.Fatalf("decode %d: %v", i, err)
		}
		if typ != want[0] || !bytes.Equal(body, want[1:]) {
			t.Fatalf("decode %d: type %d body % x", i, typ, body)
		}
		rest = r2
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes", len(rest))
	}
}

func TestFrameErrors(t *testing.T) {
	// Truncated header and body.
	if _, _, _, err := DecodeFrame([]byte{1, 0}); !errors.Is(err, ErrTruncated) {
		t.Fatalf("short header: %v", err)
	}
	full := AppendFrame(nil, []byte{FrameGoodbye, 9, 9})
	if _, _, _, err := DecodeFrame(full[:len(full)-1]); !errors.Is(err, ErrTruncated) {
		t.Fatalf("short body: %v", err)
	}
	// Zero and oversized lengths.
	if _, _, _, err := DecodeFrame([]byte{0, 0, 0, 0}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("zero length: %v", err)
	}
	if _, _, _, err := DecodeFrame([]byte{0xff, 0xff, 0xff, 0xff}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("huge length: %v", err)
	}
	if _, err := ReadFrame(bytes.NewReader([]byte{1, 0, 0, 0}), nil); !errors.Is(err, ErrTruncated) {
		t.Fatalf("stream cut mid-frame: %v", err)
	}
	if err := WriteFrame(io.Discard, nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("empty payload: %v", err)
	}
	// A legal-but-huge length on a short stream must fail after allocating
	// for the bytes present, not for the length declared.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := ReadFrame(bytes.NewReader([]byte{0, 0, 0, 0x20, FrameHello, 7}), nil); !errors.Is(err, ErrTruncated) {
		t.Fatalf("512 MiB frame with 2 bytes present: %v", err)
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 8*readChunk {
		t.Fatalf("short stream with a 512 MiB length prefix allocated %d bytes", grew)
	}
}

// TestReadFrameLargeAndReused covers ReadFrame's chunked growth: a frame
// several chunks long arrives intact, and a buffer with capacity is reused.
func TestReadFrameLargeAndReused(t *testing.T) {
	payload := make([]byte, 3*readChunk+17)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	payload[0] = FrameSetup
	stream := AppendFrame(AppendFrame(nil, payload), []byte{FrameGoodbye})
	r := bytes.NewReader(stream)
	got, err := ReadFrame(r, nil)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("large frame: %d bytes, err %v", len(got), err)
	}
	next, err := ReadFrame(r, got)
	if err != nil || len(next) != 1 || &next[0] != &got[0] {
		t.Fatalf("follow-up frame did not reuse the buffer: %v %v", next, err)
	}
}

// TestHugeCountsRejected pins the overflow guard on bulk-array lengths: a
// corrupt frame whose element count would overflow count*elemBytes must
// error, never reach an allocation (the never-panic contract).
func TestHugeCountsRejected(t *testing.T) {
	hostile := []uint64{1 << 61, 1 << 62, (1 << 64) - 1, 1 << 40}
	for _, n := range hostile {
		prefix := AppendUvarint(nil, n)
		if got := NewDec(prefix).Int64s(); got != nil {
			t.Fatalf("count %d: Int64s returned %d elements", n, len(got))
		}
		if err := NewDec(prefix).finish(); err == nil {
			// finish alone passes (prefix fully consumed is not required
			// here) — the array decoders themselves must have failed.
			d := NewDec(prefix)
			d.VIDs()
			if d.Err() == nil {
				t.Fatalf("count %d: VIDs decoded without error", n)
			}
		}
		// And through the message-batch path (dest + hostile count).
		body := AppendUvarint([]byte{}, 0)
		body = append(body, prefix...)
		if _, _, err := DecodeMsgBatch2(body, nil); err == nil {
			t.Fatalf("count %d: msg batch decoded without error", n)
		}
	}
}

// TestMsgBatchDecodeReusesBuffer checks the decode-into-buffer contract.
func TestMsgBatchDecodeReusesBuffer(t *testing.T) {
	payload, _ := AppendMsgBatch2(nil, 3, []rt.Msg{{Target: 1, Dist: 9}, {Target: 2, Dist: 8}})
	buf := make([]rt.Msg, 0, 16)
	_, got, err := DecodeMsgBatch2(payload[1:], buf)
	if err != nil {
		t.Fatal(err)
	}
	if &got[0] != &buf[:1][0] {
		t.Fatal("decode did not reuse the provided buffer")
	}
}

// fillNonZero sets every field reachable from v to a distinct non-zero
// value (slices get two elements), so a round trip through a codec that
// forgot a field cannot compare equal.
func fillNonZero(v reflect.Value, next *int64) {
	*next++
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillNonZero(v.Field(i), next)
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < v.Len(); i++ {
			fillNonZero(v.Index(i), next)
		}
	case reflect.Bool:
		v.SetBool(true)
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", *next))
	case reflect.Float32, reflect.Float64:
		v.SetFloat(float64(*next) + 0.5)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(*next%100 + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(uint64(*next%100 + 1))
	default:
		panic("fillNonZero: unhandled kind " + v.Kind().String())
	}
}

// TestEveryFieldRoundTrips pins that the one wire format is complete: each
// session-level struct, with every field set non-zero, survives encode →
// decode unchanged. A field added without codec support fails here.
func TestEveryFieldRoundTrips(t *testing.T) {
	var next int64
	var setup Setup
	fillNonZero(reflect.ValueOf(&setup).Elem(), &next)
	gotSetup, err := DecodeSetup(EncodeSetup(nil, setup)[1:])
	if err != nil || !reflect.DeepEqual(gotSetup, setup) {
		t.Fatalf("setup:\n got %+v\nwant %+v (%v)", gotSetup, setup, err)
	}

	var done WorkerDone
	fillNonZero(reflect.ValueOf(&done).Elem(), &next)
	gotDone, err := DecodeWorkerDone(EncodeWorkerDone(nil, done)[1:])
	if err != nil || !reflect.DeepEqual(gotDone, done) {
		t.Fatalf("worker done:\n got %+v\nwant %+v (%v)", gotDone, done, err)
	}
	// The hub folds these records: Add must drop no field, Sub must undo it.
	if x := done.Stats; (rt.Stats{}).Add(x) != x || x.Add(x).Sub(x) != x || x.Add(x).Sent != 2*x.Sent {
		t.Fatalf("rt.Stats algebra: 0+x = %+v, (x+x)-x = %+v, x = %+v", (rt.Stats{}).Add(x), x.Add(x).Sub(x), x)
	}

	var spec SolveSpec
	fillNonZero(reflect.ValueOf(&spec).Elem(), &next)
	gotSpec, err := DecodeSolveSpec(EncodeSolveSpec(nil, spec)[1:])
	if err != nil || !reflect.DeepEqual(gotSpec, spec) {
		t.Fatalf("solve spec:\n got %+v\nwant %+v (%v)", gotSpec, spec, err)
	}
}

func TestHandshakeRoundTrip(t *testing.T) {
	h := Hello{Version: Version, PeerAddr: "127.0.0.1:45991"}
	got, err := DecodeHello(EncodeHello(nil, h)[1:])
	if err != nil || got != h {
		t.Fatalf("hello: %+v %v", got, err)
	}

	r := Ready{ShardBytes: 12345, StateBytes: 678}
	gotReady, err := DecodeReady(EncodeReady(nil, r)[1:])
	if err != nil || gotReady != r {
		t.Fatalf("ready: %+v %v", gotReady, err)
	}

	p := PeerHello{Worker: 3}
	gotPeer, err := DecodePeerHello(EncodePeerHello(nil, p)[1:])
	if err != nil || gotPeer != p {
		t.Fatalf("peer hello: %+v %v", gotPeer, err)
	}

	a := Abort{Reason: "rank 3 panicked"}
	gotAbort, err := DecodeAbort(EncodeAbort(nil, a)[1:])
	if err != nil || gotAbort != a {
		t.Fatalf("abort: %+v %v", gotAbort, err)
	}

	rj := Rejoin{Version: Version, PeerAddr: "127.0.0.1:40001", SessionID: 0xfeedface, PrevWorker: 3}
	gotRejoin, err := DecodeRejoin(EncodeRejoin(nil, rj)[1:])
	if err != nil || gotRejoin != rj {
		t.Fatalf("rejoin: %+v %v", gotRejoin, err)
	}
}

// TestOpeningFrameNumbers pins the type bytes a worker can open a
// connection with to the numbers the last negotiated format used. Move
// either and a stale rankd is turned away as "frame N before hello/rejoin"
// instead of by the refusal that names both wire versions.
func TestOpeningFrameNumbers(t *testing.T) {
	if FrameHello != 1 || FrameRejoin != 21 {
		t.Fatalf("FrameHello = %d, FrameRejoin = %d; want 1 and 21", FrameHello, FrameRejoin)
	}
}

func TestCollectiveRoundTrip(t *testing.T) {
	c := Coll{Seq: 9, Op: rt.OpSum, Payload: EncodeInt64(-77)}
	gotC, err := DecodeColl(EncodeColl(nil, c)[1:])
	if err != nil || gotC.Seq != c.Seq || gotC.Op != c.Op || !bytes.Equal(gotC.Payload, c.Payload) {
		t.Fatalf("coll: %+v %v", gotC, err)
	}
	v, err := DecodeInt64(gotC.Payload)
	if err != nil || v != -77 {
		t.Fatalf("int64 payload: %d %v", v, err)
	}

	// The gather shape: rank-tagged blobs addressed to rank 0, one empty.
	blobs := []rt.Blob{{Src: 3, Blob: []byte("abc")}, {Src: 0, Blob: nil}}
	gotBlobs, err := DecodeBlobs(AppendBlobs(nil, blobs))
	if err != nil || !blobsEqual(gotBlobs, blobs) {
		t.Fatalf("blobs: %+v %v", gotBlobs, err)
	}
}

func TestTerminationRoundTrip(t *testing.T) {
	for _, tok := range []Token{{Seq: 1, Q: 0, Black: false}, {Seq: 900, Q: -12, Black: true}} {
		got, err := DecodeToken(EncodeToken(nil, tok)[1:])
		if err != nil || got != tok {
			t.Fatalf("token %+v: %+v %v", tok, got, err)
		}
	}
	b := TraverseBegin{Seq: 17}
	gotB, err := DecodeTraverseBegin(EncodeTraverseBegin(nil, b)[1:])
	if err != nil || gotB != b {
		t.Fatalf("begin: %+v %v", gotB, err)
	}
	d := TraverseDone{Seq: 17}
	gotD, err := DecodeTraverseDone(EncodeTraverseDone(nil, d)[1:])
	if err != nil || gotD != d {
		t.Fatalf("done: %+v %v", gotD, err)
	}
}

// TestWorkerDoneWithoutResult covers the frame every worker but rank 0's
// sends, and rank 0's on a failed query: no Result block.
func TestWorkerDoneWithoutResult(t *testing.T) {
	fail := WorkerDone{QueryID: 56, Err: "core: seeds span 2 connected components", TableLens: []int64{0}}
	gotFail, err := DecodeWorkerDone(EncodeWorkerDone(nil, fail)[1:])
	if err != nil || !reflect.DeepEqual(gotFail, fail) {
		t.Fatalf("worker done (err): %+v %v", gotFail, err)
	}
}

// TestEdgesRoundTrip property-tests the tree-gather blob codec.
func TestEdgesRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		edges := make([]graph.Edge, rng.Intn(64))
		for i := range edges {
			edges[i] = graph.Edge{
				U: graph.VID(rng.Intn(1 << 16)),
				V: graph.VID(rng.Intn(1 << 16)),
				W: uint32(rng.Intn(1 << 10)),
			}
		}
		got, err := DecodeEdges(EncodeEdges(nil, edges), nil)
		if err != nil {
			return false
		}
		if len(got) != len(edges) {
			return false
		}
		for i := range edges {
			if got[i] != edges[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestDecodersRejectTruncation drops every suffix of valid bodies through
// each struct decoder: the result must be an error, never a panic and
// never silent success.
func TestDecodersRejectTruncation(t *testing.T) {
	rejectTruncations(t, map[string]truncCase{
		"hello": {EncodeHello(nil, Hello{Version: Version, PeerAddr: "x:1"})[1:],
			func(b []byte) error { _, err := DecodeHello(b); return err }},
		"setup": {EncodeSetup(nil, Setup{Ranks: 4, RankLo: []int64{0, 4}, PeerAddrs: []string{"a"},
			Bounds: []graph.VID{0, 1, 2, 3, 4}, Shards: []ShardSlice{{Rank: 1, Offsets: []int64{0, 0}}}})[1:],
			func(b []byte) error { _, err := DecodeSetup(b); return err }},
		"solve": {EncodeSolveSpec(nil, SolveSpec{QueryID: 1, Mode: 2, Seeds: []graph.VID{1, 2}, Penalties: []int64{3, 4}})[1:],
			func(b []byte) error { _, err := DecodeSolveSpec(b); return err }},
		"done": {EncodeWorkerDone(nil, WorkerDone{QueryID: 1, TableLens: []int64{1}, HasResult: true,
			Result: SolveResult{Tree: []graph.Edge{{U: 1, V: 2, W: 3}}, Phases: []PhaseRec{{Name: "p"}}}})[1:],
			func(b []byte) error { _, err := DecodeWorkerDone(b); return err }},
		"rejoin": {EncodeRejoin(nil, Rejoin{Version: Version, PeerAddr: "x:1", SessionID: 99, PrevWorker: 1})[1:],
			func(b []byte) error { _, err := DecodeRejoin(b); return err }},
	})
}

// truncCase is one valid encoded body and the decoder it belongs to.
type truncCase struct {
	body []byte
	dec  func([]byte) error
}

// rejectTruncations requires each body to decode, and every proper prefix of
// it to fail.
func rejectTruncations(t *testing.T, bodies map[string]truncCase) {
	t.Helper()
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

// TestBulkAppendersSizeOnce pins the bulk array appenders: a million values
// appended to a nil slice cost at most two allocations (one for the whole
// array, none per growth step), the bytes equal the value-by-value
// encoding behind an existing prefix, and they decode back.
func TestBulkAppendersSizeOnce(t *testing.T) {
	const n = 1 << 20
	vids, i64s := make([]graph.VID, n), make([]int64, n)
	for i := range n {
		vids[i] = graph.VID(i * 7)
		i64s[i] = int64(i)*-3 + 1<<40
	}
	prefix := []byte("prefix")
	check := func(name string, got, want []byte, decodes bool) {
		t.Helper()
		if !bytes.Equal(got, want) {
			t.Errorf("%s: %d bytes differ from the value-by-value encoding (%d bytes)", name, len(got), len(want))
		}
		if !decodes {
			t.Errorf("%s: did not decode back to its input", name)
		}
	}
	var want []byte

	want = binary.AppendUvarint(bytes.Clone(prefix), n)
	for _, v := range vids {
		want = binary.LittleEndian.AppendUint32(want, uint32(v))
	}
	got := AppendVIDs(bytes.Clone(prefix), vids)
	d := NewDec(got[len(prefix):])
	check("AppendVIDs", got, want, slices.Equal(d.VIDs(), vids) && d.Err() == nil)

	want = binary.AppendUvarint(bytes.Clone(prefix), n)
	for _, v := range i64s {
		want = binary.LittleEndian.AppendUint64(want, uint64(v))
	}
	got = AppendInt64s(bytes.Clone(prefix), i64s)
	d = NewDec(got[len(prefix):])
	check("AppendInt64s", got, want, slices.Equal(d.Int64s(), i64s) && d.Err() == nil)

	for name, appendAll := range map[string]func(){
		"AppendVIDs":   func() { AppendVIDs(nil, vids) },
		"AppendInt64s": func() { AppendInt64s(nil, i64s) },
	} {
		if allocs := testing.AllocsPerRun(3, appendAll); allocs > 2 {
			t.Errorf("%s of %d values to a nil slice: %.0f allocations, want at most 2", name, n, allocs)
		}
	}
}
