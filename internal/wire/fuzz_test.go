package wire

import (
	"testing"

	"dsteiner/internal/graph"
	rt "dsteiner/internal/runtime"
)

// FuzzDecodeFrame feeds arbitrary bytes through the frame splitter and
// every body decoder. The contract under fuzz: truncated or corrupt input
// must return an error — decoders may never panic and never over-read.
func FuzzDecodeFrame(f *testing.F) {
	// Seed corpus: one well-formed frame of every type, plus classic
	// corruptions.
	seeds := [][]byte{
		AppendFrame(nil, EncodeHello(nil, Hello{Version: Version, PeerAddr: "127.0.0.1:9"})),
		AppendFrame(nil, EncodeSetup(nil, Setup{
			Ranks: 4, NumVertices: 10, RankLo: []int64{0, 2, 4},
			PeerAddrs: []string{"a", "b"}, Bounds: []graph.VID{0, 2, 5, 8, 10},
			Shards: []ShardSlice{{Rank: 0, Offsets: []int64{0, 1, 2}, Targets: []graph.VID{1, 0}, Weights: []uint32{5, 5}}},
		})),
		AppendFrame(nil, EncodeReady(nil, Ready{ShardBytes: 100, StateBytes: 50})),
		AppendFrame(nil, EncodeSolveSpec(nil, SolveSpec{QueryID: 1, Seeds: []graph.VID{1, 2, 3}})),
		AppendFrame(nil, EncodeSolveSpec(nil, SolveSpec{QueryID: 2, Mode: 1,
			Groups: [][]graph.VID{{1, 2}, {3, 4}}})),
		AppendFrame(nil, EncodeSolveSpec(nil, SolveSpec{QueryID: 3, Mode: 2,
			Seeds: []graph.VID{1, 2, 3}, Penalties: []int64{4, 0, 9}})),
		AppendFrame(nil, EncodeWorkerDone(nil, WorkerDone{QueryID: 1, TableLens: []int64{2}, HasResult: true,
			Result: SolveResult{Tree: []graph.Edge{{U: 1, V: 2, W: 3}}, Phases: []PhaseRec{{Name: "MST", Seconds: 0.1}}}})),
		AppendFrame(nil, EncodeWorkerDone(nil, WorkerDone{QueryID: 2, Stats: rt.Stats{Suppressed: 7,
			Batches: 9, Net: rt.TransportStats{BytesOut: 11, FlushesSmall: 1}}})),
		AppendFrame(nil, msgBatch2Seed()),
		AppendFrame(nil, EncodeColl(nil, Coll{Seq: 1, Op: rt.OpSum, Payload: EncodeInt64(-3)})),
		AppendFrame(nil, EncodeColl(nil, Coll{Seq: 2, Op: rt.OpExchange, Payload: AppendBlobs(nil,
			[]rt.Blob{{Src: 0, Dest: -1, Blob: []byte{1, 2}}, {Src: 1, Dest: 3, Blob: []byte{9}}})})),
		AppendFrame(nil, EncodeColl(nil, Coll{Seq: 3, Op: rt.OpBarrier})),
		AppendFrame(nil, EncodeColl(nil, Coll{Seq: 4, Op: rt.OpMax, Payload: EncodeInt64(1 << 40)})),
		AppendFrame(nil, EncodeColl(nil, Coll{Seq: 5, Op: rt.OpExchange, Payload: AppendBlobs(nil, nil)})),
		AppendFrame(nil, EncodeTraverseBegin(nil, TraverseBegin{Seq: 4})),
		AppendFrame(nil, EncodeToken(nil, Token{Seq: 4, Q: -1, Black: true})),
		AppendFrame(nil, EncodeTraverseDone(nil, TraverseDone{Seq: 4})),
		AppendFrame(nil, EncodePeerHello(nil, PeerHello{Worker: 1})),
		AppendFrame(nil, EncodeRejoin(nil, Rejoin{Version: Version, PeerAddr: "127.0.0.1:9",
			SessionID: 0xfeedface, PrevWorker: 2})),
		AppendFrame(nil, EncodeAbort(nil, Abort{Reason: "boom"})),
		AppendFrame(nil, []byte{FrameGoodbye}),
		{0, 0, 0, 0},
		{0xff, 0xff, 0xff, 0x7f, 1},
		nil,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rest := data
		for i := 0; i < 64; i++ { // bound work per input
			typ, body, next, err := DecodeFrame(rest)
			if err != nil {
				return
			}
			decodeBody(typ, body)
			rest = next
			if len(rest) == 0 {
				return
			}
		}
	})
}

// msgBatch2Seed builds one batch whose columns step both up and down.
func msgBatch2Seed() []byte {
	b, _ := AppendMsgBatch2(nil, 3, []rt.Msg{
		{Target: 9, From: 2, Seed: 3, Dist: 4},
		{Target: 9, From: 2, Seed: 5, Dist: 7},
		{Target: 1, From: 1, Seed: 1, Dist: 1},
	})
	return b
}

// decodeBody dispatches a frame body to its decoder, discarding results:
// the fuzz property is only "no panic, bounded allocation". It reports
// whether typ is a frame kind it knows.
func decodeBody(typ uint8, body []byte) bool {
	switch typ {
	case FrameHello:
		_, _ = DecodeHello(body)
	case FrameSetup:
		_, _ = DecodeSetup(body)
	case FrameReady:
		_, _ = DecodeReady(body)
	case FrameSolveSpec:
		_, _ = DecodeSolveSpec(body)
	case FrameWorkerDone:
		_, _ = DecodeWorkerDone(body)
	case FrameMsgBatch2:
		_, _, _ = DecodeMsgBatch2(body, nil)
	case FrameColl:
		// The payload is read the way its op reads it: a routed-blob list for
		// the exchange, an int64 otherwise.
		if c, err := DecodeColl(body); err == nil && c.Op == rt.OpExchange {
			_, _ = DecodeBlobs(c.Payload)
		} else if err == nil {
			_, _ = DecodeInt64(c.Payload)
		}
	case FrameTraverseBegin:
		_, _ = DecodeTraverseBegin(body)
	case FrameToken:
		_, _ = DecodeToken(body)
	case FrameTraverseDone:
		_, _ = DecodeTraverseDone(body)
	case FramePeerHello:
		_, _ = DecodePeerHello(body)
	case FrameRejoin:
		_, _ = DecodeRejoin(body)
	case FrameAbort:
		_, _ = DecodeAbort(body)
	case FrameGoodbye: // no body
	default:
		return false
	}
	return true
}

// TestFuzzDispatchCoversEveryFrameKind walks the frame-type bytes and fails
// if a live kind has no decodeBody arm, so a frame kind added to the enum
// cannot skip the fuzzer; a retired slot that decodes again is a slot that
// was reused without being taken off the list here.
func TestFuzzDispatchCoversEveryFrameKind(t *testing.T) {
	retired := map[uint8]bool{4: true, 6: true, 8: true, 9: true, 18: true, 19: true, 20: true}
	for typ := FrameHello; typ < frameEnd; typ++ {
		if handled := decodeBody(typ, nil); handled == retired[typ] {
			t.Errorf("frame type %d: decodeBody handled = %v, retired = %v", typ, handled, retired[typ])
		}
	}
}
