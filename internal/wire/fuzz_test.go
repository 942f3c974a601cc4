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
			PeerAddrs: []string{"a", "b"},
			Shards:    []ShardSlice{{Rank: 0, Owned: []graph.VID{0, 1}, Offsets: []int64{0, 1, 2}, Targets: []graph.VID{1, 0}, Weights: []uint32{5, 5}}},
		})),
		AppendFrame(nil, EncodeReady(nil, Ready{ShardBytes: 100, StateBytes: 50})),
		AppendFrame(nil, EncodeSolveSpec(nil, SolveSpec{QueryID: 1, Seeds: []graph.VID{1, 2, 3}})),
		AppendFrame(nil, EncodeSolveSpec(nil, SolveSpec{QueryID: 2, Mode: 1,
			Groups: [][]graph.VID{{1, 2}, {3, 4}}})),
		AppendFrame(nil, EncodeSolveSpec(nil, SolveSpec{QueryID: 3, Mode: 2,
			Seeds: []graph.VID{1, 2, 3}, Penalties: []int64{4, 0, 9}})),
		AppendFrame(nil, EncodeWorkerDone(nil, WorkerDone{QueryID: 1, TableLens: []int64{2}, HasResult: true,
			Result: SolveResult{Tree: []EdgeRec{{U: 1, V: 2, W: 3}}, Phases: []PhaseRec{{Name: "MST", Seconds: 0.1}}}})),
		AppendFrame(nil, EncodeWorkerDone(nil, WorkerDone{QueryID: 2, Stats: rt.Stats{BatchedBroadcasts: 7,
			CoalescedBroadcasts: 9, Net: rt.TransportStats{BytesOut: 11, FlushesSmall: 1}}})),
		AppendFrame(nil, msgBatch2Seed()),
		AppendFrame(nil, EncodeColl(nil, Coll{Seq: 1, Op: OpGather, Payload: EncodeRankBlobs(nil, []RankBlob{{Rank: 1, Blob: []byte("b")}})})),
		AppendFrame(nil, EncodeCollReply(nil, CollReply{Seq: 1, Payload: EncodeBlobList(nil, [][]byte{{1}, {2}})})),
		AppendFrame(nil, EncodeFence(nil, Fence{Seq: 3})),
		AppendFrame(nil, EncodeTraverseBegin(nil, TraverseBegin{Seq: 4})),
		AppendFrame(nil, EncodeToken(nil, Token{Seq: 4, Q: -1, Black: true})),
		AppendFrame(nil, EncodeTraverseDone(nil, TraverseDone{Seq: 4})),
		AppendFrame(nil, EncodePeerHello(nil, PeerHello{Worker: 1})),
		AppendFrame(nil, EncodeFragmentConnect(nil, FragmentConnect{Seq: 5,
			Blobs: []rt.FragBlob{{Src: 0, Dest: -1, Blob: []byte{1, 2}}, {Src: 1, Dest: 3, Blob: []byte{9}}}})),
		AppendFrame(nil, EncodeFragmentRelabel(nil, FragmentRelabel{Seq: 5,
			Blobs: []rt.FragBlob{{Src: 2, Dest: 0, Blob: []byte{7, 7, 7}}}})),
		AppendFrame(nil, EncodeFragmentRoundSummary(nil, FragmentRoundSummary{Rounds: 2, Msgs: 40, Bytes: 512})),
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

// msgBatch2Seed builds one compacted batch covering the mixed-kind path.
func msgBatch2Seed() []byte {
	b, _ := AppendMsgBatch2(nil, 3, []rt.Msg{
		{Target: 9, From: 2, Seed: 3, Dist: 4, Kind: 1},
		{Target: 9, From: 2, Seed: 5, Dist: 7, Kind: 1}, // dominated
		{Target: 1, From: 1, Seed: 1, Dist: 1, Kind: 0},
	})
	return b
}

// decodeBody dispatches a frame body to its decoder, discarding results:
// the fuzz property is only "no panic, bounded allocation".
func decodeBody(typ uint8, body []byte) {
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
		if c, err := DecodeColl(body); err == nil {
			switch c.Op {
			case OpGather:
				_, _ = DecodeRankBlobs(c.Payload)
			default:
				_, _ = DecodeInt64(c.Payload)
			}
		}
	case FrameCollReply:
		if c, err := DecodeCollReply(body); err == nil {
			_, _ = DecodeBlobList(c.Payload)
			_, _ = DecodeInt64(c.Payload)
		}
	case FrameFence:
		_, _ = DecodeFence(body)
	case FrameTraverseBegin:
		_, _ = DecodeTraverseBegin(body)
	case FrameToken:
		_, _ = DecodeToken(body)
	case FrameTraverseDone:
		_, _ = DecodeTraverseDone(body)
	case FramePeerHello:
		_, _ = DecodePeerHello(body)
	case FrameFragmentConnect:
		_, _ = DecodeFragmentConnect(body)
	case FrameFragmentRelabel:
		_, _ = DecodeFragmentRelabel(body)
	case FrameFragmentRoundSummary:
		_, _ = DecodeFragmentRoundSummary(body)
	case FrameRejoin:
		_, _ = DecodeRejoin(body)
	case FrameAbort:
		_, _ = DecodeAbort(body)
	}
}
