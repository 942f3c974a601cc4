package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"testing/iotest"

	"dsteiner/internal/graph"
)

// oracleSetup is the Setup encoder as it was before the frame was streamed,
// one append per field with AppendVIDs/AppendInt64s-style columns, kept as
// the byte oracle of the one codec.
func oracleSetup(s Setup) []byte {
	u32s := func(dst []byte, vs []uint32) []byte {
		dst = binary.AppendUvarint(dst, uint64(len(vs)))
		for _, v := range vs {
			dst = binary.LittleEndian.AppendUint32(dst, v)
		}
		return dst
	}
	dst := []byte{FrameSetup}
	dst = AppendUvarint(dst, uint64(s.Ranks))
	dst = AppendUvarint(dst, uint64(s.NumVertices))
	dst = AppendUvarint(dst, uint64(s.WorkerIndex))
	dst = AppendInt64s(dst, s.RankLo)
	dst = AppendUvarint(dst, uint64(len(s.PeerAddrs)))
	for _, a := range s.PeerAddrs {
		dst = AppendString(dst, a)
	}
	dst = append(dst, s.Queue)
	dst = AppendUvarint(dst, uint64(s.BatchSize))
	dst = appendBool(dst, s.BSP)
	dst = AppendVIDs(dst, s.Bounds)
	dst = AppendUvarint(dst, uint64(len(s.Shards)))
	for _, sh := range s.Shards {
		dst = AppendUvarint(dst, uint64(sh.Rank))
		dst = AppendInt64s(dst, sh.Offsets)
		dst = AppendVIDs(dst, sh.Targets)
		dst = u32s(dst, sh.Weights)
	}
	return AppendUvarint(dst, s.SessionID)
}

// setupCases are Setups whose frames must match the oracle: a bare one,
// empty columns and an empty address, a worker hosting several ranks, and
// one whose columns span several scratch chunks and decode parts. An empty
// column is nil, as every decoder returns it.
func setupCases() map[string]Setup {
	ranksLo := []int64{0, 3, 5}
	big := 3*graph.ColumnChunk/4 + 17
	targets, weights, offsets := make([]graph.VID, big), make([]uint32, big), make([]int64, big/5+1)
	for i := range targets {
		targets[i] = graph.VID(i*7919) % 100_000
		weights[i] = uint32(i)*2654435761 + 1
	}
	for i := range offsets {
		offsets[i] = int64(5 * i)
	}
	offsets[len(offsets)-1] = int64(big)
	return map[string]Setup{
		"zero": {},
		"empty columns": {Ranks: 2, NumVertices: 4, PeerAddrs: []string{""},
			Shards: []ShardSlice{{Rank: 0}, {Rank: 1, Offsets: []int64{0}}}},
		"multi-rank worker": {Ranks: 5, NumVertices: 10, WorkerIndex: 1, RankLo: ranksLo,
			PeerAddrs: []string{"127.0.0.1:9", "10.0.0.2:40000"}, Queue: 1, BatchSize: 300, BSP: true,
			Bounds: []graph.VID{0, 2, 4, 6, 8, 10}, SessionID: 1<<64 - 1,
			Shards: []ShardSlice{
				{Rank: 3, Offsets: []int64{0, 2, 3}, Targets: []graph.VID{1, 7, 6}, Weights: []uint32{4, 1 << 31, 9}},
				{Rank: 4, Offsets: []int64{0, 0, 0}},
			}},
		"chunked columns": {Ranks: 1, NumVertices: 100_000, RankLo: []int64{0, 1}, PeerAddrs: []string{"a"},
			Bounds: []graph.VID{0, 100_000}, SessionID: 77,
			Shards: []ShardSlice{{Rank: 0, Offsets: offsets, Targets: targets, Weights: weights}}},
	}
}

// TestSetupStreamMatchesOracle pins the one Setup codec to the bytes of the
// encoder it replaced: EncodeSetup's payload and WriteSetup's frame are the
// oracle's, and the frame decodes back to the Setup through DecodeSetup and
// through ReadSetup fed one byte, or half a buffer, per read.
func TestSetupStreamMatchesOracle(t *testing.T) {
	for name, s := range setupCases() {
		want := oracleSetup(s)
		if got := EncodeSetup(nil, s); !bytes.Equal(got, want) {
			t.Fatalf("%s: EncodeSetup gives %d bytes, the oracle %d (first difference at %d)",
				name, len(got), len(want), firstDiff(got, want))
		}
		if got := EncodeSetup([]byte("prefix"), s); !bytes.Equal(got[len("prefix"):], want) {
			t.Fatalf("%s: EncodeSetup after a prefix differs from the oracle", name)
		}
		var frame bytes.Buffer
		if err := WriteSetup(&frame, s); err != nil {
			t.Fatalf("%s: WriteSetup: %v", name, err)
		}
		if wantFrame := AppendFrame(nil, want); !bytes.Equal(frame.Bytes(), wantFrame) {
			t.Fatalf("%s: WriteSetup's frame differs from the oracle's (first difference at %d)",
				name, firstDiff(frame.Bytes(), wantFrame))
		}
		got, err := DecodeSetup(want[1:])
		if err != nil || !reflect.DeepEqual(got, s) {
			t.Fatalf("%s: DecodeSetup = %+v, %v", name, got, err)
		}
		readers := map[string]func() (Setup, []byte, error){
			"whole":    func() (Setup, []byte, error) { return ReadSetup(bytes.NewReader(frame.Bytes())) },
			"one byte": func() (Setup, []byte, error) { return ReadSetup(iotest.OneByteReader(bytes.NewReader(frame.Bytes()))) },
			"half":     func() (Setup, []byte, error) { return ReadSetup(iotest.HalfReader(bytes.NewReader(frame.Bytes()))) },
		}
		for rname, read := range readers {
			got, other, err := read()
			if err != nil || other != nil || !reflect.DeepEqual(got, s) {
				t.Fatalf("%s, %s reads: ReadSetup = %+v, other %v, %v", name, rname, got, other, err)
			}
		}
	}
}

// TestReadSetupPassesOtherFrames checks ReadSetup hands back a frame that is
// not a Setup whole, as the worker's handshake needs for an Abort.
func TestReadSetupPassesOtherFrames(t *testing.T) {
	abort := AppendFrame(nil, EncodeAbort(nil, Abort{Reason: "wrong version"}))
	s, other, err := ReadSetup(bytes.NewReader(abort))
	if err != nil || !reflect.DeepEqual(s, Setup{}) || !bytes.Equal(other, abort[4:]) {
		t.Fatalf("ReadSetup(abort) = %+v, %q, %v", s, other, err)
	}
}

// TestReadSetupBoundsHostileLengths feeds ReadSetup frames that declare far
// more than the stream carries: a 1 GiB frame whose 2^27-entry target
// column stops after 1 MiB, a frame cut inside its header fields, a peer
// address of almost 1 GiB that stops at once or after 1 MiB, and a
// 2^28-entry column longer than its 1 GiB frame. Each must fail with
// ErrTruncated or ErrCorrupt, and a read may allocate no more than about
// twice the bytes sent plus the 64 KiB column scratch: the decode parts of a
// column or a string stay within twice the bytes received plus their first
// part's 4 KiB, and the rest is the decoder's own few hundred bytes.
func TestReadSetupBoundsHostileLengths(t *testing.T) {
	peers := func(n uint32) []byte {
		b := binary.LittleEndian.AppendUint32(nil, n)
		b = append(b, FrameSetup)
		b = AppendUvarint(b, 2)            // Ranks
		b = AppendUvarint(b, 1<<20)        // NumVertices
		b = AppendUvarint(b, 0)            // WorkerIndex
		b = AppendInt64s(b, []int64{0, 2}) // RankLo
		return AppendUvarint(b, 1)         // one peer
	}
	prefix := func(n uint32, column uint64) []byte {
		b := AppendString(peers(n), "127.0.0.1:1") // the peer's address
		b = append(b, 0)                           // Queue
		b = AppendUvarint(b, 64)                   // BatchSize
		b = append(b, 0)                           // BSP
		b = AppendVIDs(b, []graph.VID{0, 9})       // Bounds
		b = AppendUvarint(b, 1)                    // one shard
		b = AppendUvarint(b, 0)                    // its rank
		b = AppendInt64s(b, []int64{0, 0})         // offsets
		return AppendUvarint(b, column)            // the target count
	}
	cutColumn := append(prefix(MaxFrame, 1<<27), make([]byte, 1<<20)...)
	cases := map[string][]byte{
		"1 GiB frame, column cut at 1 MiB": cutColumn,
		"1 GiB frame, cut in the header":   prefix(MaxFrame, 1<<27)[:20],
		"1 GiB frame, huge peer address":   AppendUvarint(peers(MaxFrame), MaxFrame-64),
		"huge peer address cut at 1 MiB":   append(AppendUvarint(peers(MaxFrame), MaxFrame-64), make([]byte, 1<<20)...),
		"2^28-entry column":                prefix(MaxFrame, 1<<28),
		"column past a short frame":        prefix(64, 1<<10),
	}
	for name, stream := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, err := ReadSetup(bytes.NewReader(stream))
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: err %v, want ErrTruncated or ErrCorrupt", name, err)
		}
		allocated := after.TotalAlloc - before.TotalAlloc
		t.Logf("%s: %d bytes sent, %d allocated", name, len(stream), allocated)
		if bound := 2*uint64(len(stream)) + graph.ColumnChunk + firstPart + 1<<10; allocated > bound {
			t.Fatalf("%s: %d bytes sent, %d allocated, bound %d", name, len(stream), allocated, bound)
		}
	}
}

// firstDiff is the first index at which a and b differ.
func firstDiff(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}
