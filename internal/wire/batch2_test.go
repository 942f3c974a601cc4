package wire

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"dsteiner/internal/graph"
	rt "dsteiner/internal/runtime"
)

// randBatch builds a batch with deliberately clustered targets and seeds so
// the delta columns exercise both tiny and sign-flipping deltas. Kind stays
// 0, as on every message that crosses ranks.
func randBatch(rng *rand.Rand, n int) []rt.Msg {
	msgs := make([]rt.Msg, n)
	for i := range msgs {
		msgs[i] = rt.Msg{
			Target: graph.VID(rng.Intn(64)),
			From:   graph.VID(rng.Intn(16)),
			Seed:   graph.VID(rng.Intn(8)),
			Dist:   graph.Dist(rng.Intn(1 << 20)),
		}
	}
	return msgs
}

// rowScanBatch builds n messages shaped like the sends of row scans: runs
// of about 8 offers that share From and Seed, with ascending targets and
// dists one edge weight above the scanned vertex's own.
func rowScanBatch(rng *rand.Rand, n int) []rt.Msg {
	msgs := make([]rt.Msg, 0, n)
	for len(msgs) < n {
		from := graph.VID(rng.Intn(1 << 20))
		seed := graph.VID(rng.Intn(1 << 20))
		base := graph.Dist(rng.Intn(1 << 16))
		target := graph.VID(rng.Intn(1 << 20))
		for k := 4 + rng.Intn(9); k > 0 && len(msgs) < n; k-- {
			target += graph.VID(1 + rng.Intn(64))
			msgs = append(msgs, rt.Msg{Target: target, From: from, Seed: seed,
				Dist: base + graph.Dist(1+rng.Intn(100))})
		}
	}
	return msgs
}

// wideVID draws a VID from the whole int32 range, its ends included.
func wideVID(rng *rand.Rand) graph.VID {
	switch rng.Intn(4) {
	case 0:
		return math.MinInt32 + graph.VID(rng.Intn(4))
	case 1:
		return math.MaxInt32 - graph.VID(rng.Intn(4))
	case 2:
		return graph.VID(rng.Intn(64) - 32)
	}
	return graph.VID(int32(rng.Uint32()))
}

// wideDist draws a dist from small values, the neighbourhood of 2^62, the
// unreachable sentinel and the ends of int64, so the deltas wrap.
func wideDist(rng *rand.Rand) graph.Dist {
	switch rng.Intn(5) {
	case 0:
		return graph.Dist(rng.Intn(1 << 20))
	case 1:
		return 1<<62 + graph.Dist(rng.Intn(1<<10)-1<<9)
	case 2:
		return graph.InfDist
	case 3:
		return []graph.Dist{math.MinInt64, math.MaxInt64, -1}[rng.Intn(3)]
	}
	return graph.Dist(rng.Uint64())
}

// TestMsgBatch2RoundTrip property-tests the frame: decoding must return
// exactly the encoded batch, in order, for empty batches, row-scan runs and
// fields spread over the whole VID and Dist ranges.
func TestMsgBatch2RoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var msgs []rt.Msg
		switch rng.Intn(4) {
		case 0: // n = 0
		case 1:
			msgs = rowScanBatch(rng, 1+rng.Intn(200))
		case 2:
			msgs = randBatch(rng, 1+rng.Intn(200))
		default:
			msgs = make([]rt.Msg, 1+rng.Intn(200))
			for i := range msgs {
				msgs[i] = rt.Msg{Target: wideVID(rng), From: wideVID(rng), Seed: wideVID(rng), Dist: wideDist(rng)}
			}
		}
		dest := rng.Intn(16)
		body, elided := AppendMsgBatch2(nil, dest, msgs)
		if elided != 0 || body[0] != FrameMsgBatch2 {
			t.Logf("elided %d, frame type %d", elided, body[0])
			return false
		}
		gotDest, got, err := DecodeMsgBatch2(body[1:], nil)
		if err != nil || gotDest != dest {
			t.Logf("decode: dest=%d err=%v", gotDest, err)
			return false
		}
		if !slices.Equal(got, msgs) {
			t.Logf("got %v\nwant %v", got, msgs)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestMsgBatch2LeavesInputAlone pins that the encoder neither reorders nor
// rewrites the batch it is handed, ties and dominated offers included.
func TestMsgBatch2LeavesInputAlone(t *testing.T) {
	m := rt.Msg{Target: 7, From: 7, Seed: 3, Dist: 10}
	msgs := []rt.Msg{
		{Target: 9, From: 2, Seed: 5, Dist: 7},
		m, m,
		{Target: 7, From: 7, Seed: 3, Dist: 11}, // dominated by m
		{Target: 1, From: 1, Seed: 1, Dist: 1},
	}
	msgs = append(msgs, rowScanBatch(rand.New(rand.NewSource(3)), 40)...)
	want := slices.Clone(msgs)
	body, _ := AppendMsgBatch2(nil, 2, msgs)
	if !slices.Equal(msgs, want) {
		t.Fatalf("encoder modified its input:\n got %v\nwant %v", msgs, want)
	}
	if _, got, err := DecodeMsgBatch2(body[1:], nil); err != nil || !slices.Equal(got, want) {
		t.Fatalf("decode: %v (%v)", got, err)
	}
}

// TestMsgBatch2DecodeRejects feeds hand-built bodies the decoder must
// refuse: a VID column that walks outside int32, a body cut short, bytes
// past the last column and a varint longer than 64 bits.
func TestMsgBatch2DecodeRejects(t *testing.T) {
	// body is a one-message batch for rank 0 with the given column entries.
	body := func(cols ...uint64) []byte {
		b := []byte{0, 1}
		for _, c := range cols {
			b = binary.AppendUvarint(b, c)
		}
		return b
	}
	for col := 0; col < 3; col++ {
		for _, v := range []int64{math.MaxInt32 + 1, math.MinInt32 - 1, math.MaxInt64} {
			cols := []uint64{0, 0, 0, 0}
			cols[col] = zigzag(v)
			if _, _, err := DecodeMsgBatch2(body(cols...), nil); !errors.Is(err, ErrCorrupt) {
				t.Errorf("column %d = %d: err %v, want ErrCorrupt", col, v, err)
			}
		}
	}
	// Two targets each in range whose running sum is not.
	two := []byte{0, 2}
	for _, c := range []uint64{zigzag(math.MaxInt32), zigzag(1), 0, 0, 0, 0, 0, 0} {
		two = binary.AppendUvarint(two, c)
	}
	if _, _, err := DecodeMsgBatch2(two, nil); !errors.Is(err, ErrCorrupt) {
		t.Errorf("target delta past MaxInt32: err %v, want ErrCorrupt", err)
	}

	ok := body(zigzag(-5), zigzag(math.MaxInt32), zigzag(math.MinInt32), zigzag(1<<62))
	if _, got, err := DecodeMsgBatch2(ok, nil); err != nil ||
		got[0] != (rt.Msg{Target: -5, Seed: math.MaxInt32, From: math.MinInt32, Dist: 1 << 62}) {
		t.Fatalf("valid body: %v (%v)", got, err)
	}
	if _, _, err := DecodeMsgBatch2(ok[:len(ok)-1], nil); !errors.Is(err, ErrTruncated) {
		t.Errorf("truncated body: err %v, want ErrTruncated", err)
	}
	if _, _, err := DecodeMsgBatch2(append(slices.Clone(ok), 0), nil); !errors.Is(err, ErrCorrupt) {
		t.Errorf("trailing byte: err %v, want ErrCorrupt", err)
	}
	overlong := append([]byte{0, 1, 0, 0, 0}, slices.Repeat([]byte{0xff}, 10)...)
	overlong = append(overlong, 0x01)
	if _, _, err := DecodeMsgBatch2(overlong, nil); !errors.Is(err, ErrCorrupt) {
		t.Errorf("overlong dist varint: err %v, want ErrCorrupt", err)
	}
}

// TestMsgBatch2Truncation drops every suffix of valid batch bodies: the
// decoder must error, never panic, never over-allocate.
func TestMsgBatch2Truncation(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		msgs := randBatch(rng, 1+rng.Intn(60))
		body, _ := AppendMsgBatch2(nil, rng.Intn(8), msgs)
		body = body[1:] // strip frame type
		for cut := 0; cut < len(body); cut++ {
			if _, _, err := DecodeMsgBatch2(body[:cut], nil); err == nil {
				t.Fatalf("trial %d: truncation at %d/%d accepted", trial, cut, len(body))
			}
		}
	}
}

// FuzzMsgBatch2 round-trips batches built from the fuzz input, 20 bytes a
// message, and requires a body the decoder accepts to decode the same after
// re-encoding (the decoder takes non-minimal varints the encoder never
// writes, so the bytes themselves need not match).
func FuzzMsgBatch2(f *testing.F) {
	f.Add([]byte{})
	f.Add(msgBatch2Seed()[1:])
	f.Add(slices.Repeat([]byte{0xff, 0x7f, 0x80, 0x00, 0x01}, 12))
	f.Fuzz(func(t *testing.T, data []byte) {
		msgs := make([]rt.Msg, len(data)/20)
		for i := range msgs {
			r := data[20*i:]
			msgs[i] = rt.Msg{
				Target: graph.VID(int32(binary.LittleEndian.Uint32(r))),
				From:   graph.VID(int32(binary.LittleEndian.Uint32(r[4:]))),
				Seed:   graph.VID(int32(binary.LittleEndian.Uint32(r[8:]))),
				Dist:   graph.Dist(binary.LittleEndian.Uint64(r[12:])),
			}
		}
		body, _ := AppendMsgBatch2(nil, len(msgs), msgs)
		if dest, got, err := DecodeMsgBatch2(body[1:], nil); err != nil || dest != len(msgs) || !slices.Equal(got, msgs) {
			t.Fatalf("round trip of %v: dest %d, %v (%v)", msgs, dest, got, err)
		}

		dest, got, err := DecodeMsgBatch2(data, nil)
		if err != nil {
			return
		}
		again, _ := AppendMsgBatch2(nil, dest, got)
		if dest2, got2, err := DecodeMsgBatch2(again[1:], nil); err != nil || dest2 != dest || !slices.Equal(got2, got) {
			t.Fatalf("re-encoded body decodes to %d %v (%v), want %d %v", dest2, got2, err, dest, got)
		}
	})
}

// BenchmarkWireEncodeBatch measures the hot Deliver-path encode at the
// runtime's default flush size, on the row-scan shape ranks send.
func BenchmarkWireEncodeBatch(b *testing.B) {
	msgs := rowScanBatch(rand.New(rand.NewSource(1)), 64)
	var dst []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dst, _ = AppendMsgBatch2(dst[:0], 3, msgs)
	}
}

// BenchmarkWireDecodeBatch measures the receive-side decode of the same
// batch into a reused buffer and reports the frame's size per message.
func BenchmarkWireDecodeBatch(b *testing.B) {
	msgs := rowScanBatch(rand.New(rand.NewSource(1)), 64)
	body, _ := AppendMsgBatch2(nil, 3, msgs)
	buf := make([]rt.Msg, 0, len(msgs))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		if _, buf, err = DecodeMsgBatch2(body[1:], buf[:0]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(body))/float64(len(msgs)), "B/msg")
}
