package wire

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"dsteiner/internal/graph"
	rt "dsteiner/internal/runtime"
)

// randBatch builds a batch with deliberately clustered targets and seeds so
// the delta columns exercise both tiny and sign-flipping deltas, plus
// duplicate (Target, From) groups so dedupe paths run. Kind stays 0, as on
// every message that crosses ranks.
func randBatch(rng *rand.Rand, n int) []rt.Msg {
	msgs := make([]rt.Msg, n)
	for i := range msgs {
		msgs[i] = rt.Msg{
			Target: graph.VID(rng.Intn(64)), // small range forces collisions
			From:   graph.VID(rng.Intn(16)),
			Seed:   graph.VID(rng.Intn(8)),
			Dist:   graph.Dist(rng.Intn(1 << 20)),
		}
	}
	return msgs
}

// survivors computes the reference compaction: within each
// (Target, From) group keep every message tying the group's
// lexicographic minimum (Dist, Seed) — ties always survive, strictly worse
// offers never do.
func survivors(msgs []rt.Msg) []rt.Msg {
	type key struct{ t, f graph.VID }
	best := map[key]rt.Msg{}
	count := map[key]int{}
	for _, m := range msgs {
		k := key{m.Target, m.From}
		b, ok := best[k]
		switch {
		case !ok || m.Dist < b.Dist || (m.Dist == b.Dist && m.Seed < b.Seed):
			best[k] = m
			count[k] = 1
		case m.Dist == b.Dist && m.Seed == b.Seed:
			count[k]++
		}
	}
	var out []rt.Msg
	for k, m := range best {
		for i := 0; i < count[k]; i++ {
			out = append(out, m)
		}
	}
	sortMsgs(out)
	return out
}

// TestMsgBatch2RoundTrip property-tests the compacted frame: decode must
// return exactly the reference survivor multiset, and the reported elision
// count must match.
func TestMsgBatch2RoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(200)
		msgs := randBatch(rng, n)
		want := survivors(msgs)
		dest := rng.Intn(16)

		body, elided := AppendMsgBatch2(nil, dest, slices.Clone(msgs))
		if elided != n-len(want) {
			t.Logf("elided %d, want %d", elided, n-len(want))
			return false
		}
		gotDest, got, err := DecodeMsgBatch2(body[1:], nil)
		if err != nil || gotDest != dest {
			t.Logf("decode: dest=%d err=%v", gotDest, err)
			return false
		}
		gotSorted := slices.Clone(got)
		sortMsgs(gotSorted)
		if !slices.Equal(gotSorted, want) {
			t.Logf("got %v\nwant %v", gotSorted, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestMsgBatch2KeepsTies pins the tie-send rule at the wire layer: two
// byte-identical offers (same target and sender, same dist, same seed) must
// both survive compaction: elision drops strictly dominated offers only.
func TestMsgBatch2KeepsTies(t *testing.T) {
	m := rt.Msg{Target: 7, From: 7, Seed: 3, Dist: 10}
	body, elided := AppendMsgBatch2(nil, 0, []rt.Msg{m, m, m})
	if elided != 0 {
		t.Fatalf("ties must never be elided, got elided=%d", elided)
	}
	_, got, err := DecodeMsgBatch2(body[1:], nil)
	if err != nil || len(got) != 3 {
		t.Fatalf("want 3 tie messages, got %d (%v)", len(got), err)
	}

	// Strictly dominated: worse dist, and equal dist but worse seed.
	worseDist := rt.Msg{Target: 7, From: 7, Seed: 3, Dist: 11}
	worseSeed := rt.Msg{Target: 7, From: 7, Seed: 4, Dist: 10}
	body, elided = AppendMsgBatch2(nil, 0, []rt.Msg{worseDist, m, worseSeed})
	if elided != 2 {
		t.Fatalf("want 2 dominated drops, got %d", elided)
	}
	_, got, err = DecodeMsgBatch2(body[1:], nil)
	if err != nil || len(got) != 1 || got[0] != m {
		t.Fatalf("want only best offer, got %v (%v)", got, err)
	}

	// Different Target / From are distinct groups: never cross-elide.
	otherFrom := rt.Msg{Target: 7, From: 8, Seed: 9, Dist: 99}
	otherTarget := rt.Msg{Target: 8, From: 7, Seed: 9, Dist: 99}
	body, elided = AppendMsgBatch2(nil, 0, []rt.Msg{m, otherFrom, otherTarget})
	if elided != 0 {
		t.Fatalf("distinct groups must not elide, got %d", elided)
	}
	if _, got, err = DecodeMsgBatch2(body[1:], nil); err != nil || len(got) != 3 {
		t.Fatalf("want 3 distinct messages, got %d (%v)", len(got), err)
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

// BenchmarkWireEncodeBatch measures the hot Deliver-path encode at the
// runtime's default flush size.
func BenchmarkWireEncodeBatch(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	msgs := randBatch(rng, 64)
	scratch := make([]rt.Msg, len(msgs))
	var dst []byte
	b.Run("v2", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			copy(scratch, msgs) // Deliver hands over a private batch; model the copy cost out
			dst, _ = AppendMsgBatch2(dst[:0], 3, scratch)
		}
	})
}
