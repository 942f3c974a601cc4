package graph

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzReadEdgeList checks that the text parser never panics and that any
// accepted graph validates and round-trips.
func FuzzReadEdgeList(f *testing.F) {
	f.Add("0 1 5\n1 2 3\n")
	f.Add("# comment\n\n0 1\n")
	f.Add("0 1 -5\n")
	f.Add("garbage line\n")
	f.Fuzz(func(t *testing.T, in string) {
		g, err := ReadEdgeList(bytes.NewReader([]byte(in)))
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted graph fails validation: %v", err)
		}
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			t.Fatalf("write-back failed: %v", err)
		}
		g2, err := ReadEdgeList(&buf)
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		if g2.NumEdges() != g.NumEdges() {
			t.Fatalf("round trip changed edge count %d -> %d", g.NumEdges(), g2.NumEdges())
		}
	})
}

// FuzzReadBinary checks that the binary reader never panics on corrupt
// containers and that anything accepted validates.
func FuzzReadBinary(f *testing.F) {
	var seed bytes.Buffer
	g := MustFromEdges(3, []Edge{{U: 0, V: 1, W: 2}, {U: 1, V: 2, W: 3}})
	if err := WriteBinary(&seed, g); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte("DSTEINR1 but short"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, in []byte) {
		g, err := ReadBinary(bytes.NewReader(in))
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted binary graph fails validation: %v", err)
		}
	})
}

// shardFuzzInput encodes NewShardFromSlices' arguments the way
// FuzzShardFromSlices decodes them: varints for n, the rank count, the rank
// and the range, then each column as a length and its entries.
func shardFuzzInput(n, numRanks, rank int, lo, hi VID, offsets []int64, targets []VID, weights []uint32) []byte {
	var b []byte
	put := func(v int64) { b = binary.AppendVarint(b, v) }
	for _, v := range []int64{int64(n), int64(numRanks), int64(rank), int64(lo), int64(hi)} {
		put(v)
	}
	for _, col := range [][]int64{offsets, convert[VID, int64](targets), convert[uint32, int64](weights)} {
		put(int64(len(col)))
		for _, v := range col {
			put(v)
		}
	}
	return b
}

// convert copies vs element by element into another integer type.
func convert[From, To VID | uint32 | int64](vs []From) []To {
	out := make([]To, len(vs))
	for i, v := range vs {
		out[i] = To(v)
	}
	return out
}

// FuzzShardFromSlices feeds arbitrary wire columns to NewShardFromSlices,
// the boundary a rankd worker rebuilds its shard at. The contract: it
// returns an error, or a shard whose every row reads back in range — each resolved target an owned row or a ghost slot, and
// Target recovering exactly the target the column carried.
func FuzzShardFromSlices(f *testing.F) {
	g := MustFromEdges(6, []Edge{{U: 0, V: 1, W: 2}, {U: 1, V: 2, W: 3}, {U: 2, V: 3, W: 1},
		{U: 3, V: 4, W: 4}, {U: 4, V: 5, W: 2}, {U: 1, V: 4, W: 7}, {U: 0, V: 4, W: 1}})
	for rank := 0; rank < 2; rank++ {
		lo, hi := VID(3*rank), VID(3*rank+3)
		offsets, targets, weights := CutShard(g, lo, hi)
		f.Add(shardFuzzInput(6, 2, rank, lo, hi, offsets, targets, weights))
		bad := append([]VID(nil), targets...)
		bad[0] = -1
		f.Add(shardFuzzInput(6, 2, rank, lo, hi, offsets, bad, weights))
		f.Add(shardFuzzInput(6, 2, rank, lo, hi, offsets[:2], targets, weights))
	}
	f.Add(shardFuzzInput(6, 1, 0, 0, 0, []int64{0}, nil, nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		next := func() int64 {
			v, err := binary.ReadVarint(r)
			if err != nil {
				return 0
			}
			return v
		}
		column := func() []int64 {
			out := make([]int64, min(uint64(next()), 64))
			for i := range out {
				out[i] = next()
			}
			return out
		}
		vids, ws := convert[int64, VID], convert[int64, uint32]
		n, numRanks := 1+int(uint64(next())%64), 1+int(uint64(next())%4)
		rank, lo, hi := int(next()), VID(next()), VID(next())
		offsets, targets, weights := column(), vids(column()), ws(column())
		s, err := NewShardFromSlices(n, rank, numRanks, lo, hi, offsets, targets, weights)
		if err != nil {
			return
		}
		if s.NumOwned() != int(hi-lo) {
			t.Fatalf("NumOwned %d for range [%d,%d)", s.NumOwned(), lo, hi)
		}
		for i := int32(0); int(i) < s.NumOwned(); i++ {
			ws, refs := s.RowArcs(i)
			want := targets[offsets[i]:offsets[i+1]]
			if len(ws) != len(want) || len(refs) != len(want) {
				t.Fatalf("row %d: %d weights, %d refs for %d arcs", i, len(ws), len(refs), len(want))
			}
			for j, ref := range refs {
				if ref >= int32(s.NumOwned()) || (ref < 0 && int(^ref) >= s.NumGhosts()) {
					t.Fatalf("row %d arc %d: ref %d outside %d rows and %d ghosts", i, j, ref, s.NumOwned(), s.NumGhosts())
				}
				if u := s.Target(ref); u != want[j] || u < 0 || int(u) >= n {
					t.Fatalf("row %d arc %d: Target %d, column carried %d", i, j, u, want[j])
				}
			}
		}
	})
}
