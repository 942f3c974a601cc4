package core

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"dsteiner/internal/graph"
	"dsteiner/internal/partition"
	rt "dsteiner/internal/runtime"
	"dsteiner/internal/wire"
)

// codecEnv is a query environment over a 3-rank loopback host: 12 vertices
// in blocks of four, terminals {2, 5, 9} — one per rank.
func codecEnv(t testing.TB) *solveEnv {
	part, err := partition.NewBlock(12, 3)
	if err != nil {
		t.Fatal(err)
	}
	h := &rankHost{comm: rt.MustNew(rt.Config{Ranks: 3}, part), pools: []*rankPool{{}, {}, {}}}
	env := &solveEnv{rankHost: h, dedup: []graph.VID{2, 5, 9}, res: &Result{}}
	for i, s := range env.dedup {
		h.seeds.put(int64(s), int32(i))
	}
	return env
}

// prop is a round proposal of the cross edge {u, v} at distance d for the
// cell pair key, with the pair's dense indices left for the decoder.
func prop(frag int32, key int64, d graph.Dist, u, v graph.VID) fragProposal {
	return fragProposal{frag: frag, crossRec: crossRec{key: key, crossEdge: crossEdge{d, u, v}}}
}

// codecCases are records that decode cleanly but cannot belong to codecEnv's
// query. The last is a sound cross edge proposed by an impossible fragment,
// so only the proposal codec may refuse it.
var codecCases = []struct {
	name string
	p    fragProposal
}{
	{"lower half not a terminal", prop(0, seedKey(3, 5), 7, 3, 4)},
	{"upper half not a terminal", prop(0, seedKey(2, 7), 7, 3, 4)},
	{"halves equal", prop(0, int64(5)<<32|5, 7, 3, 4)},
	{"halves reversed", prop(0, int64(9)<<32|2, 7, 3, 4)},
	{"U past |V|", prop(0, seedKey(2, 5), 7, 12, 4)},
	{"V negative", prop(0, seedKey(5, 9), 7, 3, -1)},
	{"D negative", prop(0, seedKey(2, 5), -1, 3, 4)},
	{"fragment past k", prop(3, seedKey(2, 9), 7, 3, 4)},
}

// TestCrossCodecsRejectForeignRecords round-trips both phase 3–4 codecs, then
// sends each crafted record through the exchanges that decode them — the
// route of a tree query, the route of a prize query (everything to rank 0)
// and the proposals — injected on one rank of a live communicator: every
// rank must refuse together, with the corrupt-input solve error and no panic.
func TestCrossCodecsRejectForeignRecords(t *testing.T) {
	env := codecEnv(t)
	prize := &solveEnv{rankHost: env.rankHost, dedup: env.dedup, mode: ModePrize, res: &Result{}}
	good := prop(2, seedKey(2, 9), 41, 3, 8)
	good.a, good.b = 0, 2 // what the decoder resolves
	var got pairTable
	if err := env.decodeCrossEntries(appendCrossEntry(nil, good.crossRec), &got); err != nil ||
		len(got.recs) != 1 || got.recs[0] != good.crossRec {
		t.Fatalf("cross entry round trip: %v, %v", got.recs, err)
	}
	if props, err := env.decodeProposals(appendProposal(nil, good), nil); err != nil || len(props) != 1 || props[0] != good {
		t.Fatalf("proposal round trip: %v, %v", props, err)
	}
	for _, tc := range codecCases {
		s, _ := unpackSeedKey(tc.p.key)
		env.comm.Run(func(r *rt.Rank) {
			var ps []fragProposal
			var table, toZero []crossRec
			if r.ID() == (r.Owner(s)+1)%3 { // beside the owner, so routing has to move it
				ps, table = append(ps, tc.p), append(table, tc.p.crossRec)
			}
			if r.ID() == 1 { // off rank 0, so the prize route has to move it
				toZero = append(toZero, tc.p.crossRec)
			}
			// Every rank must agree; rank 0 alone holds (and clears) the solve error.
			check := func(exchange string, ok, want bool, err *error) {
				if ok != want {
					t.Errorf("%s over %s: rank %d got through: %v, want %v", tc.name, exchange, r.ID(), ok, want)
				}
				if r.ID() == 0 {
					if !want && (*err == nil || !strings.Contains((*err).Error(), "corrupt")) {
						t.Errorf("%s over %s: solve error %v", tc.name, exchange, *err)
					}
					*err = nil
				}
			}
			_, ok := env.fragmentRoute(r, table, &fragStats{})
			check("route", ok, tc.p.frag == 3, &env.err)
			_, ok = prize.fragmentRoute(r, toZero, &fragStats{})
			check("prize route", ok, tc.p.frag == 3, &prize.err)
			_, err := env.exchangeProposals(r, ps, nil, &fragStats{})
			check("proposals", err == nil, false, &err)
		})
	}
}

// FuzzCrossCodecs: no input may panic a decoder, and whatever a decoder
// accepts names two ordered terminals with their dense indices, a distance
// that is not negative, two vertices and a real fragment.
func FuzzCrossCodecs(f *testing.F) {
	env := codecEnv(f)
	for _, tc := range codecCases {
		f.Add(appendCrossEntry(nil, tc.p.crossRec))
		f.Add(appendProposal(nil, tc.p))
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		var table pairTable
		_ = env.decodeCrossEntries(blob, &table)
		props, _ := env.decodeProposals(blob, nil)
		for _, rec := range table.recs {
			props = append(props, fragProposal{crossRec: rec})
		}
		for _, p := range props {
			s, tt := unpackSeedKey(p.key)
			if !slices.Contains(env.dedup, s) || !slices.Contains(env.dedup, tt) || s >= tt ||
				env.dedup[p.a] != s || env.dedup[p.b] != tt || p.D < 0 ||
				p.U < 0 || p.U >= 12 || p.V < 0 || p.V >= 12 || p.frag < 0 || p.frag > 2 {
				t.Fatalf("accepted %+v", p)
			}
		}
	})
}

// TestRecorderAccountFolds round-trips the per-rank account the tree gather
// carries: counts add up, work takes the maximum, and rank 0 keeps its own
// times. A cut account, and a count no int64 holds, are corrupt.
func TestRecorderAccountFolds(t *testing.T) {
	account := func(sent, work int64, secs float64) *recorder {
		rec := &recorder{frag: fragStats{bytes: 10 * sent, msgs: sent, edges: 2 * sent}}
		for _, name := range PhaseNames {
			rec.phases = append(rec.phases, PhaseStat{Name: name, Seconds: secs, Sent: sent, Processed: sent - 1, MaxRankWork: work})
		}
		return rec
	}
	rank0, peer := account(5, 9, 1.5), account(7, 4, 0.25)
	if err := rank0.fold(wire.NewDec(peer.appendTo(nil))); err != nil {
		t.Fatal(err)
	}
	for _, ps := range rank0.phases {
		if ps.Sent != 12 || ps.Processed != 10 || ps.MaxRankWork != 9 || ps.Seconds != 1.5 {
			t.Fatalf("folded %+v, want sent 12, processed 10, work 9 and rank 0's 1.5 s", ps)
		}
	}
	if want := (fragStats{bytes: 120, msgs: 12, edges: 24}); rank0.frag != want {
		t.Fatalf("folded merge share %+v, want %+v", rank0.frag, want)
	}

	blob := peer.appendTo(nil)
	if err := account(0, 0, 0).fold(wire.NewDec(blob[:len(blob)-1])); !errors.Is(err, wire.ErrTruncated) {
		t.Fatalf("cut account: err %v, want ErrTruncated", err)
	}
	huge := wire.AppendUvarint(nil, 1<<63) // in place of the first count, 7: one byte
	if err := account(0, 0, 0).fold(wire.NewDec(append(huge, blob[1:]...))); !errors.Is(err, wire.ErrCorrupt) {
		t.Fatalf("count past int64: err %v, want ErrCorrupt", err)
	}
}
