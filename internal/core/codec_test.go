package core

import (
	"slices"
	"strings"
	"testing"

	"dsteiner/internal/graph"
	"dsteiner/internal/partition"
	rt "dsteiner/internal/runtime"
)

// codecEnv is a query environment over a 3-rank loopback host: 12 vertices
// in blocks of four, terminals {2, 5, 9} — one per rank.
func codecEnv(t testing.TB) *solveEnv {
	part, err := partition.NewBlock(12, 3)
	if err != nil {
		t.Fatal(err)
	}
	h := newRankHost(rt.MustNew(rt.Config{Ranks: 3}, part), false)
	env := &solveEnv{rankHost: h, dedup: []graph.VID{2, 5, 9}, res: &Result{}}
	for i, s := range env.dedup {
		h.seedIdx[s] = int32(i)
	}
	return env
}

// codecCases are records that decode cleanly but cannot belong to codecEnv's
// query. The last is a sound cross edge proposed by an impossible fragment,
// so only the proposal codec may refuse it.
var codecCases = []struct {
	name string
	p    fragProposal
}{
	{"lower half not a terminal", fragProposal{key: seedKey(3, 5), crossEdge: crossEdge{7, 3, 4}}},
	{"upper half not a terminal", fragProposal{key: seedKey(2, 7), crossEdge: crossEdge{7, 3, 4}}},
	{"halves equal", fragProposal{key: int64(5)<<32 | 5, crossEdge: crossEdge{7, 3, 4}}},
	{"halves reversed", fragProposal{key: int64(9)<<32 | 2, crossEdge: crossEdge{7, 3, 4}}},
	{"U past |V|", fragProposal{key: seedKey(2, 5), crossEdge: crossEdge{7, 12, 4}}},
	{"V negative", fragProposal{key: seedKey(5, 9), crossEdge: crossEdge{7, 3, -1}}},
	{"fragment past k", fragProposal{frag: 3, key: seedKey(2, 9), crossEdge: crossEdge{7, 3, 4}}},
}

// TestCrossCodecsRejectForeignRecords round-trips both phase 3–4 codecs, then
// sends each crafted record through the exchanges that decode them — the
// route of a tree query, the route of a prize query (everything to rank 0)
// and the proposals — injected on one rank of a live communicator: every
// rank must refuse together, with the corrupt-input solve error and no panic.
func TestCrossCodecsRejectForeignRecords(t *testing.T) {
	env := codecEnv(t)
	prize := &solveEnv{rankHost: env.rankHost, dedup: env.dedup, mode: ModePrize, res: &Result{}}
	good := fragProposal{frag: 2, key: seedKey(2, 9), crossEdge: crossEdge{41, 3, 8}}
	got := map[int64]crossEdge{}
	if err := env.decodeCrossEntries(appendCrossEntry(nil, good.key, good.crossEdge), got); err != nil || got[good.key] != good.crossEdge {
		t.Fatalf("cross entry round trip: %v, %v", got, err)
	}
	if props, err := env.decodeProposals(appendProposal(nil, good), nil); err != nil || len(props) != 1 || props[0] != good {
		t.Fatalf("proposal round trip: %v, %v", props, err)
	}
	for _, tc := range codecCases {
		s, _ := unpackSeedKey(tc.p.key)
		env.comm.Run(func(r *rt.Rank) {
			var ps []fragProposal
			table, toZero := map[int64]crossEdge{}, map[int64]crossEdge{}
			if r.ID() == (r.Owner(s)+1)%3 { // beside the owner, so routing has to move it
				ps, table[tc.p.key] = append(ps, tc.p), tc.p.crossEdge
			}
			if r.ID() == 1 { // off rank 0, so the prize route has to move it
				toZero[tc.p.key] = tc.p.crossEdge
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
			_, err := env.exchangeProposals(r, ps, &fragStats{})
			check("proposals", err == nil, false, &err)
		})
	}
}

// FuzzCrossCodecs: no input may panic a decoder, and whatever a decoder
// accepts names two ordered terminals, two vertices and a real fragment.
func FuzzCrossCodecs(f *testing.F) {
	env := codecEnv(f)
	for _, tc := range codecCases {
		f.Add(appendCrossEntry(nil, tc.p.key, tc.p.crossEdge))
		f.Add(appendProposal(nil, tc.p))
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		table := map[int64]crossEdge{}
		_ = env.decodeCrossEntries(blob, table)
		props, _ := env.decodeProposals(blob, nil)
		for k, ce := range table {
			props = append(props, fragProposal{key: k, crossEdge: ce})
		}
		for _, p := range props {
			s, tt := unpackSeedKey(p.key)
			if !slices.Contains(env.dedup, s) || !slices.Contains(env.dedup, tt) || s >= tt ||
				p.U < 0 || p.U >= 12 || p.V < 0 || p.V >= 12 || p.frag < 0 || p.frag > 2 {
				t.Fatalf("accepted %+v", p)
			}
		}
	})
}
