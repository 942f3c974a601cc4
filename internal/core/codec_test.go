package core

import (
	"errors"
	"slices"
	"testing"
	"time"

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

// cross is the cross edge {u, v} at distance d for the cell pair key, with
// the pair's dense indices left for the decoder.
func cross(key int64, d graph.Dist, u, v graph.VID) crossRec {
	return crossRec{key: key, crossEdge: crossEdge{d, u, v}}
}

// codecCases are records that decode cleanly but cannot belong to codecEnv's
// query.
var codecCases = []struct {
	name string
	rec  crossRec
}{
	{"lower half not a terminal", cross(seedKey(3, 5), 7, 3, 4)},
	{"upper half not a terminal", cross(seedKey(2, 7), 7, 3, 4)},
	{"halves equal", cross(int64(5)<<32|5, 7, 3, 4)},
	{"halves reversed", cross(int64(9)<<32|2, 7, 3, 4)},
	{"U past |V|", cross(seedKey(2, 5), 7, 12, 4)},
	{"V negative", cross(seedKey(5, 9), 7, 3, -1)},
	{"V past |V|", cross(seedKey(5, 9), 7, 3, 12)},
	{"D negative", cross(seedKey(2, 5), -1, 3, 4)},
}

// TestCrossCodecsRejectForeignRecords round-trips the phase 3 and phase 5
// codecs, then injects each crafted record into rank 1's table on a live
// communicator: phases 3–5 must stop every rank together, with rank 0
// holding the corrupt-input solve error. Then rank 0 broadcasts chosen sets
// no rank may accept. The receivers' decoder must refuse each, and a
// refusal must end the solve on every rank, rank 0 included when it walks on
// into phase 6.
func TestCrossCodecsRejectForeignRecords(t *testing.T) {
	env := codecEnv(t)
	good := cross(seedKey(2, 9), 41, 3, 8)
	good.a, good.b = 0, 2 // what the decoder resolves
	var got pairTable
	if err := env.decodeCrossEntries(appendCrossEntry(nil, good), &got); err != nil ||
		len(got.recs) != 1 || got.recs[0] != good {
		t.Fatalf("cross entry round trip: %v, %v", got.recs, err)
	}
	chosen := appendChosen([]crossRec{good}, &fragStats{})
	if recs, ok, err := env.readChosen(chosen, nil); err != nil || !ok || len(recs) != 1 || recs[0] != good {
		t.Fatalf("chosen set round trip: %v, %v, %v", recs, ok, err)
	}
	if recs, ok, err := env.readChosen([]byte{chosenFailed}, nil); err != nil || ok || len(recs) != 0 {
		t.Fatalf("failure status: %v, %v, %v", recs, ok, err)
	}

	for _, tc := range codecCases {
		env.pools[1].localEN.reset()
		env.pools[1].localEN.fold(tc.rec)
		env.comm.Run(func(r *rt.Rank) {
			if env.mergeMST(r, &recorder{}) {
				t.Errorf("%s: rank %d went on to phase 6", tc.name, r.ID())
			}
		})
		if env.err == nil || !errors.Is(env.err, wire.ErrCorrupt) {
			t.Errorf("%s: solve error %v", tc.name, env.err)
		}
		env.err = nil
	}
	env.pools[1].localEN.reset()

	foreign := appendChosen([]crossRec{good, codecCases[0].rec}, &fragStats{})
	for _, tc := range []struct {
		name string
		blob []byte
	}{
		{"unknown status", append([]byte{chosenFailed + 1}, chosen[1:]...)},
		{"failure carrying records", append([]byte{chosenFailed}, chosen[1:]...)},
		{"truncated record", chosen[:len(chosen)-1]},
		{"foreign record", foreign},
	} {
		if _, _, err := env.readChosen(tc.blob, nil); err == nil {
			t.Errorf("%s: a receiver accepted the blob", tc.name)
		}
		ended := make([]any, 3) // what each rank's body ended in
		done := make(chan any, 1)
		go func() {
			defer func() { done <- recover() }()
			env.comm.Run(func(r *rt.Rank) {
				defer func() {
					if ended[r.ID()] = recover(); ended[r.ID()] != nil {
						panic(ended[r.ID()]) // on to the poison path
					}
				}()
				var blob []byte
				if r.ID() == 0 {
					blob = tc.blob
				}
				rec := &recorder{}
				if env.shareChosen(r, blob, &rec.frag) {
					env.treeEdges(r, rec)
				}
			})
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: the solve is still running", tc.name)
		}
		// A rank waiting in a collective when a peer's refusal poisons the
		// communicator may take the abort for its own refusal, and rank 0
		// may end cleanly once its status said stop. Every receiver must
		// end in a panic, one of them in its refusal, and rank 0 too when
		// its status let it walk on into phase 6.
		refused := false
		for rank, p := range ended {
			err, _ := p.(error)
			refused = refused || rank > 0 && (errors.Is(err, wire.ErrCorrupt) || errors.Is(err, wire.ErrTruncated))
			if p == nil && (rank > 0 || tc.blob[0] == chosenOK) {
				t.Errorf("%s: rank %d finished the solve", tc.name, rank)
			}
		}
		if !refused {
			t.Errorf("%s: no receiver refused the blob: %v", tc.name, ended)
		}
	}
}

// FuzzCrossCodecs: no input may panic a decoder, and whatever a decoder
// accepts names two ordered terminals with their dense indices, a distance
// that is not negative and two vertices.
func FuzzCrossCodecs(f *testing.F) {
	env := codecEnv(f)
	for _, tc := range codecCases {
		f.Add(appendCrossEntry(nil, tc.rec))
		f.Add(appendChosen([]crossRec{tc.rec}, &fragStats{}))
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		var table pairTable
		_ = env.decodeCrossEntries(blob, &table)
		recs, _, _ := env.readChosen(blob, nil)
		for _, rec := range append(recs, table.recs...) {
			s, tt := unpackSeedKey(rec.key)
			if !slices.Contains(env.dedup, s) || !slices.Contains(env.dedup, tt) || s >= tt ||
				env.dedup[rec.a] != s || env.dedup[rec.b] != tt || rec.D < 0 ||
				rec.U < 0 || rec.U >= 12 || rec.V < 0 || rec.V >= 12 {
				t.Fatalf("accepted %+v", rec)
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
