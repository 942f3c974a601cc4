package core

import (
	"fmt"
	"slices"

	"dsteiner/internal/graph"
	"dsteiner/internal/mst"
	rt "dsteiner/internal/runtime"
	"dsteiner/internal/wire"
)

// This file is the rank-parallel fragment-merge MST: phases 3–5 without the
// replicated cross table, for every query mode. Phase 3 routes every E_N
// record to the rank that owns the pair's lower seed vertex, so the distance
// graph lives sharded — no rank ever holds the O(k²) table. Phase 4 runs
// distributed Borůvka/GHS rounds: each rank proposes the minimum outgoing
// edge of every fragment it can see in its shard, the proposals are
// broadcast, and every rank replays the identical winner sequence against
// its fragment-label array. Winners double as phase-5 pruned entries, so
// phase 5 needs no extra collective.
//
// A prize query's moat-growing plan reads the whole distance graph, so its
// records are all routed to rank 0, which plans the kept set before the
// rounds; an entry with a skipped end then dies like an intra-fragment one.

// fragStats accumulates one rank's fragment-merge traffic for the query's
// CrossTableBytes / FragmentMsgs counters. bytes is encoded payload moved
// through collectives (contributed + received), equal on every backend.
type fragStats struct {
	bytes int64
	msgs  int64
}

// fragProposal is one fragment's candidate minimum outgoing edge for a
// Borůvka round: the proposing fragment label plus the full cross-table
// record, so winners can be kept as pruned entries without re-fetching them
// from the owning rank.
type fragProposal struct {
	frag int32
	crossRec
}

// slotTable maps int64 keys to int32 values by open addressing over a
// power-of-two slot array at most half full. Slots are stamped with the
// table's epoch, so a reset is O(1) and the arrays keep their capacity
// between queries (the yardstick's pairSlot table).
type slotTable struct {
	keys  []int64
	vals  []int32
	stamp []uint32 // a slot is live while its stamp equals epoch
	epoch uint32
	n     int
}

func (t *slotTable) reset() {
	t.n = 0
	if t.epoch++; t.epoch == 0 { // wrapped: old stamps could match again
		clear(t.stamp)
		t.epoch = 1
	}
}

// slot returns key's live slot, or the free slot where it belongs.
func (t *slotTable) slot(key int64) int {
	mask := uint64(len(t.keys) - 1)
	i := uint64(key) * 0x9E3779B97F4A7C15 >> 32 & mask // Fibonacci hashing
	for t.stamp[i] == t.epoch && t.keys[i] != key {
		i = (i + 1) & mask
	}
	return int(i)
}

// get returns key's value, or -1 if key is absent.
func (t *slotTable) get(key int64) int32 {
	if t.n > 0 {
		if i := t.slot(key); t.stamp[i] == t.epoch {
			return t.vals[i]
		}
	}
	return -1
}

// put returns key's value, first setting it to v if key is absent.
func (t *slotTable) put(key int64, v int32) int32 {
	if 2*(t.n+1) > len(t.keys) {
		old, n := *t, max(64, 2*len(t.keys))
		t.keys, t.vals, t.stamp, t.epoch, t.n = make([]int64, n), make([]int32, n), make([]uint32, n), 1, 0
		for i, k := range old.keys {
			if old.stamp[i] == old.epoch {
				t.put(k, old.vals[i])
			}
		}
	}
	i := t.slot(key)
	if t.stamp[i] != t.epoch {
		t.stamp[i], t.keys[i], t.vals[i] = t.epoch, key, v
		t.n++
	}
	return t.vals[i]
}

// pairTable folds E_N records by cell pair into recs, one pickCross survivor
// per pair. Phase 4 sorts the routed shard's recs in place; only a reset
// makes folding safe again.
type pairTable struct {
	index slotTable // seedKey -> position in recs
	recs  []crossRec
}

func (t *pairTable) reset() { t.index.reset(); t.recs = t.recs[:0] }

func (t *pairTable) fold(rec crossRec) {
	if i := t.index.put(rec.key, int32(len(t.recs))); int(i) < len(t.recs) {
		t.recs[i].crossEdge = pickCross(t.recs[i].crossEdge, rec.crossEdge)
	} else {
		t.recs = append(t.recs, rec)
	}
}

// seedIndex is s's dense terminal index, or -1 if s is not a terminal.
func (env *solveEnv) seedIndex(s graph.VID) int32 { return env.seeds.get(int64(s)) }

// fragmentRoute is the fragment merge's phase 3: every cross-cell record is
// routed to the rank owning the pair's lower seed vertex — on a prize query,
// to rank 0 — leaving each rank with a disjoint shard of the global E_N
// table (same pickCross survivor per pair as a gather of the whole table —
// the fold is order-insensitive). Returns ok=false after recording env.err
// on rank 0 when a routed blob fails to decode; received blobs are
// personalized, so the failure is agreed with an allreduce and all ranks
// bail uniformly.
func (env *solveEnv) fragmentRoute(r *rt.Rank, localEN []crossRec, fs *fragStats) ([]crossRec, bool) {
	owned := &env.pools[r.ID()].owned
	owned.reset()
	blobs := make([][]byte, r.NumRanks())
	for _, rec := range localEN {
		s, t := unpackSeedKey(rec.key)
		d := 0
		if env.mode != ModePrize {
			d = r.Owner(s)
		}
		if d != r.ID() {
			fs.msgs++
			blobs[d] = appendCrossEntry(blobs[d], rec) // the owner resolves the pair
		} else {
			rec.a, rec.b = env.seedIndex(s), env.seedIndex(t)
			owned.fold(rec)
		}
	}
	var out []rt.Blob
	for d, b := range blobs {
		if len(b) > 0 {
			fs.bytes += int64(len(b))
			out = append(out, rt.Blob{Src: r.ID(), Dest: d, Blob: b})
		}
	}
	var failed int64
	for _, fb := range rt.Exchange(r, out) {
		fs.bytes += int64(len(fb.Blob))
		if err := env.decodeCrossEntries(fb.Blob, owned); err != nil && failed == 0 {
			failed = int64(r.ID()) + 1
		}
	}
	if bad := r.AllreduceMaxInt64(failed); bad > 0 {
		if r.ID() == 0 {
			env.err = fmt.Errorf("core: fragment cross-table exchange: corrupt blob at rank %d", bad-1)
		}
		return nil, false
	}
	return owned.recs, true
}

// fragmentMST is the fragment merge's phase 4: Borůvka/GHS rounds over the
// rank-sharded table. Each rank sorts its shard once under the (D, key)
// total order, so a fragment's best outgoing edge in a round is its first
// live entry; an entry found dead — both ends in one fragment, or on a prize
// query a skipped end — is compacted out and never tested again. The
// proposals are broadcast, and all ranks apply the per-fragment winners
// against identical union-find state, so the label array never needs to
// travel. Accepted winners accumulate into the rank's pruned slice, the same
// edge set on every rank.
func (env *solveEnv) fragmentMST(r *rt.Rank, owned []crossRec, fs *fragStats) bool {
	res, k, sc := env.res, len(env.dedup), env.pools[r.ID()]
	if total := r.AllreduceSumInt64(int64(len(owned))); r.ID() == 0 {
		res.DistGraphEdges = int(total)
	}
	slices.SortFunc(owned, compareCross)
	// kept counts the terminals the chosen edges must join: all of them, or
	// the prize plan's keep set, which only rank 0 (holding the whole table)
	// knows — elsewhere keep stays nil, over an empty shard.
	kept, keep := k, []bool(nil)
	if env.mode == ModePrize {
		var n int
		if r.ID() == 0 {
			keep, n = env.planPrize(owned)
		}
		kept = int(r.AllreduceMaxInt64(int64(n)))
	}

	// Label-indexed arrays: frag is each terminal's fragment label, best[f]
	// equals the round's stamp once fragment f has its local best, and
	// winner[f] indexes f's least proposal of the round, or is -1.
	if cap(sc.labels) < 3*k {
		sc.labels = make([]int32, 3*k)
	}
	frag, best, winner := sc.labels[:k], sc.labels[k:2*k], sc.labels[2*k:3*k]
	for i := range frag {
		frag[i], best[i], winner[i] = int32(i), 0, -1
	}
	find := func(x int32) int32 {
		for frag[x] != x {
			frag[x] = frag[frag[x]]
			x = frag[x]
		}
		return x
	}

	pruned := sc.pruned[:0]
	rounds, chosen := 0, 0
	for {
		stamp := int32(rounds + 1)
		props, live := sc.props[:0], owned[:0]
		for _, e := range owned {
			fu, fv := frag[e.a], frag[e.b]
			if fu == fv || (keep != nil && !(keep[e.a] && keep[e.b])) {
				continue // dead for all later rounds
			}
			live = append(live, e)
			for _, f := range [2]int32{fu, fv} {
				if best[f] != stamp {
					best[f] = stamp
					props = append(props, fragProposal{frag: f, crossRec: e})
				}
			}
		}
		owned, sc.props = live, props
		fs.msgs += int64(len(props))
		all, err := env.exchangeProposals(r, props, sc.all[:0], fs)
		if err != nil {
			// Proposal blobs are broadcast, so every rank sees the same
			// corrupt payload and fails here together.
			if r.ID() == 0 {
				env.err = fmt.Errorf("core: fragment merge round %d: %w", rounds+1, err)
			}
			return false
		}
		sc.all = all
		if len(all) == 0 {
			break
		}
		rounds++
		for i, p := range all {
			if w := winner[p.frag]; w < 0 || compareCross(p.crossRec, all[w].crossRec) < 0 {
				winner[p.frag] = int32(i)
			}
		}
		// Under the strict total order the winners form a forest, apart from
		// an edge both its fragments picked, so every rank accepts the same
		// edges in whatever order the proposals arrived, and the min-root
		// relabel leaves every rank the same labels.
		for i, p := range all {
			if winner[p.frag] != int32(i) {
				continue
			}
			winner[p.frag] = -1
			ru, rv := find(p.a), find(p.b)
			if ru == rv {
				continue // both endpoint fragments picked this same edge
			}
			if rv < ru {
				ru, rv = rv, ru
			}
			frag[rv] = ru // min-root representative keeps labels canonical
			pruned = append(pruned, p.crossRec)
			chosen++
		}
		for i := range frag {
			frag[i] = find(int32(i)) // pointer-jump full relabel
		}
	}
	sc.pruned = pruned

	bytes := r.AllreduceSumInt64(fs.bytes)
	msgs := r.AllreduceSumInt64(fs.msgs)
	if r.ID() == 0 {
		res.CrossTableBytes = bytes
		res.FragmentMsgs = msgs
		res.MSTRounds = rounds
	}

	want := kept - 1
	if env.mode == ModeForest {
		want = k - env.numGroups
	}
	if chosen < want {
		if r.ID() == 0 {
			env.err = fragmentDisconnectedErr(env, kept, chosen, frag)
		}
		return false
	}
	return true
}

// planPrize runs the moat-growing plan on rank 0, which holds a prize
// query's whole routed table, records the skipped terminals, and returns the
// keep marks and how many terminals they keep.
func (env *solveEnv) planPrize(owned []crossRec) ([]bool, int) {
	wedges := make([]mst.WEdge, 0, len(owned))
	for _, e := range owned {
		wedges = append(wedges, mst.WEdge{U: e.a, V: e.b, W: e.D})
	}
	keep := prizePlan(len(env.dedup), wedges, env.penalty)
	kept := 0
	for i, in := range keep {
		if in {
			kept++
		} else {
			env.res.Skipped = append(env.res.Skipped, env.dedup[i])
		}
	}
	return keep, kept
}

// fragmentDisconnectedErr names what the fragment merge's chosen edge set
// (the unique MSF, so the component counts are a sequential solver's) fails
// to connect: the kept terminals of a prize query, all terminals of a tree
// query (kept counts them either way), or one group of a forest query, whose
// components' roots (frag[i] == i) each lie in their terminals' one group.
// A forest group can fail although the graph connects it: phase 2 keeps only
// the candidate edges between two cells of one group, so a group whose paths
// all cross another group's cells has none (TestForestGroupThroughForeignCell).
func fragmentDisconnectedErr(env *solveEnv, kept, chosen int, frag []int32) error {
	switch env.mode {
	case ModePrize:
		return fmt.Errorf("core: internal error: prize kept set spans %d connected components", kept-chosen)
	case ModeForest:
		comps := make([]int, env.numGroups)
		for i, f := range frag {
			if f == int32(i) {
				comps[env.groupOf[i]]++
			}
		}
		for gi, c := range comps {
			if c > 1 {
				return fmt.Errorf("core: forest group %d is left in %d pieces: the solver needs a group-disjoint "+
					"forest inside the terminals' Voronoi cells, and this query has none", gi, c)
			}
		}
		return fmt.Errorf("core: the solver needs a group-disjoint forest inside the terminals' Voronoi cells, and this query has none")
	}
	return fmt.Errorf("core: seeds span %d connected components; Steiner tree requires one", kept-chosen)
}

// exchangeProposals broadcasts every rank's round proposals to all ranks,
// one encoded blob per rank (Dest -1), and appends everyone's to into.
func (env *solveEnv) exchangeProposals(r *rt.Rank, props, into []fragProposal, fs *fragStats) ([]fragProposal, error) {
	blob := make([]byte, 0, 16*len(props)) // ≈16 bytes a proposal: one allocation
	for _, p := range props {
		blob = appendProposal(blob, p)
	}
	var out []rt.Blob
	if len(blob) > 0 {
		fs.bytes += int64(len(blob))
		out = append(out, rt.Blob{Src: r.ID(), Dest: -1, Blob: blob})
	}
	for _, fb := range rt.Exchange(r, out) {
		fs.bytes += int64(len(fb.Blob))
		var err error
		if into, err = env.decodeProposals(fb.Blob, into); err != nil {
			return nil, err
		}
	}
	return into, nil
}

// appendCrossEntry appends one cross-table record, the unit of both the
// fragment routing and the round proposals. Records carry no count prefix —
// the enclosing blob delimits them — and no dense indices: the receiver
// resolves those from the key.
func appendCrossEntry(dst []byte, rec crossRec) []byte {
	dst = wire.AppendVarint(dst, rec.key)
	dst = wire.AppendUvarint(dst, uint64(rec.D))
	dst = wire.AppendUvarint(dst, uint64(uint32(rec.U)))
	dst = wire.AppendUvarint(dst, uint64(uint32(rec.V)))
	return dst
}

// readCrossEntry decodes one cross-table record and rejects one that is
// well-formed but cannot belong to this query: the key's halves must be two
// distinct terminals in (s < t) order — anything else would union the
// wrong fragments — the distance must not be negative, which would win every
// round, and the bridge endpoints must be vertices, because phase 6 hands
// them to Owns and Send.
func (env *solveEnv) readCrossEntry(d *wire.Dec) (crossRec, error) {
	rec := crossRec{key: d.Varint()}
	rec.D = graph.Dist(d.Uvarint())
	rec.U = graph.VID(int32(d.Uvarint()))
	rec.V = graph.VID(int32(d.Uvarint()))
	if err := d.Err(); err != nil {
		return crossRec{}, err
	}
	s, t := unpackSeedKey(rec.key)
	rec.a, rec.b = env.seedIndex(s), env.seedIndex(t)
	n := graph.VID(env.comm.Partition().NumVertices())
	if rec.a < 0 || rec.b < 0 || s >= t || rec.D < 0 || rec.U < 0 || rec.U >= n || rec.V < 0 || rec.V >= n {
		return crossRec{}, fmt.Errorf("%w: cross edge {%d, %d} at distance %d for cell pair (%d, %d)",
			wire.ErrCorrupt, rec.U, rec.V, rec.D, s, t)
	}
	return rec, nil
}

// decodeCrossEntries folds every record of a cross-table blob into table
// under the pickCross total order.
func (env *solveEnv) decodeCrossEntries(blob []byte, table *pairTable) error {
	d := wire.NewDec(blob)
	for d.Len() > 0 {
		rec, err := env.readCrossEntry(d)
		if err != nil {
			return err
		}
		table.fold(rec)
	}
	return nil
}

// appendProposal appends one round proposal: the proposing fragment, then
// the cross-table record it proposes.
func appendProposal(dst []byte, p fragProposal) []byte {
	return appendCrossEntry(wire.AppendUvarint(dst, uint64(uint32(p.frag))), p.crossRec)
}

// decodeProposals appends a round blob's proposals to into. Besides the
// record's own checks, the proposing fragment must be a terminal index: the
// winner array is indexed by it.
func (env *solveEnv) decodeProposals(blob []byte, into []fragProposal) ([]fragProposal, error) {
	d := wire.NewDec(blob)
	for d.Len() > 0 {
		frag := int32(d.Uvarint())
		rec, err := env.readCrossEntry(d)
		if err != nil {
			return into, err
		}
		if frag < 0 || int(frag) >= len(env.dedup) {
			return into, fmt.Errorf("%w: proposal from fragment %d of %d", wire.ErrCorrupt, frag, len(env.dedup))
		}
		into = append(into, fragProposal{frag: frag, crossRec: rec})
	}
	return into, nil
}
