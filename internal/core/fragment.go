package core

import (
	"fmt"

	"dsteiner/internal/faultpoint"
	"dsteiner/internal/graph"
	"dsteiner/internal/mst"
	rt "dsteiner/internal/runtime"
	"dsteiner/internal/wire"
)

// This file is phases 3–5 in the paper's shape, for every query mode: the
// ranks gather their phase-2 tables to rank 0 in one exchange, rank 0 alone
// builds the minimum spanning forest of the distance graph G'₁ with one
// sequential pass, and one broadcast hands the chosen edges back. Two
// collectives in all, whatever the terminal count or the mode.

// fragStats accumulates one rank's share of the query's CrossTableBytes,
// FragmentMsgs and DistGraphEdges counters; the tree gather sums them at
// rank 0. bytes is the encoded payload of the phase 3 and 5 exchanges
// (contributed + received, rank 0's own broadcast counted once), equal on
// every backend; msgs counts the records sent in them; edges is |E'₁|, the
// size of rank 0's gathered table.
type fragStats struct {
	bytes int64
	msgs  int64
	edges int64
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
// per pair. Phase 4 sorts rank 0's gathered recs in place; only a reset
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

// The status byte that opens the phase-5 broadcast: the chosen records
// follow chosenOK; chosenFailed ends the solve on every rank, after rank 0
// recorded why in env.err.
const (
	chosenOK byte = iota
	chosenFailed
)

// mergeMST runs phases 3–5 on one rank and reports whether the solve goes
// on to phase 6, the same on every rank. It then leaves the chosen edges in
// every rank's pruned slice: rank 0's own, a decoded copy elsewhere.
func (env *solveEnv) mergeMST(r *rt.Rank, rec *recorder) bool {
	sc := env.pools[r.ID()]

	// Phase 3: global min-distance edges (Alg. 5's collective): one gather
	// of every rank's E_N table to rank 0.
	var table []crossRec
	var err error
	faultpoint.Hit("solve.phase3")
	rec.phase(r, PhaseGlobalMinEdge, func() PhaseStat {
		table, err = env.gatherTable(r, sc.localEN.recs, &rec.frag)
		return PhaseStat{}
	})

	// Phase 4: MST of the distance graph G'₁ (Alg. 3 line 17), sequential on
	// rank 0: "a sequential MST is sufficient".
	faultpoint.Hit("solve.phase4")
	rec.phase(r, PhaseMST, func() PhaseStat {
		if r.ID() == 0 && err == nil {
			rec.frag.edges = int64(len(table))
			err = env.buildMSF(table)
		}
		return PhaseStat{}
	})

	// Phase 5: global edge pruning (Alg. 5, EDGE_PRUNING_COLL): the MSF's
	// edges are the surviving cross-cell edges, broadcast behind rank 0's
	// status.
	ok := false
	faultpoint.Hit("solve.phase5")
	rec.phase(r, PhasePruning, func() PhaseStat {
		var blob []byte
		if r.ID() == 0 {
			env.err, blob = err, []byte{chosenFailed}
			if err == nil {
				blob = appendChosen(sc.pruned, &rec.frag)
			}
		}
		ok = env.shareChosen(r, blob, &rec.frag)
		return PhaseStat{}
	})
	return ok
}

// gatherTable is phase 3: every other rank sends rank 0 its E_N table in one
// exchange, and rank 0 folds them into its own — the same pickCross survivor
// per pair whatever order the blobs arrive in. Only rank 0 gets a table, and
// only rank 0 an error: a gathered blob that does not decode.
func (env *solveEnv) gatherTable(r *rt.Rank, localEN []crossRec, fs *fragStats) ([]crossRec, error) {
	var out []rt.Blob
	if r.ID() != 0 && len(localEN) > 0 {
		blob := make([]byte, 0, 16*len(localEN)) // ≈16 bytes a record: one allocation
		for _, rec := range localEN {
			blob = appendCrossEntry(blob, rec)
		}
		fs.bytes += int64(len(blob))
		fs.msgs += int64(len(localEN))
		out = append(out, rt.Blob{Src: r.ID(), Dest: 0, Blob: blob})
	}
	in := rt.Exchange(r, out)
	if r.ID() != 0 {
		return nil, nil
	}
	table := &env.pools[0].owned
	table.reset()
	for _, rec := range localEN {
		s, t := unpackSeedKey(rec.key)
		rec.a, rec.b = env.seedIndex(s), env.seedIndex(t)
		table.fold(rec)
	}
	for _, fb := range in {
		fs.bytes += int64(len(fb.Blob))
		if err := env.decodeCrossEntries(fb.Blob, table); err != nil {
			return nil, fmt.Errorf("core: cross-table gather from rank %d: %w", fb.Src, err)
		}
	}
	return table.recs, nil
}

// buildMSF is phase 4 on rank 0: Kruskal over the gathered table. It
// radix-sorts the table into (D, key) order, runs a prize query's moat plan,
// and makes one union-find pass over the sorted entries, skipping an entry
// with a skipped end. Dense seed indices are monotone in seed VID (dedup is
// sorted), so (D, key) is pickCross's and mst.Kruskal's (W, U, V) total
// order, under which the forest is unique: the sequential reference's. The
// chosen edges land in rank 0's pruned slice; an error names the terminals
// they leave apart.
func (env *solveEnv) buildMSF(table []crossRec) error {
	k, sc := len(env.dedup), env.pools[0]
	// Least significant field first. Dense indices order as the key's seeds
	// do, and a·k + b spans fewer bytes than the key's two VIDs; D is never
	// negative.
	kk := uint64(k)
	graph.SortByKey(table, &sc.crossScratch, func(e crossRec) uint64 { return uint64(e.a)*kk + uint64(e.b) })
	graph.SortByKey(table, &sc.crossScratch, func(e crossRec) uint64 { return uint64(e.D) })
	// kept counts the terminals the chosen edges must join: all of them, or
	// the prize plan's keep set.
	kept, keep := k, []bool(nil)
	if env.mode == ModePrize {
		keep, kept = env.planPrize(table)
	}
	want := kept - 1
	if env.mode == ModeForest {
		want = k - env.numGroups // candidates never join two groups
	}

	if cap(sc.labels) < k {
		sc.labels = make([]int32, k)
	}
	frag := sc.labels[:k]
	for i := range frag {
		frag[i] = int32(i)
	}
	find := func(x int32) int32 {
		for frag[x] != x {
			frag[x] = frag[frag[x]]
			x = frag[x]
		}
		return x
	}
	chosen := sc.pruned[:0]
	for _, e := range table {
		if len(chosen) == want {
			break // every part is joined: no later entry can join two
		}
		if keep != nil && !(keep[e.a] && keep[e.b]) {
			continue
		}
		if ru, rv := find(e.a), find(e.b); ru != rv {
			frag[rv] = ru
			chosen = append(chosen, e)
		}
	}
	sc.pruned = chosen
	if len(chosen) < want {
		return fragmentDisconnectedErr(env, kept, len(chosen), frag)
	}
	return nil
}

// planPrize runs the moat-growing plan on rank 0, which holds a prize
// query's whole table, records the skipped terminals, and returns the keep
// marks and how many terminals they keep.
func (env *solveEnv) planPrize(table []crossRec) ([]bool, int) {
	wedges := make([]mst.WEdge, 0, len(table))
	for _, e := range table {
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

// fragmentDisconnectedErr names what phase 4's chosen edge set (the unique
// MSF) fails to connect: the kept terminals of a prize query, all terminals
// of a tree query (kept counts them either way), or one group of a forest
// query, whose components' roots (frag[i] == i) each lie in their terminals'
// one group.
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

// appendCrossEntry appends one cross-table record, the unit of both the
// phase-3 gather and the phase-5 broadcast. Records carry no count prefix —
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
// distinct terminals in (s < t) order — anything else would join the wrong
// cells — the distance must not be negative, which would sort first, and the
// bridge endpoints must be vertices, because phase 6 hands them to Owns and
// Send.
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

// appendChosen encodes phase 5's broadcast on success: chosenOK, then the
// chosen records.
func appendChosen(chosen []crossRec, fs *fragStats) []byte {
	blob := make([]byte, 1, 1+16*len(chosen))
	blob[0] = chosenOK
	for _, rec := range chosen {
		blob = appendCrossEntry(blob, rec)
	}
	fs.msgs += int64(len(chosen))
	return blob
}

// shareChosen is phase 5: rank 0 broadcasts blob, and every other rank
// decodes it into its pruned slice; rank 0 keeps its own chosen slice. It
// reports whether the solve goes on. A rank that cannot read the blob
// cannot tell rank 0, which may be walking phase 6 already, so it panics:
// the path a rank panic takes poisons the communicator, which ends the
// solve on every rank (a worker reports it to the coordinator as a rank
// panic).
func (env *solveEnv) shareChosen(r *rt.Rank, blob []byte, fs *fragStats) bool {
	var out []rt.Blob
	if r.ID() == 0 {
		fs.bytes += int64(len(blob))
		out = append(out, rt.Blob{Src: 0, Dest: -1, Blob: blob})
	}
	in := rt.Exchange(r, out)
	if r.ID() == 0 {
		return blob[0] == chosenOK
	}
	blob = nil
	if len(in) == 1 {
		blob = in[0].Blob
	}
	fs.bytes += int64(len(blob))
	sc := env.pools[r.ID()]
	var ok bool
	var err error
	if sc.pruned, ok, err = env.readChosen(blob, sc.pruned[:0]); err != nil {
		panic(fmt.Errorf("core: rank %d refused the chosen-set broadcast: %w", r.ID(), err))
	}
	return ok
}

// readChosen decodes a phase-5 broadcast, appending its records to into,
// and reports whether the solve goes on. Besides each record's own checks,
// it refuses an unknown status and a failure that carries records.
func (env *solveEnv) readChosen(blob []byte, into []crossRec) ([]crossRec, bool, error) {
	if len(blob) == 0 || blob[0] > chosenFailed || blob[0] == chosenFailed && len(blob) > 1 {
		return into, false, fmt.Errorf("%w: %d-byte chosen-set blob", wire.ErrCorrupt, len(blob))
	}
	if blob[0] == chosenFailed {
		return into, false, nil
	}
	d := wire.NewDec(blob[1:])
	for d.Len() > 0 {
		rec, err := env.readCrossEntry(d)
		if err != nil {
			return into, false, err
		}
		into = append(into, rec)
	}
	return into, true, nil
}
