package core

import (
	"fmt"
	"sort"

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
	key  int64
	crossEdge
}

// lessProposal orders proposals by (D, key) — the same total order as
// pickCross and mst.Kruskal's (W, U, V) sort: dense seed indices are
// monotone in seed VID (dedup is sorted), so key order equals (U, V) order.
// Under a strict total order the minimum spanning forest is unique, which
// is what makes the fragment merge's chosen edge set byte-identical to
// sequential Kruskal's.
func lessProposal(a, b fragProposal) bool {
	if a.D != b.D {
		return a.D < b.D
	}
	return a.key < b.key
}

// fragmentRoute is the fragment merge's phase 3: every cross-cell record is
// routed to the rank owning the pair's lower seed vertex — on a prize query,
// to rank 0 — leaving each rank with a disjoint shard of the global E_N
// table (same pickCross survivor per pair as a gather of the whole table —
// the fold is order-insensitive). Returns ok=false after recording env.err
// on rank 0 when a routed blob fails to decode; received blobs are
// personalized, so the failure is agreed with an allreduce and all ranks
// bail uniformly.
func (env *solveEnv) fragmentRoute(r *rt.Rank, localEN map[int64]crossEdge, fs *fragStats) (map[int64]crossEdge, bool) {
	owned := env.owneds[r.ID()]
	blobs := map[int][]byte{}
	for k, ce := range localEN {
		d := 0
		if env.mode != ModePrize {
			s, _ := unpackSeedKey(k)
			d = r.Owner(s)
		}
		if d != r.ID() {
			fs.msgs++
			blobs[d] = appendCrossEntry(blobs[d], k, ce)
		} else {
			foldCross(owned, k, ce)
		}
	}
	out := make([]rt.Blob, 0, len(blobs))
	for d, b := range blobs {
		fs.bytes += int64(len(b))
		out = append(out, rt.Blob{Src: r.ID(), Dest: d, Blob: b})
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
	return owned, true
}

// fragmentMST is the fragment merge's phase 4: Borůvka/GHS rounds over the
// rank-sharded table. Each round every rank scans its owned entries for the
// best outgoing edge per fragment under the (D, key) total order, the
// proposals are broadcast, and all ranks apply the per-fragment winners in
// the same sorted order against identical union-find state — so the label
// array never needs to travel. Intra-fragment entries, and on a prize query
// entries with a skipped end, are deleted as they are discovered, shrinking
// later scans. Accepted winners accumulate into pruned (the pooled phase-5
// map, identical on every rank).
func (env *solveEnv) fragmentMST(r *rt.Rank, owned, pruned map[int64]crossEdge, fs *fragStats) bool {
	res, dedup, seedIdx := env.res, env.dedup, env.seedIdx
	k := len(dedup)
	if total := r.AllreduceSumInt64(int64(len(owned))); r.ID() == 0 {
		res.DistGraphEdges = int(total)
	}
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

	frag := env.frags[r.ID()]
	if cap(frag) < k {
		frag = make([]int32, k)
	}
	frag = frag[:k]
	env.frags[r.ID()] = frag
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

	best := make(map[int32]fragProposal, 16)
	rounds, chosen := 0, 0
	for {
		clear(best)
		for key, ce := range owned {
			s, t := unpackSeedKey(key)
			su, st := seedIdx[s], seedIdx[t]
			fu, fv := frag[su], frag[st]
			if fu == fv || (keep != nil && !(keep[su] && keep[st])) {
				delete(owned, key) // dead for all later rounds
				continue
			}
			p := fragProposal{key: key, crossEdge: ce}
			for _, f := range [2]int32{fu, fv} {
				p.frag = f
				if cur, ok := best[f]; !ok || lessProposal(p, cur) {
					best[f] = p
				}
			}
		}
		props := make([]fragProposal, 0, len(best))
		for _, p := range best {
			props = append(props, p)
		}
		fs.msgs += int64(len(props))
		all, err := env.exchangeProposals(r, props, fs)
		if err != nil {
			// Proposal blobs are broadcast, so every rank sees the same
			// corrupt payload and fails here together.
			if r.ID() == 0 {
				env.err = fmt.Errorf("core: fragment merge round %d: %w", rounds+1, err)
			}
			return false
		}
		if len(all) == 0 {
			break
		}
		rounds++
		// Global minimum per fragment, then a deterministic application
		// order: every rank replays the identical union sequence.
		winner := map[int32]fragProposal{}
		for _, p := range all {
			if cur, ok := winner[p.frag]; !ok || lessProposal(p, cur) {
				winner[p.frag] = p
			}
		}
		ws := make([]fragProposal, 0, len(winner))
		for _, p := range winner {
			ws = append(ws, p)
		}
		sort.Slice(ws, func(i, j int) bool { return lessProposal(ws[i], ws[j]) })
		for _, p := range ws {
			s, t := unpackSeedKey(p.key)
			ru, rv := find(seedIdx[s]), find(seedIdx[t])
			if ru == rv {
				continue // both endpoint fragments picked this same edge
			}
			if rv < ru {
				ru, rv = rv, ru
			}
			frag[rv] = ru // min-root representative keeps labels canonical
			pruned[p.key] = p.crossEdge
			chosen++
		}
		for i := range frag {
			frag[i] = find(int32(i)) // pointer-jump full relabel
		}
	}

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
			env.err = fragmentDisconnectedErr(env, kept, chosen, pruned)
		}
		return false
	}
	return true
}

// planPrize runs the moat-growing plan on rank 0, which holds a prize
// query's whole routed table, records the skipped terminals, and returns the
// keep marks and how many terminals they keep.
func (env *solveEnv) planPrize(owned map[int64]crossEdge) ([]bool, int) {
	wedges := make([]mst.WEdge, 0, len(owned))
	for key, ce := range owned {
		s, t := unpackSeedKey(key)
		wedges = append(wedges, mst.WEdge{U: env.seedIdx[s], V: env.seedIdx[t], W: ce.D})
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
// query (kept counts them either way), or one group of a forest query.
func fragmentDisconnectedErr(env *solveEnv, kept, chosen int, pruned map[int64]crossEdge) error {
	switch env.mode {
	case ModePrize:
		return fmt.Errorf("core: internal error: prize kept set spans %d connected components", kept-chosen)
	case ModeForest:
		edges := make([]mst.WEdge, 0, len(pruned))
		for key := range pruned {
			s, t := unpackSeedKey(key)
			edges = append(edges, mst.WEdge{U: env.seedIdx[s], V: env.seedIdx[t]})
		}
		return forestDisconnectedErr(env.groupOf, env.numGroups, len(env.dedup), edges)
	}
	return fmt.Errorf("core: seeds span %d connected components; Steiner tree requires one", kept-chosen)
}

// exchangeProposals broadcasts every rank's round proposals to all ranks,
// one encoded blob per rank (Dest -1).
func (env *solveEnv) exchangeProposals(r *rt.Rank, props []fragProposal, fs *fragStats) ([]fragProposal, error) {
	var blob []byte
	for _, p := range props {
		blob = appendProposal(blob, p)
	}
	var out []rt.Blob
	if len(blob) > 0 {
		fs.bytes += int64(len(blob))
		out = append(out, rt.Blob{Src: r.ID(), Dest: -1, Blob: blob})
	}
	var all []fragProposal
	for _, fb := range rt.Exchange(r, out) {
		fs.bytes += int64(len(fb.Blob))
		var err error
		if all, err = env.decodeProposals(fb.Blob, all); err != nil {
			return nil, err
		}
	}
	return all, nil
}

// foldCross keeps the pickCross survivor for cell pair k in table.
func foldCross(table map[int64]crossEdge, k int64, ce crossEdge) {
	if cur, ok := table[k]; ok {
		ce = pickCross(cur, ce)
	}
	table[k] = ce
}

// appendCrossEntry appends one cross-table record, the unit of both the
// fragment routing and the round proposals. Records carry no count prefix —
// the enclosing blob delimits them.
func appendCrossEntry(dst []byte, k int64, ce crossEdge) []byte {
	dst = wire.AppendVarint(dst, k)
	dst = wire.AppendUvarint(dst, uint64(ce.D))
	dst = wire.AppendUvarint(dst, uint64(uint32(ce.U)))
	dst = wire.AppendUvarint(dst, uint64(uint32(ce.V)))
	return dst
}

// readCrossEntry decodes one cross-table record and rejects one that is
// well-formed but cannot belong to this query: the key's halves must be two
// distinct terminals in (s < t) order — anything else would read seedIdx's
// zero value and union terminal 0's fragment — and the bridge endpoints must
// be vertices, because phase 6 hands them to Owns and Send.
func (env *solveEnv) readCrossEntry(d *wire.Dec) (int64, crossEdge, error) {
	k := d.Varint()
	ce := crossEdge{
		D: graph.Dist(d.Uvarint()),
		U: graph.VID(int32(d.Uvarint())),
		V: graph.VID(int32(d.Uvarint())),
	}
	if err := d.Err(); err != nil {
		return 0, ce, err
	}
	s, t := unpackSeedKey(k)
	_, sok := env.seedIdx[s]
	_, tok := env.seedIdx[t]
	n := graph.VID(env.comm.Partition().NumVertices())
	if !sok || !tok || s >= t || ce.U < 0 || ce.U >= n || ce.V < 0 || ce.V >= n {
		return 0, ce, fmt.Errorf("%w: cross edge {%d, %d} for cell pair (%d, %d)", wire.ErrCorrupt, ce.U, ce.V, s, t)
	}
	return k, ce, nil
}

// decodeCrossEntries folds every record of a cross-table blob into table
// under the pickCross total order.
func (env *solveEnv) decodeCrossEntries(blob []byte, table map[int64]crossEdge) error {
	d := wire.NewDec(blob)
	for d.Len() > 0 {
		k, ce, err := env.readCrossEntry(d)
		if err != nil {
			return err
		}
		foldCross(table, k, ce)
	}
	return nil
}

// appendProposal appends one round proposal: the proposing fragment, then
// the cross-table record it proposes.
func appendProposal(dst []byte, p fragProposal) []byte {
	return appendCrossEntry(wire.AppendUvarint(dst, uint64(uint32(p.frag))), p.key, p.crossEdge)
}

// decodeProposals appends a round blob's proposals to into. Besides the
// record's own checks, the proposing fragment must be a terminal index: the
// winner table is keyed by it.
func (env *solveEnv) decodeProposals(blob []byte, into []fragProposal) ([]fragProposal, error) {
	d := wire.NewDec(blob)
	for d.Len() > 0 {
		frag := int32(d.Uvarint())
		k, ce, err := env.readCrossEntry(d)
		if err != nil {
			return into, err
		}
		if frag < 0 || int(frag) >= len(env.dedup) {
			return into, fmt.Errorf("%w: proposal from fragment %d of %d", wire.ErrCorrupt, frag, len(env.dedup))
		}
		into = append(into, fragProposal{frag: frag, key: k, crossEdge: ce})
	}
	return into, nil
}
