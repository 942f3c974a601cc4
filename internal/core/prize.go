package core

import (
	"sort"

	"dsteiner/internal/graph"
	"dsteiner/internal/mst"
)

// prizePlan decides which terminals a prize-mode query connects and which
// it pays to skip. It runs on rank 0 over the whole distance graph G'_1,
// which phase 3 routes there on a prize query (the same table phase 4's
// fragment merge then spans), so it answers identically on loopback and
// rankd: all arithmetic is integral and every tie-break is by a fixed
// enumeration order.
//
// The pass is an unrooted Goemans–Williamson-style primal-dual scheme (cf.
// Saikia & Karmakar, arXiv:1710.07040): every terminal starts as its own
// active moat with dual budget equal to its penalty; moats grow uniformly,
// merge when a distance-graph edge fires, and deactivate when their pooled
// budget is exhausted. Growth stops when at most one active moat remains
// (growMoats says exactly when an edge fires). The laminar family of every
// component the growth ever forms — singletons included, plus the full
// terminal set — is then evaluated exactly (restricted-MST cost + penalties
// of the excluded terminals) and the cheapest feasible subset wins.
// Singleton subsets are always feasible, so the plan always keeps at least
// one terminal.
//
// edges carries dense terminal indices (0..nT-1); penalty is parallel to
// the dense ordering and sums to at most MaxPenaltySum. The returned slice
// marks kept terminals.
func prizePlan(nT int, edges []mst.WEdge, penalty []graph.Dist) []bool {
	keep := make([]bool, nT)
	if nT == 0 {
		return keep
	}
	sorted := sortedWUV(edges)
	totalPen := int64(0)
	for _, p := range penalty {
		totalPen += int64(p)
	}
	candidates := growMoats(nT, sorted, penalty, totalPen)

	// Selection: exact objective per candidate subset — restricted-MST
	// cost plus the penalties of everything outside it. Subsets the
	// distance graph cannot span are infeasible and skipped.
	inK := make([]bool, nT)
	uf := make([]int32, nT)
	var bestSet []int32
	bestObj := int64(0)
	for _, cand := range candidates {
		cost, ok := restrictedMSTCost(sorted, cand, inK, uf)
		if !ok {
			continue
		}
		pen := totalPen
		for _, i := range cand {
			pen -= int64(penalty[i])
		}
		obj := cost + pen
		if bestSet == nil || obj < bestObj {
			bestObj, bestSet = obj, cand
		}
	}
	for _, i := range bestSet {
		keep[i] = true
	}
	return keep
}

// sortedWUV returns a copy of edges in (W, U, V) order, the enumeration
// order every tie in the plan falls back on.
func sortedWUV(edges []mst.WEdge) []mst.WEdge {
	sorted := make([]mst.WEdge, len(edges))
	copy(sorted, edges)
	sort.Slice(sorted, func(i, j int) bool {
		a, b := sorted[i], sorted[j]
		if a.W != b.W {
			return a.W < b.W
		}
		if a.U != b.U {
			return a.U < b.U
		}
		return a.V < b.V
	})
	return sorted
}

// growMoats runs the moat growth over the (W, U, V)-sorted distance graph
// and returns the candidate family in order: every singleton, every moat a
// merge forms, then the full terminal set. Candidates may share backing
// arrays; they are read-only.
//
// What it computes. Duals are doubled: a moat's budget is 2·penalty, and
// y2(v) is the doubled dual grown around terminal v, so an inter-moat edge
// has slack2 = 2W − y2(U) − y2(V) and closes at speed 1 or 2 (its active
// ends). Each event takes the smallest key — an edge's 2·max(0,
// slack2)/speed, an active moat's remaining budget — and advances every
// active moat by it. An edge beats a moat on equal keys; among edges the
// lower (W, U, V) index wins, among moats the smaller smallest member. A
// moat thus spends exactly its penalty, as in the textbook scheme, but an
// edge fires after *twice* its remaining time to tightness. For an edge
// keyed at zero duals that is textbook Goemans–Williamson with the edge's
// weight doubled (two terminals, W = 10, penalty 100: each moat spends 10
// before the merge, not 5). An edge whose key wins at clock T fires at
// clock 2·T* − T, where T* is when the growth at current speeds would make
// it tight: between T* and 2·T*, not at the tight time of a fixed doubled
// weight. Edges the overshoot pushes past tight have key 0 and fire before
// any positive key, in index order. The selection in prizePlan scores
// every candidate exactly, so this shapes which subsets are proposed, not
// how they are scored.
//
// How. Duals only grow, so a key falls at a fixed rate until a moat of the
// edge changes activity: every key is a due value on one clock (an edge's
// at 2·clock + key, a moat's at clock + budget), recomputed only for the
// edges of a moat that deactivates or merges with a change of activity.
// Entries die lazily by version stamp or when their edge lies inside one
// moat. Moats keep flat labels (the smaller relabelled into the larger) and
// y2(v) = off[v] + growth(label[v]), so no event touches all k terminals.
func growMoats(nT int, sorted []mst.WEdge, penalty []graph.Dist, totalPen int64) [][]int32 {
	ids := make([]int32, nT) // also the full set, the last candidate
	label := make([]int32, nT)
	members := make([][]int32, nT)
	minMember := make([]int32, nT)
	off := make([]int64, nT)
	active := make([]bool, nT)
	grown := make([]int64, nT) // growth(r) when r's activity last changed
	since := make([]int64, nT) // the clock at that change
	due := make([]int64, nT)   // the clock at which an active r's budget runs out
	moatVer := make([]int32, nT)
	candidates := make([][]int32, nT, 2*nT+1)
	var clock int64
	var moats, edgeQ eventQueue
	activeCount := 0

	growth := func(r int32) int64 {
		if active[r] {
			return grown[r] + clock - since[r]
		}
		return grown[r]
	}
	setActive := func(r int32, on bool, b int64) {
		grown[r], since[r], active[r] = growth(r), clock, on
		moatVer[r]++
		if on {
			due[r] = clock + b
			moats.push(planEvent{key: due[r], tie: minMember[r], id: r, ver: moatVer[r]})
		}
	}
	for i := range ids {
		r := int32(i)
		ids[i], label[i], minMember[i] = r, r, r
		members[i] = ids[i : i+1 : i+1]
		candidates[i] = members[i]
		if penalty[i] > 0 {
			setActive(r, true, 2*int64(penalty[i]))
			activeCount++
		}
	}

	// Incident edges per terminal, CSR: terminal v's are adj[start[v]:start[v+1]].
	start := make([]int32, nT+1)
	for _, e := range sorted {
		start[e.U]++
		start[e.V]++
	}
	for v := 1; v <= nT; v++ {
		start[v] += start[v-1]
	}
	adj := make([]int32, 2*len(sorted))
	for ei := len(sorted) - 1; ei >= 0; ei-- {
		e := sorted[ei]
		start[e.U]--
		adj[start[e.U]] = int32(ei)
		start[e.V]--
		adj[start[e.V]] = int32(ei)
	}
	edgeVer := make([]int32, len(sorted))
	// No key above 2·totalPen can win an event (MaxPenaltySum), so keys
	// saturate there and due values stay far from overflow.
	keyCap := 2*totalPen + 1
	rekey := func(ei int32) {
		edgeVer[ei]++
		e := sorted[ei]
		ru, rv := label[e.U], label[e.V]
		speed := int64(0)
		if active[ru] {
			speed++
		}
		if active[rv] {
			speed++
		}
		if ru == rv || speed == 0 {
			return
		}
		slack2 := max(0, 2*int64(e.W)-off[e.U]-growth(ru)-off[e.V]-growth(rv))
		edgeQ.push(planEvent{key: 2*clock + min(2*slack2/speed, keyCap), tie: ei, id: ei, ver: edgeVer[ei]})
	}
	rekeyMoat := func(vs []int32) {
		for _, v := range vs {
			for _, ei := range adj[start[v]:start[v+1]] {
				rekey(ei)
			}
		}
	}
	for ei := range sorted {
		rekey(int32(ei))
	}
	liveEdge := func(x planEvent) bool {
		e := sorted[x.id]
		return x.ver == edgeVer[x.id] && label[e.U] != label[e.V]
	}
	liveMoat := func(x planEvent) bool { return x.ver == moatVer[x.id] }

	for activeCount >= 2 {
		// Edges past tight have key 0 and tie on index alone: lift them to
		// due 2·clock. A live key-0 edge always wins, so the clock cannot
		// move on while one is queued.
		for len(edgeQ) > 0 && edgeQ[0].key < 2*clock {
			x := edgeQ[0]
			edgeQ.pop()
			if liveEdge(x) {
				x.key = 2 * clock
				edgeQ.push(x)
			}
		}
		x, edgeOK := edgeQ.top(liveEdge)
		// Every active moat has one live entry, so there is a moat event.
		m, _ := moats.top(liveMoat)
		if !edgeOK || x.key-2*clock > m.key-clock {
			clock = m.key
			setActive(m.id, false, 0)
			activeCount--
			rekeyMoat(members[m.id])
			continue
		}

		clock += x.key - 2*clock
		e := sorted[x.id]
		big, small := label[e.U], label[e.V]
		if len(members[big]) < len(members[small]) {
			big, small = small, big
		}
		gBig, gSmall := growth(big), growth(small)
		b := int64(0) // the pooled budget
		for _, r := range []int32{big, small} {
			if active[r] {
				b += due[r] - clock
				activeCount--
			}
		}
		on := b > 0
		flipBig, flipSmall := active[big] != on, active[small] != on
		if on {
			activeCount++
		}
		for _, v := range members[small] {
			label[v] = big
			off[v] += gSmall - gBig
		}
		n := len(members[big])
		members[big] = append(members[big], members[small]...)
		members[small] = nil
		minMember[big] = min(minMember[big], minMember[small])
		moatVer[small]++
		setActive(big, on, b)
		candidates = append(candidates, members[big])
		if flipBig {
			rekeyMoat(members[big][:n])
		}
		if flipSmall {
			rekeyMoat(members[big][n:])
		}
	}
	return append(candidates, ids)
}

// planEvent is an entry of growMoats' queues: an edge (id and tie are its
// sorted index) or a moat (id its root, tie its smallest member), due at
// key and live while ver matches its owner's stamp.
type planEvent struct {
	key          int64
	tie, id, ver int32
}

func (x planEvent) before(y planEvent) bool {
	return x.key < y.key || (x.key == y.key && x.tie < y.tie)
}

// eventQueue is a binary min-heap of planEvents in (key, tie) order.
type eventQueue []planEvent

func (q *eventQueue) push(x planEvent) {
	h := append(*q, x)
	i := len(h) - 1
	for ; i > 0 && x.before(h[(i-1)/2]); i = (i - 1) / 2 {
		h[i] = h[(i-1)/2]
	}
	h[i] = x
	*q = h
}

// pop removes the minimum.
func (q *eventQueue) pop() {
	h, n := *q, len(*q)-1
	x, i := h[n], 0
	for c := 1; c < n; c = 2*i + 1 {
		if c+1 < n && h[c+1].before(h[c]) {
			c++
		}
		if !h[c].before(x) {
			break
		}
		h[i], i = h[c], c
	}
	h[i] = x
	*q = h[:n]
}

// top discards dead entries and returns the live minimum, if any.
func (q *eventQueue) top(live func(planEvent) bool) (planEvent, bool) {
	for len(*q) > 0 {
		if x := (*q)[0]; live(x) {
			return x, true
		}
		q.pop()
	}
	return planEvent{}, false
}

// restrictedMSTCost runs Kruskal over the weight-sorted distance-graph
// edges restricted to the candidate subset. Reports the spanning cost, or
// ok=false when the subset is not connected in the distance graph. inK and
// uf are caller-provided scratch sized to the full terminal count.
func restrictedMSTCost(sorted []mst.WEdge, cand []int32, inK []bool, uf []int32) (int64, bool) {
	if len(cand) == 1 {
		return 0, true
	}
	for i := range inK {
		inK[i] = false
	}
	for _, i := range cand {
		inK[i] = true
		uf[i] = i
	}
	find := func(x int32) int32 {
		for uf[x] != x {
			uf[x] = uf[uf[x]]
			x = uf[x]
		}
		return x
	}
	cost, joined := int64(0), 0
	for _, e := range sorted {
		if !inK[e.U] || !inK[e.V] {
			continue
		}
		ru, rv := find(e.U), find(e.V)
		if ru == rv {
			continue
		}
		uf[ru] = rv
		cost += int64(e.W)
		joined++
		if joined == len(cand)-1 {
			return cost, true
		}
	}
	return 0, false
}
