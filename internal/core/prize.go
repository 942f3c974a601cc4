package core

import (
	"cmp"
	"math"
	"slices"

	"dsteiner/internal/graph"
	"dsteiner/internal/mst"
)

// prizePlan decides which terminals a prize-mode query connects and which
// it pays to skip. It runs on rank 0 over the whole distance graph G'_1,
// which phase 3 gathers there (the same table phase 4's MSF then spans), so
// it answers identically on loopback and rankd: all arithmetic is integral and every tie-break is by a fixed
// enumeration order.
//
// The pass is an unrooted Goemans–Williamson-style primal-dual scheme (cf.
// Saikia & Karmakar, arXiv:1710.07040): every terminal starts as its own
// active moat with dual budget equal to its penalty; moats grow uniformly,
// merge when a distance-graph edge fires, and deactivate when their pooled
// budget is exhausted. Growth stops when at most one active moat remains
// (growMoats says exactly when an edge fires). The laminar family of every
// component the growth ever forms — singletons included, plus the full
// terminal set — is then scored exactly (restricted-MST cost + penalties
// of the excluded terminals) and the cheapest feasible subset wins, the
// earliest candidate on a tie. Singleton subsets are always feasible, so the
// plan always keeps at least one terminal.
//
// The selection scores the candidates from last to first, so the large
// late moats set a low bar early, and bounds each score by the best
// objective found so far: a candidate whose outside penalties alone exceed
// it is skipped, and its Kruskal pass stops once the cost so far, plus the
// current weight for every edge still missing, exceeds what is left. A
// candidate that only ties the best still replaces it, since it comes
// earlier. The keep set is the unbounded forward scan's
// (TestPrizePlanMatchesScan).
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

	inK := make([]bool, nT)
	uf := make([]int32, nT)
	bestSet, bestObj := []int32(nil), int64(math.MaxInt64)
	for c := len(candidates) - 1; c >= 0; c-- {
		cand := candidates[c]
		pen := totalPen
		for _, i := range cand {
			pen -= int64(penalty[i])
		}
		if pen > bestObj {
			continue
		}
		if cost, ok := boundedMSTCost(sorted, cand, bestObj-pen, inK, uf); ok {
			bestObj, bestSet = cost+pen, cand
		}
	}
	for _, i := range bestSet {
		keep[i] = true
	}
	return keep
}

// sortedWUV returns edges in (W, U, V) order, the enumeration order every
// tie in the plan falls back on: edges itself when already so (as phase 4's
// sorted shard is), else a sorted copy.
func sortedWUV(edges []mst.WEdge) []mst.WEdge {
	cmpWUV := func(a, b mst.WEdge) int {
		if c := cmp.Compare(a.W, b.W); c != 0 {
			return c
		}
		if c := cmp.Compare(a.U, b.U); c != 0 {
			return c
		}
		return cmp.Compare(a.V, b.V)
	}
	if slices.IsSortedFunc(edges, cmpWUV) {
		return edges
	}
	sorted := slices.Clone(edges)
	slices.SortFunc(sorted, cmpWUV)
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
	moats, edgeQ := make(eventQueue, 0, 2*nT), make(eventQueue, 0, 2*len(sorted))
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

// boundedMSTCost runs Kruskal over the (W, U, V)-sorted distance-graph
// edges restricted to the candidate subset and reports its spanning cost.
// ok is false when the subset is not connected in the distance graph, or
// when its cost must exceed budget (≥ 0): edges come in weight order, so
// each edge still missing costs at least the current one, and the pass
// stops before the cost could pass budget. inK and uf are caller-provided
// scratch sized to the full terminal count; inK must be all false and is
// left so.
func boundedMSTCost(sorted []mst.WEdge, cand []int32, budget int64, inK []bool, uf []int32) (int64, bool) {
	if len(cand) == 1 {
		return 0, true
	}
	for _, i := range cand {
		inK[i] = true
		uf[i] = i
	}
	defer func() {
		for _, i := range cand {
			inK[i] = false
		}
	}()
	find := func(x int32) int32 {
		for uf[x] != x {
			uf[x] = uf[uf[x]]
			x = uf[x]
		}
		return x
	}
	cost, missing := int64(0), int64(len(cand)-1)
	for _, e := range sorted {
		if !inK[e.U] || !inK[e.V] {
			continue
		}
		if e.W > 0 && missing > (budget-cost)/int64(e.W) {
			return 0, false // cost + missing·W > budget, without overflow
		}
		ru, rv := find(e.U), find(e.V)
		if ru == rv {
			continue
		}
		uf[ru] = rv
		cost += int64(e.W)
		if missing--; missing == 0 {
			return cost, true
		}
	}
	return 0, false
}
