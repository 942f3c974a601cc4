package core

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"dsteiner/internal/gen"
	"dsteiner/internal/graph"
	"dsteiner/internal/mst"
	"dsteiner/internal/voronoi"
)

// prizePlanScan is prizePlan as it was before the event queue and the
// bounded selection, kept as the oracle prizePlan must reproduce keep set
// for keep set; its code is moved here verbatim, split at the seam between
// the growth (scanMoats) and the selection, which scores every candidate in
// order with the unbounded restrictedMSTCost. referenceSolve runs it, so
// every prize answer of TestEngineMatchesSequentialReference compares the
// two.
func prizePlanScan(nT int, edges []mst.WEdge, penalty []graph.Dist) []bool {
	keep := make([]bool, nT)
	if nT == 0 {
		return keep
	}

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

	candidates := scanMoats(nT, sorted, penalty)

	// Selection: exact objective per candidate subset — restricted-MST
	// cost plus the penalties of everything outside it. Subsets the
	// distance graph cannot span are infeasible and skipped.
	totalPen := int64(0)
	for _, p := range penalty {
		totalPen += int64(p)
	}
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

// restrictedMSTCost is prizePlanScan's selection score: Kruskal over the
// weight-sorted distance-graph edges restricted to the candidate subset,
// with no bound. Reports the spanning cost, or ok=false when the subset is
// not connected in the distance graph. inK and uf are caller-provided
// scratch sized to the full terminal count.
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

// scanMoats is the growth of prizePlanScan, the reference for growMoats'
// candidate family: every event rescans all edges and all terminals.
// growMoats documents what the growth computes.
func scanMoats(nT int, sorted []mst.WEdge, penalty []graph.Dist) [][]int32 {
	// Moat state. All dual quantities are doubled (suffix 2); an edge's
	// candidate time slack2/speed is compared with a moat's budget2/2 as an
	// exact rational num/den with den in {1, 2}, and the winner advances
	// every active moat by twice its time.
	parent := make([]int32, nT)
	budget2 := make([]int64, nT) // remaining pooled budget of the root's moat
	active := make([]bool, nT)
	members := make([][]int32, nT)
	y2 := make([]int64, nT) // total dual accumulated around each terminal
	activeCount := 0
	for i := 0; i < nT; i++ {
		parent[i] = int32(i)
		budget2[i] = 2 * int64(penalty[i])
		active[i] = budget2[i] > 0
		if active[i] {
			activeCount++
		}
		members[i] = []int32{int32(i)}
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}

	candidates := make([][]int32, 0, 2*nT+1)
	for i := 0; i < nT; i++ {
		candidates = append(candidates, members[i])
	}

	for activeCount >= 2 {
		// Earliest event: an inter-moat edge going tight, or an active
		// moat exhausting its budget. First strictly-smaller time in
		// enumeration order wins, keeping the run deterministic.
		const none = -1
		bestNum, bestDen := int64(0), int64(0)
		bestEdge, bestComp := none, int32(none)
		better := func(num, den int64) bool {
			return bestDen == 0 || num*bestDen < bestNum*den
		}
		for ei, e := range sorted {
			ru, rv := find(e.U), find(e.V)
			if ru == rv {
				continue
			}
			speed := int64(0)
			if active[ru] {
				speed++
			}
			if active[rv] {
				speed++
			}
			if speed == 0 {
				continue
			}
			slack2 := 2*int64(e.W) - y2[e.U] - y2[e.V]
			if slack2 < 0 {
				slack2 = 0
			}
			if better(slack2, speed) {
				bestNum, bestDen, bestEdge, bestComp = slack2, speed, ei, none
			}
		}
		seen := make(map[int32]bool, activeCount)
		for i := int32(0); int(i) < nT; i++ {
			r := find(i)
			if !active[r] || seen[r] {
				continue
			}
			seen[r] = true
			if better(budget2[r], 2) {
				bestNum, bestDen, bestEdge, bestComp = budget2[r], 2, none, r
			}
		}
		if bestDen == 0 {
			break
		}

		// Advance every active moat to the event: dy2 = 2*num/den is
		// integral because den is 1 or 2.
		dy2 := 2 * bestNum / bestDen
		if dy2 > 0 {
			for v := int32(0); int(v) < nT; v++ {
				if active[find(v)] {
					y2[v] += dy2
				}
			}
			for r := range seen {
				budget2[r] -= dy2
			}
		}

		if bestEdge != none {
			e := sorted[bestEdge]
			ru, rv := find(e.U), find(e.V)
			wasActive := 0
			if active[ru] {
				wasActive++
			}
			if active[rv] {
				wasActive++
			}
			parent[rv] = ru
			budget2[ru] += budget2[rv]
			merged := make([]int32, 0, len(members[ru])+len(members[rv]))
			merged = append(append(merged, members[ru]...), members[rv]...)
			sort.Slice(merged, func(i, j int) bool { return merged[i] < merged[j] })
			members[ru] = merged
			active[ru] = budget2[ru] > 0
			activeCount -= wasActive
			if active[ru] {
				activeCount++
			}
			candidates = append(candidates, merged)
		} else {
			active[bestComp] = false
			budget2[bestComp] = 0
			activeCount--
		}
	}

	full := make([]int32, nT)
	for i := range full {
		full[i] = int32(i)
	}
	candidates = append(candidates, full)
	return candidates
}

// checkPlanMatchesScan fails unless prizePlan and prizePlanScan keep the
// same terminals, and growMoats proposes scanMoats' candidates in scanMoats'
// order. The keep sets alone are a weak check: the selection scores every
// candidate exactly, so a growth that proposes other subsets usually still
// picks the same one.
func checkPlanMatchesScan(t testing.TB, name string, nT int, edges []mst.WEdge, penalty []graph.Dist) {
	t.Helper()
	if got, want := prizePlan(nT, edges, penalty), prizePlanScan(nT, edges, penalty); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: event queue keeps %v, scan keeps %v\nedges %v\npenalties %v", name, got, want, edges, penalty)
	}
	if nT == 0 {
		return
	}
	total := int64(0)
	for _, p := range penalty {
		total += int64(p)
	}
	sorted := sortedWUV(edges)
	got, want := growMoats(nT, sorted, penalty, total), scanMoats(nT, sorted, penalty)
	for i, c := range got {
		got[i] = slices.Sorted(slices.Values(c)) // growMoats' members are unordered
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: event queue proposes %v, scan %v\nedges %v\npenalties %v", name, got, want, edges, penalty)
	}
}

// completeEdges is every pair u < v of nT terminals at weight w(u, v).
func completeEdges(nT int, w func(u, v int) graph.Dist) []mst.WEdge {
	var out []mst.WEdge
	for u := 0; u < nT; u++ {
		for v := u + 1; v < nT; v++ {
			out = append(out, mst.WEdge{U: int32(u), V: int32(v), W: w(u, v)})
		}
	}
	return out
}

// TestPrizePlanMatchesScan compares the event-queue growth with the scan on
// the edge cases of the plan, then on random tie-heavy distance graphs and
// on grid distance graphs from the real flood.
func TestPrizePlanMatchesScan(t *testing.T) {
	const big = graph.Dist(1) << 40
	path := []mst.WEdge{{U: 0, V: 1, W: 4}, {U: 1, V: 2, W: 4}, {U: 2, V: 3, W: 9}, {U: 0, V: 3, W: 20}}
	for _, tc := range []struct {
		name    string
		nT      int
		edges   []mst.WEdge
		penalty []graph.Dist
	}{
		{"one terminal", 1, nil, []graph.Dist{7}},
		{"no edges", 4, nil, []graph.Dist{3, 0, 7, 2}},
		{"all-zero penalties", 4, path, []graph.Dist{0, 0, 0, 0}},
		{"disconnected", 6, []mst.WEdge{{U: 0, V: 1, W: 3}, {U: 1, V: 2, W: 5}, {U: 3, V: 4, W: 2}, {U: 4, V: 5, W: 3}},
			[]graph.Dist{10, 1, 10, 10, 2, 10}},
		{"equal weights", 7, completeEdges(7, func(int, int) graph.Dist { return 5 }),
			[]graph.Dist{3, 3, 5, 0, 3, 8, 3}},
		{"penalties 0 and 2^40", 6, completeEdges(6, func(u, v int) graph.Dist { return graph.Dist(1 + (u*v)%4) }),
			[]graph.Dist{0, big, 0, big, big, 0}},
		{"one huge penalty", 4, path, []graph.Dist{1, 1, big, 1}},
		{"penalties summing to MaxPenaltySum", 4, path,
			[]graph.Dist{MaxPenaltySum / 2, 0, MaxPenaltySum / 4, MaxPenaltySum / 4}},
	} {
		checkPlanMatchesScan(t, tc.name, tc.nT, tc.edges, tc.penalty)
	}

	rng := rand.New(rand.NewSource(25))
	for trial := 0; trial < 3000; trial++ {
		nT := 1 + rng.Intn(24)
		var edges []mst.WEdge
		density := rng.Float64()
		for u := 0; u < nT; u++ {
			for v := u + 1; v < nT; v++ {
				if rng.Float64() < density {
					edges = append(edges, mst.WEdge{U: int32(u), V: int32(v), W: graph.Dist(1 + rng.Intn(4))})
				}
			}
		}
		penalty := make([]graph.Dist, nT)
		for i := range penalty {
			switch rng.Intn(6) {
			case 0:
			case 1:
				penalty[i] = big
			default:
				penalty[i] = graph.Dist(rng.Intn(12))
			}
		}
		checkPlanMatchesScan(t, fmt.Sprintf("random trial %d", trial), nT, edges, penalty)
	}

	for _, k := range []int{8, 64, 200} {
		nT, edges := gridDistanceGraph(t, 24, 32, k, int64(k))
		for _, maxPen := range []int64{4, 60, 400, 1 << 40} {
			penalty := make([]graph.Dist, nT)
			for i := range penalty {
				penalty[i] = graph.Dist(rng.Int63n(maxPen))
			}
			checkPlanMatchesScan(t, fmt.Sprintf("grid k=%d penalties<%d", k, maxPen), nT, edges, penalty)
		}
	}
}

// TestPrizePlanTieKeepsEarliest pins the selection's tie rule under its
// last-to-first scan: of the candidates that tie on objective, the earliest
// in growMoats' order wins, as it does in prizePlanScan's forward scan.
func TestPrizePlanTieKeepsEarliest(t *testing.T) {
	for _, tc := range []struct {
		name    string
		nT      int
		edges   []mst.WEdge
		penalty []graph.Dist
		keep    []bool
	}{
		// {0}, {1}, {0, 1} and the full set all cost 10: {0} comes first.
		{"every candidate ties", 2, []mst.WEdge{{U: 0, V: 1, W: 10}}, []graph.Dist{10, 10}, []bool{true, false}},
		// {2} costs the penalties of 0 and 1, 10; the merged moat {0, 1}
		// costs its edge plus 2's penalty, also 10, but comes later.
		{"a singleton ties a later moat", 3, []mst.WEdge{{U: 0, V: 1, W: 2}, {U: 1, V: 2, W: 100}},
			[]graph.Dist{5, 5, 8}, []bool{false, false, true}},
	} {
		checkPlanMatchesScan(t, tc.name, tc.nT, tc.edges, tc.penalty)
		if got := prizePlan(tc.nT, tc.edges, tc.penalty); !reflect.DeepEqual(got, tc.keep) {
			t.Errorf("%s: keeps %v, want %v", tc.name, got, tc.keep)
		}
	}
}

// gridDistanceGraph floods k random terminals of a rows×cols grid (weights
// 1–100, the grid-manyterm-modes shape) and returns the distance graph
// prizePlan sees.
func gridDistanceGraph(tb testing.TB, rows, cols, k int, seed int64) (int, []mst.WEdge) {
	tb.Helper()
	g := gen.Config{Name: "grid", Kind: gen.KindGrid2D, N: rows * cols, Rows: rows, Cols: cols,
		MaxWeight: 100, Seed: seed}.MustBuild()
	seeds := pickEngineSeeds(rand.New(rand.NewSource(seed)), g.NumVertices(), k)
	cq, err := canonSpec(g.NumVertices(), TreeSpec(seeds))
	if err != nil {
		tb.Fatal(err)
	}
	_, edges := referenceDistanceGraph(g, cq, voronoi.Sequential(g, cq.dedup))
	return len(cq.dedup), edges
}

// FuzzPrizePlan turns bytes into a small tie-heavy distance graph — up to 64
// terminals, weights 0–7, penalties 0–31 or 2^40 — and requires the event
// queue to keep exactly what the scan keeps.
func FuzzPrizePlan(f *testing.F) {
	f.Add([]byte{4, 9, 9, 9, 9, 0, 1, 3, 1, 2, 3, 2, 3, 3})
	f.Add([]byte{6, 0, 255, 3, 255, 0, 5, 0, 1, 1, 0, 2, 1, 1, 4, 2, 3, 5, 1})
	f.Add(binary.LittleEndian.AppendUint64([]byte{63}, 0x0102030405060708))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		nT := 1 + int(data[0])%64
		data = data[1:]
		penalty := make([]graph.Dist, nT)
		for i := range penalty {
			if i >= len(data) {
				break
			}
			if data[i] == 255 {
				penalty[i] = 1 << 40
			} else {
				penalty[i] = graph.Dist(data[i] % 32)
			}
		}
		data = data[min(nT, len(data)):]
		seen := map[[2]int32]bool{}
		var edges []mst.WEdge
		for ; len(data) >= 3; data = data[3:] {
			u, v := int32(int(data[0])%nT), int32(int(data[1])%nT)
			if u > v {
				u, v = v, u
			}
			if u == v || seen[[2]int32{u, v}] {
				continue
			}
			seen[[2]int32{u, v}] = true
			edges = append(edges, mst.WEdge{U: u, V: v, W: graph.Dist(data[2] % 8)})
		}
		checkPlanMatchesScan(t, "fuzz", nT, edges, penalty)
	})
}

// BenchmarkPrizePlan times the plan alone on the distance graph of a
// grid-manyterm-modes prize query: 1,024 terminals on the 128×256 grid,
// penalties below 400. The graph, flood and table are built outside the
// timer. prizePlan is the event-queue growth and the bounded last-to-first
// selection; prizePlanScan, for comparison, is the oracle: the
// pre-event-queue growth and one unbounded Kruskal pass per candidate.
// The table comes unsorted, so both runs include its (W, U, V) sort, which
// a solve's already sorted shard skips.
func BenchmarkPrizePlan(b *testing.B) {
	nT, edges := gridDistanceGraph(b, 128, 256, 1024, 1)
	rng := rand.New(rand.NewSource(2))
	penalty := make([]graph.Dist, nT)
	for i := range penalty {
		penalty[i] = graph.Dist(rng.Int63n(400))
	}
	for _, bc := range []struct {
		name string
		plan func(int, []mst.WEdge, []graph.Dist) []bool
	}{{"prizePlan", prizePlan}, {"prizePlanScan", prizePlanScan}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				planSink = bc.plan(nT, edges, penalty)
			}
		})
	}
}

// planSink keeps BenchmarkPrizePlan's calls from being optimized away.
var planSink []bool
