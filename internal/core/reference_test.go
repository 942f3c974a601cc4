package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"dsteiner/internal/exact"
	"dsteiner/internal/graph"
	"dsteiner/internal/mst"
	rt "dsteiner/internal/runtime"
	"dsteiner/internal/transport"
	"dsteiner/internal/voronoi"
)

// refAnswer is what the sequential reference says a query's answer is: the
// fields of a Result that are output, not measurement.
type refAnswer struct {
	seeds           []graph.VID
	tree            []graph.Edge
	total           graph.Dist
	skipped         []graph.VID
	distGraphEdges  int
	steinerVertices int
	// cells is the flood's fixed point, every vertex's (src, pred, dist).
	cells *voronoi.State
}

// referenceSolve is the oracle every distributed configuration is compared
// with: the paper's Alg. 2, run sequentially. Voronoi cells come from
// voronoi.Sequential; one pass over the arcs u < v keeps the (D, U, V)-least
// bridge per cell pair (spelled out here, not through pickCross, so that a
// change to the engine's order shows; checkFloodFixedPoint does the same for
// the flood's order, which Sequential shares with the slabs); forest queries
// drop pairs that join two groups; prize queries run prizePlanScan over the
// whole table, so every prize answer checks the engine's event-queue
// prizePlan against the scan; mst.Kruskal runs on dense seed indices; every
// chosen bridge is walked back to its two
// seeds along the predecessors. It uses no runtime, shard, slab or
// collective. ok is false when the terminals a mode has to connect are not
// connected in the distance graph.
func referenceSolve(t *testing.T, g *graph.Graph, spec QuerySpec) (ans refAnswer, ok bool) {
	t.Helper()
	cq, err := canonSpec(g.NumVertices(), spec, map[graph.VID]bool{})
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	dedup := cq.dedup
	ans.seeds = dedup
	if len(dedup) == 1 {
		return ans, true
	}
	idx := make(map[graph.VID]int32, len(dedup))
	for i, s := range dedup {
		idx[s] = int32(i)
	}
	st := voronoi.Sequential(g, dedup)
	checkFloodFixedPoint(t, g, st)
	ans.cells = st
	table, wedges := referenceDistanceGraph(g, cq, st)
	ans.distGraphEdges = len(table)

	want := len(dedup) - 1
	switch spec.Mode {
	case ModeForest:
		want = len(dedup) - len(cq.spec.Groups)
	case ModePrize:
		keep := prizePlanScan(len(dedup), wedges, cq.penalty)
		kept := wedges[:0:0]
		for _, we := range wedges {
			if keep[we.U] && keep[we.V] {
				kept = append(kept, we)
			}
		}
		wedges = kept
		for i, k := range keep {
			if !k {
				ans.skipped = append(ans.skipped, dedup[i])
				want--
			}
		}
	}
	forest := mst.Kruskal(len(dedup), wedges)
	if len(forest.Edges) < want {
		return ans, false
	}

	walked := map[graph.VID]bool{}
	for _, fe := range forest.Edges {
		b := table[seedPair{dedup[fe.U], dedup[fe.V]}]
		w, _ := g.HasEdge(b.u, b.v)
		ans.tree = append(ans.tree, graph.Edge{U: b.u, V: b.v, W: w}.Canon())
		for _, v := range [2]graph.VID{b.u, b.v} {
			for !walked[v] && st.Src(v) != v {
				walked[v] = true
				p := st.Pred(v)
				w, _ := g.HasEdge(p, v)
				ans.tree = append(ans.tree, graph.Edge{U: p, V: v, W: w}.Canon())
				v = p
			}
		}
	}
	sort.Slice(ans.tree, func(i, j int) bool {
		a, b := ans.tree[i], ans.tree[j]
		return a.U < b.U || (a.U == b.U && a.V < b.V)
	})
	ans.total = graph.TotalWeight(ans.tree)
	for v := range treeVertexSet(ans.tree) {
		if _, terminal := idx[v]; !terminal {
			ans.steinerVertices++
		}
	}
	return ans, true
}

// seedPair is a distance-graph edge's cell pair, s < t; bridge is the
// (D, U, V)-least background edge between the two cells.
type seedPair struct{ s, t graph.VID }

type bridge struct {
	d    graph.Dist
	u, v graph.VID
}

// referenceDistanceGraph folds the arcs u < v of g, labelled by the flood st,
// into the distance graph G'_1: the least bridge per cell pair (dropping
// pairs that join two forest groups), and the same table as WEdges over
// dense seed indices in (s, t) order, the order the engine hands phase 4.
func referenceDistanceGraph(g *graph.Graph, cq canonQuery, st *voronoi.State) (map[seedPair]bridge, []mst.WEdge) {
	idx := make(map[graph.VID]int32, len(cq.dedup))
	for i, s := range cq.dedup {
		idx[s] = int32(i)
	}
	table := map[seedPair]bridge{}
	for u := graph.VID(0); int(u) < g.NumVertices(); u++ {
		su := st.Src(u)
		if su == graph.NilVID {
			continue
		}
		vs, ws := g.Adj(u)
		for j, v := range vs {
			sv := st.Src(v)
			if v <= u || sv == graph.NilVID || sv == su {
				continue
			}
			if cq.groupOf != nil && cq.groupOf[idx[su]] != cq.groupOf[idx[sv]] {
				continue
			}
			b := bridge{d: st.Dist(u) + graph.Dist(ws[j]) + st.Dist(v), u: u, v: v}
			p := seedPair{min(su, sv), max(su, sv)}
			if cur, seen := table[p]; !seen || b.d < cur.d ||
				(b.d == cur.d && (b.u < cur.u || (b.u == cur.u && b.v < cur.v))) {
				table[p] = b
			}
		}
	}
	pairs := make([]seedPair, 0, len(table))
	for p := range table {
		pairs = append(pairs, p)
	}
	sort.Slice(pairs, func(i, j int) bool {
		return pairs[i].s < pairs[j].s || (pairs[i].s == pairs[j].s && pairs[i].t < pairs[j].t)
	})
	wedges := make([]mst.WEdge, len(pairs))
	for i, p := range pairs {
		wedges[i] = mst.WEdge{U: idx[p.s], V: idx[p.t], W: table[p].d}
	}
	return table, wedges
}

// checkFloodFixedPoint states the flood's (dist, seed, pred) tie-break
// without the code that implements it: a seed holds (0, itself, itself), and
// every other reached vertex the lexicographically least (dist(u) + w(u, v),
// src(u), u) over its neighbours u — the best of the final offers it was
// made.
func checkFloodFixedPoint(t *testing.T, g *graph.Graph, st *voronoi.State) {
	t.Helper()
	for v := graph.VID(0); int(v) < g.NumVertices(); v++ {
		src, pred, dist := st.Get(v)
		if src == v {
			if pred != v || dist != 0 {
				t.Fatalf("seed %d holds (%d, %d, %d)", v, dist, src, pred)
			}
			continue
		}
		bs, bp, bd := graph.NilVID, graph.NilVID, graph.InfDist
		us, ws := g.Adj(v)
		for j, u := range us {
			if s, d := st.Src(u), st.Dist(u)+graph.Dist(ws[j]); s != graph.NilVID &&
				(bs == graph.NilVID || d < bd || (d == bd && (s < bs || (s == bs && u < bp)))) {
				bs, bp, bd = s, u, d
			}
		}
		if src != bs || pred != bp || dist != bd {
			t.Fatalf("vertex %d holds (%d, %d, %d), its neighbours' least offer is (%d, %d, %d)",
				v, dist, src, pred, bd, bs, bp)
		}
	}
}

// assertMatchesReference compares the output of one engine solve with the
// reference byte for byte, and checks what a solve always reports about how
// it ran.
func assertMatchesReference(t *testing.T, res *Result, want refAnswer) {
	t.Helper()
	if !reflect.DeepEqual(res.Tree, want.tree) {
		t.Fatalf("trees differ\nengine    %v\nreference %v", res.Tree, want.tree)
	}
	if res.TotalDistance != want.total {
		t.Fatalf("total %d, reference %d", res.TotalDistance, want.total)
	}
	if !reflect.DeepEqual(res.Seeds, want.seeds) {
		t.Fatalf("seeds %v, reference %v", res.Seeds, want.seeds)
	}
	if !reflect.DeepEqual(res.Skipped, want.skipped) {
		t.Fatalf("skipped %v, reference %v", res.Skipped, want.skipped)
	}
	if res.DistGraphEdges != want.distGraphEdges {
		t.Fatalf("|E'1| %d, reference %d", res.DistGraphEdges, want.distGraphEdges)
	}
	if res.SteinerVertices != want.steinerVertices {
		t.Fatalf("steiner vertices %d, reference %d", res.SteinerVertices, want.steinerVertices)
	}
	if res.Memory.ShardBytes <= 0 {
		t.Fatal("solve reports no shard memory")
	}
	if (len(res.Seeds) > 1 && res.CrossTableBytes <= 0) || res.Net != (rt.TransportStats{}) {
		t.Fatalf("loopback %v query over %d terminals: %d cross-table bytes, transport traffic %+v",
			res.Mode, len(res.Seeds), res.CrossTableBytes, res.Net)
	}
}

// checkAnswerInvariants asserts what each mode promises about an answer,
// whatever the reference says: a valid Steiner tree over the terminals
// (tree), one per group and vertex-disjoint (forest), a valid tree over the
// kept terminals with objective = tree weight + paid penalties (prize).
func checkAnswerInvariants(t *testing.T, g *graph.Graph, spec QuerySpec, res *Result) {
	t.Helper()
	switch spec.Mode {
	case ModeForest:
		checkForestProperties(t, g, res)
	case ModePrize:
		paid := graph.Dist(0)
		var kept []graph.VID
		for i, s := range spec.Seeds {
			if slices.Contains(res.Skipped, s) {
				paid += spec.Penalties[i]
			} else {
				kept = append(kept, s)
			}
		}
		if err := graph.ValidateSteinerTree(g, kept, res.Tree); err != nil {
			t.Fatalf("prize tree over the kept terminals %v: %v", kept, err)
		}
		if res.PaidPenalty != paid || res.Objective != graph.TotalWeight(res.Tree)+paid {
			t.Fatalf("objective %d with %d paid, tree weighs %d and the skipped terminals cost %d",
				res.Objective, res.PaidPenalty, graph.TotalWeight(res.Tree), paid)
		}
	default:
		if err := graph.ValidateSteinerTree(g, spec.Seeds, res.Tree); err != nil {
			t.Fatal(err)
		}
	}
}

// checkWithinTwiceOptimum holds a tree query's weight against the exact
// optimum (internal/exact, so small terminal sets only). The answer is the
// reference's, which every configuration reproduces, so once per query.
func checkWithinTwiceOptimum(t *testing.T, g *graph.Graph, seeds []graph.VID, total graph.Dist) {
	t.Helper()
	opt, err := exact.Solve(g, seeds, 0)
	if err != nil {
		t.Fatal(err)
	}
	if total < opt.Total || total > 2*opt.Total {
		t.Fatalf("seeds %v: tree weighs %d, the optimum %d", seeds, total, opt.Total)
	}
}

// refInput is one graph of the table with a query per mode.
type refInput struct {
	name  string
	g     *graph.Graph
	specs [3]QuerySpec // indexed by Mode
	want  [3]refAnswer
}

func newRefInput(t *testing.T, name string, g *graph.Graph, rng *rand.Rand, groups [][]graph.VID, maxPenalty int) *refInput {
	n := g.NumVertices()
	prize := pickEngineSeeds(rng, n, 9)
	penalties := make([]graph.Dist, len(prize))
	for i := range penalties {
		penalties[i] = graph.Dist(rng.Intn(maxPenalty) + 1)
	}
	in := &refInput{name: name, g: g, specs: [3]QuerySpec{
		ModeTree:   TreeSpec(pickEngineSeeds(rng, n, 7)),
		ModeForest: {Mode: ModeForest, Groups: groups},
		ModePrize:  {Mode: ModePrize, Seeds: prize, Penalties: penalties},
	}}
	for m, spec := range in.specs {
		var ok bool
		if in.want[m], ok = referenceSolve(t, g, spec); !ok {
			t.Fatalf("%s: %v query is infeasible", name, spec.Mode)
		}
	}
	checkWithinTwiceOptimum(t, g, in.specs[ModeTree].Seeds, in.want[ModeTree].total)
	return in
}

// TestEngineMatchesSequentialReference is the one place a distributed answer
// is compared with a non-distributed one. Every cell of partition × batch
// size (the runtime's 64, one message per batch, an odd five) × async/BSP ×
// queue discipline × rank count × query mode solves
// the same queries on a clustered graph (three forest groups) and on a
// tie-heavy one (weights 1–3, where the (dist, seed, pred) flood order,
// the (D, U, V) bridge order and the (D, seed pair) fragment order each
// decide the answer), and must agree with referenceSolve byte for byte.
// After the table: tie-heavy graphs at other sizes and terminal counts, and
// a random sweep over graphs, options and modes.
func TestEngineMatchesSequentialReference(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	tieSeeds := pickEngineSeeds(rng, 150, 7)
	inputs := []*refInput{
		newRefInput(t, "clustered", clusteredTestGraph(29, 3, 40), rng, pickClusterGroups(rng, 40, []int{3, 4, 2}), 400),
		newRefInput(t, "ties", tieTestGraph(31, 150), rng, [][]graph.VID{tieSeeds[:6], tieSeeds[6:]}, 4),
	}
	for _, in := range inputs {
		if skipped := len(in.want[ModePrize].skipped); skipped == 0 || skipped >= 8 {
			t.Fatalf("vacuous: the %s prize query skips %d of 9 terminals (%v)", in.name, skipped, in.want[ModePrize].skipped)
		}
	}

	var suppressed int64
	for _, kind := range []PartitionKind{PartitionBlock, PartitionArcBlock} {
		for _, batch := range []int{0, 1, 5} {
			for _, bsp := range []bool{false, true} {
				for _, queue := range []rt.QueueKind{rt.QueueFIFO, rt.QueuePriority} {
					for _, ranks := range []int{1, 2, 3, 4, 5, 8} {
						opts := Options{Ranks: ranks, Queue: queue, Partition: kind, BatchSize: batch, BSP: bsp}
						timing := map[bool]string{false: "async", true: "bsp"}[bsp]
						t.Run(fmt.Sprintf("%v/batch=%d/%s/%v/ranks=%d", kind, batch, timing, queue, ranks), func(t *testing.T) {
							for _, in := range inputs {
								e, err := NewEngine(in.g, opts)
								if err != nil {
									t.Fatal(err)
								}
								defer e.Close()
								for m, spec := range in.specs {
									t.Run(fmt.Sprintf("%v/%s", spec.Mode, in.name), func(t *testing.T) {
										res, err := e.SolveSpec(spec)
										if err != nil {
											t.Fatal(err)
										}
										assertMatchesReference(t, res, in.want[m])
										checkAnswerInvariants(t, in.g, spec, res)
										// Not only the rows the tree walks through:
										// every vertex's label is the reference's.
										got, want := voronoi.Collect(e.slabs, in.g.NumVertices()), in.want[m].cells
										for v := graph.VID(0); int(v) < in.g.NumVertices(); v++ {
											gs, gp, gd := got.Get(v)
											if ws, wp, wd := want.Get(v); gs != ws || gp != wp || gd != wd {
												t.Fatalf("vertex %d: row (%d, %d, %d), reference (%d, %d, %d)", v, gd, gs, gp, wd, ws, wp)
											}
										}
										suppressed += res.Suppressed
									})
								}
							}
						})
					}
				}
			}
		}
	}
	if suppressed == 0 {
		t.Fatal("the solves suppressed nothing — the ghost-row filter is dead")
	}

	t.Run("ties", func(t *testing.T) {
		for _, ranks := range []int{1, 2, 3, 4, 8} {
			for trial := 0; trial < 4; trial++ {
				g := tieTestGraph(int64(100*ranks+trial), 80+7*trial)
				rng := rand.New(rand.NewSource(int64(trial)))
				e, err := NewEngine(g, Default(ranks))
				if err != nil {
					t.Fatal(err)
				}
				defer e.Close()
				for _, k := range []int{2, 5, 16} {
					t.Run(fmt.Sprintf("ranks=%d/trial=%d/k=%d", ranks, trial, k), func(t *testing.T) {
						spec := TreeSpec(pickEngineSeeds(rng, g.NumVertices(), k))
						want, _ := referenceSolve(t, g, spec)
						res, err := e.SolveSpec(spec)
						if err != nil {
							t.Fatal(err)
						}
						assertMatchesReference(t, res, want)
						checkAnswerInvariants(t, g, spec, res)
						if k <= 5 {
							checkWithinTwiceOptimum(t, g, spec.Seeds, want.total)
						}
						if res.MSTRounds < 1 {
							t.Fatalf("fragment merge reported %d rounds", res.MSTRounds)
						}
					})
				}
			}
		}
	})

	t.Run("random", func(t *testing.T) {
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			n := 60 + rng.Intn(200)
			g := engineTestGraph(seed, n)
			if rng.Intn(2) == 0 {
				g = tieTestGraph(seed, n)
			}
			seeds := pickEngineSeeds(rng, n, 2+rng.Intn(6))
			spec := TreeSpec(seeds)
			switch Mode(rng.Intn(3)) {
			case ModeForest:
				// Two groups may or may not be connectable once cross-group
				// bridges are dropped: engine and reference must agree on that too.
				cut := 1 + rng.Intn(len(seeds)-1)
				spec = QuerySpec{Mode: ModeForest, Groups: [][]graph.VID{seeds[:cut], seeds[cut:]}}
			case ModePrize:
				spec = QuerySpec{Mode: ModePrize, Seeds: seeds, Penalties: make([]graph.Dist, len(seeds))}
				for i := range spec.Penalties {
					spec.Penalties[i] = graph.Dist(rng.Intn(80))
				}
			}
			opts := Options{
				Ranks:     1 + rng.Intn(6),
				Queue:     []rt.QueueKind{rt.QueueFIFO, rt.QueuePriority}[rng.Intn(2)],
				Partition: []PartitionKind{PartitionBlock, PartitionArcBlock}[rng.Intn(2)],
				BSP:       rng.Intn(2) == 0,
			}
			want, feasible := referenceSolve(t, g, spec)
			res, err := SolveQuery(g, spec, opts)
			if err != nil {
				if feasible {
					t.Logf("seed %d %+v: %v", seed, opts, err)
				}
				return !feasible
			}
			return feasible && reflect.DeepEqual(res.Tree, want.tree) && res.TotalDistance == want.total &&
				reflect.DeepEqual(res.Seeds, want.seeds) && reflect.DeepEqual(res.Skipped, want.skipped) &&
				res.DistGraphEdges == want.distGraphEdges && res.SteinerVertices == want.steinerVertices
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
			t.Fatal(err)
		}
	})
}

// TestFloodUnderReorderingMatchesSequential is the cell the table above does
// not have: delivery order scrambled, in process and over TCP. Under the
// priority queue a row keeps one queue entry and a better label replaces
// it, so an offer that arrives late must neither lose a better label nor
// take a slot it has no label for (voronoi.run). Loopback engines shuffle
// every inbound batch, under every queue, async and BSP, and every row must
// be voronoi.Sequential's. TCP workers cannot shuffle — the option has no wire
// field — so the fleet's arrival order is perturbed by the chaos shim's
// seeded delays instead, and its answers must be the reference's.
func TestFloodUnderReorderingMatchesSequential(t *testing.T) {
	g := tieTestGraph(41, 150)
	rng := rand.New(rand.NewSource(42))
	specs := []QuerySpec{TreeSpec(pickEngineSeeds(rng, 150, 5)), TreeSpec(pickEngineSeeds(rng, 150, 16))}
	wants := make([]refAnswer, len(specs))
	for i, spec := range specs {
		wants[i], _ = referenceSolve(t, g, spec)
	}
	base := Options{Ranks: 4, Queue: rt.QueuePriority, Partition: PartitionBlock}
	for _, bsp := range []bool{false, true} {
		for _, queue := range []rt.QueueKind{rt.QueueFIFO, rt.QueuePriority} {
			for shuffle := int64(1); shuffle <= 3; shuffle++ {
				opts := base
				opts.Queue, opts.BSP, opts.ShuffleDelivery, opts.ShuffleSeed = queue, bsp, true, shuffle
				t.Run(fmt.Sprintf("bsp=%v/%v/shuffle=%d", bsp, queue, shuffle), func(t *testing.T) {
					e, err := NewEngine(g, opts)
					if err != nil {
						t.Fatal(err)
					}
					defer e.Close()
					for i, spec := range specs {
						res, err := e.SolveSpec(spec)
						if err != nil {
							t.Fatal(err)
						}
						label := fmt.Sprintf("k=%d", len(spec.Seeds))
						assertMatchesReference(t, res, wants[i])
						got := voronoi.Collect(e.slabs, g.NumVertices())
						for v := graph.VID(0); int(v) < g.NumVertices(); v++ {
							gs, gp, gd := got.Get(v)
							if ws, wp, wd := wants[i].cells.Get(v); gs != ws || gp != wp || gd != wd {
								t.Fatalf("%s: vertex %d: row (%d, %d, %d), reference (%d, %d, %d)", label, v, gd, gs, gp, wd, ws, wp)
							}
						}
					}
				})
			}
		}
	}

	t.Run("tcp", func(t *testing.T) {
		e, shutdown := startChaosFleet(t, g, base, 2, func(w int) WorkerConfig {
			return WorkerConfig{Chaos: &transport.ChaosConfig{Kind: transport.ChaosDelay, Seed: int64(w + 1)}}
		})
		for i, spec := range specs {
			res, err := e.SolveSpec(spec)
			if err != nil {
				t.Fatal(err)
			}
			if res.Net.FramesOut == 0 {
				t.Fatalf("k=%d: the fleet sent no frames", len(spec.Seeds))
			}
			res.Net = rt.TransportStats{} // the one field a TCP answer may differ in
			assertMatchesReference(t, res, wants[i])
		}
		shutdown(true)
	})
}
