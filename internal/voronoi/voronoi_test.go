package voronoi

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dsteiner/internal/gen"
	"dsteiner/internal/graph"
	"dsteiner/internal/partition"
	rt "dsteiner/internal/runtime"
	"dsteiner/internal/sssp"
)

func randomConnected(seed int64, n int, maxW uint32) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	for v := 1; v < n; v++ {
		b.AddEdge(graph.VID(rng.Intn(v)), graph.VID(v), uint32(rng.Intn(int(maxW)))+1)
	}
	for i := 0; i < 2*n; i++ {
		b.AddEdge(graph.VID(rng.Intn(n)), graph.VID(rng.Intn(n)), uint32(rng.Intn(int(maxW)))+1)
	}
	g, _ := b.Build()
	return g
}

func pickSeeds(rng *rand.Rand, n, k int) []graph.VID {
	seen := map[graph.VID]bool{}
	seeds := make([]graph.VID, 0, k)
	for len(seeds) < k {
		s := graph.VID(rng.Intn(n))
		if !seen[s] {
			seen[s] = true
			seeds = append(seeds, s)
		}
	}
	return seeds
}

func newComm(t testing.TB, n, ranks int, q rt.QueueKind) *rt.Comm {
	t.Helper()
	part, err := partition.NewBlock(n, ranks)
	if err != nil {
		t.Fatal(err)
	}
	return rt.MustNew(rt.Config{Ranks: ranks, Queue: q}, part)
}

func TestSequentialMatchesSSSPOracle(t *testing.T) {
	g := randomConnected(3, 300, 40)
	seeds := []graph.VID{7, 100, 250}
	st := Sequential(g, seeds)
	oracle := sssp.MultiSource(g, seeds)
	for v := 0; v < g.NumVertices(); v++ {
		if st.Dist(graph.VID(v)) != oracle.Dist[v] {
			t.Fatalf("Dist[%d] = %d, oracle %d", v, st.Dist(graph.VID(v)), oracle.Dist[v])
		}
		if st.Src(graph.VID(v)) != oracle.Src[v] {
			t.Fatalf("Src[%d] = %d, oracle %d", v, st.Src(graph.VID(v)), oracle.Src[v])
		}
	}
}

func TestDistributedMatchesSequential(t *testing.T) {
	g := randomConnected(5, 400, 30)
	rng := rand.New(rand.NewSource(6))
	seeds := pickSeeds(rng, g.NumVertices(), 8)
	want := Sequential(g, seeds)
	for _, ranks := range []int{1, 2, 4, 8} {
		for _, q := range []rt.QueueKind{rt.QueueFIFO, rt.QueuePriority} {
			c := newComm(t, g.NumVertices(), ranks, q)
			got := Compute(c, g, seeds)
			for v := 0; v < g.NumVertices(); v++ {
				if got.Dist(graph.VID(v)) != want.Dist(graph.VID(v)) || got.Src(graph.VID(v)) != want.Src(graph.VID(v)) || got.Pred(graph.VID(v)) != want.Pred(graph.VID(v)) {
					t.Fatalf("ranks=%d q=%v vertex %d: got (%d,%d,%d), want (%d,%d,%d)",
						ranks, q, v,
						got.Dist(graph.VID(v)), got.Src(graph.VID(v)), got.Pred(graph.VID(v)),
						want.Dist(graph.VID(v)), want.Src(graph.VID(v)), want.Pred(graph.VID(v)))
				}
			}
		}
	}
}

func TestSeedStateAfterConvergence(t *testing.T) {
	g := randomConnected(9, 100, 10)
	seeds := []graph.VID{3, 42}
	c := newComm(t, 100, 2, rt.QueuePriority)
	st := Compute(c, g, seeds)
	for _, s := range seeds {
		if st.Dist(s) != 0 || st.Src(s) != s || st.Pred(s) != s {
			t.Fatalf("seed %d state (%d,%d,%d)", s, st.Dist(s), st.Src(s), st.Pred(s))
		}
	}
}

func TestCellsPartitionTheComponent(t *testing.T) {
	g := randomConnected(11, 200, 20)
	seeds := []graph.VID{0, 50, 150}
	c := newComm(t, 200, 4, rt.QueuePriority)
	st := Compute(c, g, seeds)
	isSeed := map[graph.VID]bool{0: true, 50: true, 150: true}
	for v := 0; v < g.NumVertices(); v++ {
		if st.Src(graph.VID(v)) == graph.NilVID {
			t.Fatalf("vertex %d unreached in connected graph", v)
		}
		if !isSeed[st.Src(graph.VID(v))] {
			t.Fatalf("vertex %d assigned to non-seed %d", v, st.Src(graph.VID(v)))
		}
	}
}

func TestPredecessorChainsLeadToCellSeed(t *testing.T) {
	g := randomConnected(13, 300, 25)
	seeds := []graph.VID{10, 200}
	c := newComm(t, 300, 4, rt.QueuePriority)
	st := Compute(c, g, seeds)
	for v := 0; v < g.NumVertices(); v++ {
		// Walk predecessors; must reach src(v) within n hops with
		// monotonically decreasing distance, staying inside the cell.
		cur := graph.VID(v)
		for hops := 0; cur != st.Src(cur); hops++ {
			if hops > g.NumVertices() {
				t.Fatalf("pred cycle starting at %d", v)
			}
			p := st.Pred(cur)
			w, ok := g.HasEdge(p, cur)
			if !ok {
				t.Fatalf("pred edge (%d,%d) not in graph", p, cur)
			}
			if st.Src(p) != st.Src(cur) {
				t.Fatalf("pred %d of %d in different cell", p, cur)
			}
			if st.Dist(p)+graph.Dist(w) != st.Dist(cur) {
				t.Fatalf("pred distance inconsistent at %d", cur)
			}
			cur = p
		}
	}
}

func TestDisconnectedVerticesStayUnreached(t *testing.T) {
	b := graph.NewBuilder(6)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	b.AddEdge(3, 4, 1) // separate component, no seeds
	g, _ := b.Build()
	c := newComm(t, 6, 2, rt.QueuePriority)
	st := Compute(c, g, []graph.VID{0})
	for _, v := range []graph.VID{3, 4, 5} {
		if st.Src(graph.VID(v)) != graph.NilVID || st.Dist(graph.VID(v)) != graph.InfDist {
			t.Fatalf("vertex %d should be unreached, got src=%d dist=%d", v, st.Src(graph.VID(v)), st.Dist(graph.VID(v)))
		}
	}
}

// TestShardedMatchesGlobalReference pins the core claim of the shard
// refactor and of the tentative labels layered on it: the sharded traversal
// (rank-local slabs, rows written when an offer is made — by the sender for
// a target it owns, by Admit on arrival otherwise — and offers dropped
// against the ghost rows) reaches the fixed point of the sequential sweep
// over the global CSR — byte for byte, for every partition kind, under
// every queue discipline, async (in delivery order and shuffled) and BSP.
// The grid's small weights make (dist, seed) ties with differing
// predecessors the norm: the case a relaxation that compared non-strictly
// would get wrong.
func TestShardedMatchesGlobalReference(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"random": randomConnected(77, 300, 25),
		"grid":   gen.Config{Name: "grid", Kind: gen.KindGrid2D, N: 16 * 20, Rows: 16, Cols: 20, MaxWeight: 3, Seed: 79}.MustBuild(),
		"rmat":   gen.Config{Name: "rmat", Kind: gen.KindRMAT, N: 256, AvgDegree: 8, MaxWeight: 50, Backbone: true, Seed: 80}.MustBuild(),
	}
	var sent, arcs int64
	for name, g := range graphs {
		n := g.NumVertices()
		rng := rand.New(rand.NewSource(78))
		seeds := pickSeeds(rng, n, 5)
		sequential := Sequential(g, seeds)

		makePart := func(kind string, ranks int) *partition.Partition {
			part, err := partition.NewBlock(n, ranks)
			if kind == "arcblock" {
				part, err = partition.NewArcBlock(g, ranks)
			}
			if err != nil {
				t.Fatal(err)
			}
			return part
		}

		for _, kind := range []string{"block", "arcblock"} {
			for _, bsp := range []bool{false, true} {
				for _, ranks := range []int{1, 4} {
					for _, q := range []rt.QueueKind{rt.QueueFIFO, rt.QueuePriority} {
						// Sharded runs: rank-local slabs, collected afterwards.
						// The async rows run again under two permutations of
						// batch and message order, so offers are folded on
						// arrival in orders the sweep never sees.
						shuffles := []int64{0}
						if !bsp {
							shuffles = []int64{0, 101, 202}
						}
						for _, shuffle := range shuffles {
							cs := rt.MustNew(rt.Config{Ranks: ranks, Queue: q,
								ShuffleDelivery: shuffle != 0, ShuffleSeed: shuffle}, makePart(kind, ranks))
							cs.EnsureShards(g)
							slabs := EnsureSlabs(cs, g)
							cs.Run(func(r *rt.Rank) {
								if bsp {
									RunRankBSP(r, seeds)
								} else {
									RunRank(r, seeds)
								}
							})
							got := Collect(slabs, n)
							for v := 0; v < n; v++ {
								gs, gp, gd := got.Get(graph.VID(v))
								ss, sp, sd := sequential.Get(graph.VID(v))
								if gs != ss || gp != sp || gd != sd {
									t.Fatalf("%s %s bsp=%v ranks=%d q=%v shuffle=%d vertex %d: sharded (%d,%d,%d), sequential (%d,%d,%d)",
										name, kind, bsp, ranks, q, shuffle, v, gs, gp, gd, ss, sp, sd)
								}
							}
							sent += cs.Stats().Sent
							arcs += int64(g.NumArcs())
						}
					}
				}
			}
		}
	}
	// Not vacuous: a flood that sends every offer sends at least one per arc
	// (each vertex is expanded at least once), so relaxing at the sender must
	// have kept a real share of them from ever becoming messages.
	if sent*4 > arcs*3 {
		t.Fatalf("sharded runs sent %d offers over %d arcs: under a quarter were settled at the sender", sent, arcs)
	}
}

func TestPropertyDeterministicAcrossRanksQueuesAndShuffles(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 30 + rng.Intn(120)
		g := randomConnected(seed, n, 20)
		seeds := pickSeeds(rng, n, 2+rng.Intn(4))
		want := Sequential(g, seeds)
		ranks := []int{1, 3, 5}[rng.Intn(3)]
		q := []rt.QueueKind{rt.QueueFIFO, rt.QueuePriority}[rng.Intn(2)]
		part, _ := partition.NewBlock(n, ranks)
		c := rt.MustNew(rt.Config{
			Ranks: ranks, Queue: q,
			ShuffleDelivery: true, ShuffleSeed: seed * 31,
			BatchSize: 1 + rng.Intn(64),
		}, part)
		got := Compute(c, g, seeds)
		for v := 0; v < n; v++ {
			if got.Dist(graph.VID(v)) != want.Dist(graph.VID(v)) || got.Src(graph.VID(v)) != want.Src(graph.VID(v)) || got.Pred(graph.VID(v)) != want.Pred(graph.VID(v)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestBSPMatchesAsync(t *testing.T) {
	g := randomConnected(21, 250, 15)
	seeds := []graph.VID{5, 99, 180}
	want := Sequential(g, seeds)
	part, _ := partition.NewBlock(250, 4)
	c := rt.MustNew(rt.Config{Ranks: 4, Queue: rt.QueueFIFO}, part)
	c.EnsureShards(g)
	slabs := EnsureSlabs(c, g)
	c.Run(func(r *rt.Rank) {
		// Run the same visitor logic under BSP via RunRank's building
		// blocks: reuse Compute-style traversal but in BSP mode through
		// a manual traversal.
		RunRankBSP(r, seeds)
	})
	st := Collect(slabs, g.NumVertices())
	for v := 0; v < g.NumVertices(); v++ {
		if st.Dist(graph.VID(v)) != want.Dist(graph.VID(v)) || st.Src(graph.VID(v)) != want.Src(graph.VID(v)) {
			t.Fatalf("BSP vertex %d: got (%d,%d), want (%d,%d)",
				v, st.Dist(graph.VID(v)), st.Src(graph.VID(v)), want.Dist(graph.VID(v)), want.Src(graph.VID(v)))
		}
	}
}

func TestStateMemoryBytes(t *testing.T) {
	st := NewState(100)
	if got := st.MemoryBytes(); got != 100*(4+4+8+8) {
		t.Fatalf("MemoryBytes = %d", got)
	}
}

func TestStateResetInvalidatesInO1(t *testing.T) {
	st := NewState(10)
	st.Set(3, 1, 2, 7)
	if !st.Reached(3) || st.Src(3) != 1 || st.Pred(3) != 2 || st.Dist(3) != 7 {
		t.Fatalf("entry not readable: %v %v %v", st.Src(3), st.Pred(3), st.Dist(3))
	}
	st.Reset()
	if st.Reached(3) {
		t.Fatal("entry survived Reset")
	}
	if s, p, d := st.Get(3); s != graph.NilVID || p != graph.NilVID || d != graph.InfDist {
		t.Fatalf("stale entry visible after Reset: (%d,%d,%d)", s, p, d)
	}
}

func TestStateReuseAcrossQueriesMatchesFresh(t *testing.T) {
	// One pooled slab set driven through several different seed sets must
	// produce exactly the fixed point fresh slabs produce: stale entries
	// from earlier epochs must be invisible.
	g := randomConnected(17, 300, 25)
	rng := rand.New(rand.NewSource(18))
	part, _ := partition.NewBlock(300, 4)
	c := rt.MustNew(rt.Config{Ranks: 4, Queue: rt.QueuePriority}, part)
	c.EnsureShards(g)
	slabs := EnsureSlabs(c, g)
	for q := 0; q < 5; q++ {
		seeds := pickSeeds(rng, g.NumVertices(), 2+q)
		c.ResetStateSlabs()
		c.Run(func(r *rt.Rank) {
			RunRank(r, seeds)
		})
		pooled := Collect(slabs, g.NumVertices())
		fresh := Compute(newComm(t, 300, 4, rt.QueuePriority), g, seeds)
		for v := 0; v < g.NumVertices(); v++ {
			gs, gp, gd := pooled.Get(graph.VID(v))
			ws, wp, wd := fresh.Get(graph.VID(v))
			if gs != ws || gp != wp || gd != wd {
				t.Fatalf("query %d vertex %d: pooled (%d,%d,%d), fresh (%d,%d,%d)",
					q, v, gs, gp, gd, ws, wp, wd)
			}
		}
	}
}

func TestWorkCountersReported(t *testing.T) {
	g := randomConnected(31, 150, 10)
	part, _ := partition.NewBlock(150, 2)
	c := rt.MustNew(rt.Config{Ranks: 2, Queue: rt.QueuePriority}, part)
	c.EnsureShards(g)
	EnsureSlabs(c, g)
	var totalProcessed int64
	done := make(chan int64, 2)
	c.Run(func(r *rt.Rank) {
		s := RunRank(r, []graph.VID{0, 100})
		done <- s.Processed
	})
	close(done)
	for p := range done {
		totalProcessed += p
	}
	if got := c.Stats().Processed; got != totalProcessed || got == 0 {
		t.Fatalf("per-rank sum %d != comm counter %d", totalProcessed, got)
	}
}

// TestVisitsBoundedByLabelImprovements pins the work bound of tentative
// labels with one queue entry per row: a queue entry exists only for a strict
// (dist, seed) improvement of a row, and under the priority queue a better
// label takes over the row's queued entry. With one rank and weights ≥ 1 that
// is Dijkstra: every reached vertex is popped exactly once, after its label
// is final. (Install-at-visit queued every offer that beat the installed row,
// about arcs/2 visits on this graph; one entry per label, without
// replacement, 2.06|V|.) Two ranks cannot promise that — a rank that runs
// ahead expands labels its peer later beats (1.04|V| on this graph) — but
// must stay well under two visits per vertex.
func TestVisitsBoundedByLabelImprovements(t *testing.T) {
	g := gen.Config{Name: "rmat12", Kind: gen.KindRMAT, N: 1 << 12, AvgDegree: 16, MaxWeight: 1000, Backbone: true, Seed: 5}.MustBuild()
	n := g.NumVertices()
	seeds := pickSeeds(rand.New(rand.NewSource(6)), n, 16)
	for _, ranks := range []int{1, 2} {
		c := newComm(t, n, ranks, rt.QueuePriority)
		c.EnsureShards(g)
		slabs := EnsureSlabs(c, g)
		processed := make([]int64, ranks)
		c.Run(func(r *rt.Rank) { processed[r.ID()] = RunRank(r, seeds).Processed })
		visits, reached := int64(0), int64(0)
		for i, sl := range slabs {
			visits += processed[i]
			sl.EachReached(func(graph.VID, graph.VID, graph.VID, graph.Dist) { reached++ })
		}
		if reached != int64(n) {
			t.Fatalf("ranks=%d: %d of %d vertices reached on a connected graph", ranks, reached, n)
		}
		if ranks == 1 && visits != reached {
			t.Fatalf("one rank visited %d queue entries for %d reached vertices: want exactly one each", visits, reached)
		}
		if visits > 2*reached {
			t.Fatalf("ranks=%d: visited %d queue entries for %d reached vertices: want at most two each", ranks, visits, reached)
		}
	}
}

// TestCrossRankSendsBoundedByGhostRows pins the work bound of the sender-side
// filter: a rank sends a remote vertex only offers that beat what it already
// sent it, so two ranks under the priority queue send well under a third of
// the arcs (blind sends put an offer on every boundary arc of every
// expansion, about 0.72 of the arcs on this graph) — and the rows still
// converge to Sequential's.
func TestCrossRankSendsBoundedByGhostRows(t *testing.T) {
	g := gen.Config{Name: "rmat12", Kind: gen.KindRMAT, N: 1 << 12, AvgDegree: 16, MaxWeight: 1000, Backbone: true, Seed: 5}.MustBuild()
	n := g.NumVertices()
	seeds := pickSeeds(rand.New(rand.NewSource(6)), n, 16)
	c := newComm(t, n, 2, rt.QueuePriority)
	c.EnsureShards(g)
	slabs := EnsureSlabs(c, g)
	sent := make([]int64, 2)
	c.Run(func(r *rt.Rank) { sent[r.ID()] = RunRank(r, seeds).Sent })
	total, arcs := sent[0]+sent[1], g.NumArcs()
	if total == 0 || total >= arcs/3 {
		t.Fatalf("two ranks sent %d messages on %d arcs: want under arcs/3 (and some)", total, arcs)
	}
	if c.Stats().Suppressed == 0 {
		t.Fatal("nothing suppressed: the ghost-row filter is dead")
	}
	got, want := Collect(slabs, n), Sequential(g, seeds)
	for v := graph.VID(0); int(v) < n; v++ {
		gs, gp, gd := got.Get(v)
		ws, wp, wd := want.Get(v)
		if gs != ws || gp != wp || gd != wd {
			t.Fatalf("vertex %d converged to (src %d, pred %d, dist %d), Sequential says (%d, %d, %d)", v, gs, gp, gd, ws, wp, wd)
		}
	}
}

// TestPredOnlyImprovementIsNotRequeued is the tie case of tentative labels on
// a diamond: t is reached at distance 4 through b (id 3) first and through a
// (id 1) later, under every discipline — b is one hop and one unit from the
// seed, a two of each. The later offer wins on predecessor alone: it must be
// installed (the fixed point is the lexicographic minimum) but must not queue
// t a second time, so every vertex is visited exactly once.
func TestPredOnlyImprovementIsNotRequeued(t *testing.T) {
	const s, a, m, b, tt, x = 0, 1, 2, 3, 4, 5
	bld := graph.NewBuilder(6)
	bld.AddEdge(s, b, 1)
	bld.AddEdge(b, tt, 3)
	bld.AddEdge(s, m, 1)
	bld.AddEdge(m, a, 1)
	bld.AddEdge(a, tt, 2)
	bld.AddEdge(tt, x, 1)
	g, err := bld.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []rt.QueueKind{rt.QueueFIFO, rt.QueuePriority} {
		c := newComm(t, 6, 1, q)
		c.EnsureShards(g)
		slabs := EnsureSlabs(c, g)
		var stats rt.TraversalStats
		c.Run(func(r *rt.Rank) { stats = RunRank(r, []graph.VID{s}) })
		st := Collect(slabs, 6)
		if src, pred, dist := st.Get(tt); src != s || pred != a || dist != 4 {
			t.Fatalf("q=%v: t converged to (src %d, pred %d, dist %d), want (%d, %d, 4)", q, src, pred, dist, s, a)
		}
		if st.Pred(x) != tt || st.Dist(x) != 5 {
			t.Fatalf("q=%v: x converged to (pred %d, dist %d), want (%d, 5)", q, st.Pred(x), st.Dist(x), tt)
		}
		if stats.Processed != 6 {
			t.Fatalf("q=%v: %d visits for 6 vertices: a predecessor-only improvement was queued", q, stats.Processed)
		}
	}
}
