package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"dsteiner/internal/exact"
	"dsteiner/internal/graph"
	rt "dsteiner/internal/runtime"
)

// clusteredTestGraph builds k dense clusters of perCluster vertices with
// light internal weights (<= 100) joined by a sparse ring of huge-weight
// bridges (1e6). Terminals placed within one cluster always have their
// whole cluster inside their own Voronoi cells, so a forest group per
// cluster is guaranteed feasible.
func clusteredTestGraph(seed int64, clusters, perCluster int) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	n := clusters * perCluster
	b := graph.NewBuilder(n)
	for c := 0; c < clusters; c++ {
		base := c * perCluster
		for v := 1; v < perCluster; v++ {
			b.AddEdge(graph.VID(base+rng.Intn(v)), graph.VID(base+v), uint32(rng.Intn(100))+1)
		}
		for i := 0; i < 2*perCluster; i++ {
			b.AddEdge(graph.VID(base+rng.Intn(perCluster)), graph.VID(base+rng.Intn(perCluster)),
				uint32(rng.Intn(100))+1)
		}
	}
	for c := 1; c < clusters; c++ {
		b.AddEdge(graph.VID((c-1)*perCluster+rng.Intn(perCluster)),
			graph.VID(c*perCluster+rng.Intn(perCluster)), 1_000_000)
	}
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// pickClusterGroups selects one terminal group per cluster (sizes[i]
// distinct vertices inside cluster i).
func pickClusterGroups(rng *rand.Rand, perCluster int, sizes []int) [][]graph.VID {
	groups := make([][]graph.VID, len(sizes))
	for c, size := range sizes {
		seen := map[graph.VID]bool{}
		for len(groups[c]) < size {
			v := graph.VID(c*perCluster + rng.Intn(perCluster))
			if !seen[v] {
				seen[v] = true
				groups[c] = append(groups[c], v)
			}
		}
	}
	return groups
}

// treeVertexSet collects the distinct vertices of an edge list.
func treeVertexSet(edges []graph.Edge) map[graph.VID]bool {
	set := make(map[graph.VID]bool, 2*len(edges))
	for _, e := range edges {
		set[e.U] = true
		set[e.V] = true
	}
	return set
}

// checkForestProperties asserts the forest-mode contract: one subtree per
// canonical group, each connected and spanning its group, vertex-disjoint
// from every other group's subtree (so no edge can bridge two groups), and
// together exactly the full result tree.
func checkForestProperties(t *testing.T, g *graph.Graph, res *Result) {
	t.Helper()
	if res.Mode != ModeForest {
		t.Fatalf("mode %v, want forest", res.Mode)
	}
	if len(res.GroupTrees) != len(res.Groups) {
		t.Fatalf("%d group trees for %d groups", len(res.GroupTrees), len(res.Groups))
	}
	var all []graph.Edge
	var total graph.Dist
	claimed := map[graph.VID]int{}
	for gi, grp := range res.Groups {
		sub := res.GroupTrees[gi]
		// Connected, acyclic, spans the group, leaves are terminals.
		if err := graph.ValidateSteinerTree(g, grp, sub); err != nil {
			t.Fatalf("group %d subtree invalid: %v", gi, err)
		}
		for v := range treeVertexSet(sub) {
			if prev, ok := claimed[v]; ok {
				t.Fatalf("vertex %d appears in group %d and group %d subtrees", v, prev, gi)
			}
			claimed[v] = gi
		}
		all = append(all, sub...)
		total += graph.TotalWeight(sub)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].U != all[j].U {
			return all[i].U < all[j].U
		}
		return all[i].V < all[j].V
	})
	if !reflect.DeepEqual(all, res.Tree) {
		t.Fatalf("group subtrees do not partition the tree:\nunion %v\ntree  %v", all, res.Tree)
	}
	if total != res.TotalDistance || res.Objective != res.TotalDistance {
		t.Fatalf("distances disagree: groups=%d total=%d objective=%d",
			total, res.TotalDistance, res.Objective)
	}
}

// TestForestModeProperties is the forest property test on the loopback
// backend: every group's returned subtree is connected, spans its group,
// and no edge bridges two groups.
func TestForestModeProperties(t *testing.T) {
	g := clusteredTestGraph(7, 3, 40)
	rng := rand.New(rand.NewSource(8))
	specs := []QuerySpec{
		{Mode: ModeForest, Groups: pickClusterGroups(rng, 40, []int{3, 4, 2})},
		{Mode: ModeForest, Groups: pickClusterGroups(rng, 40, []int{5, 2, 3})},
		{Mode: ModeForest, Groups: pickClusterGroups(rng, 40, []int{1, 6, 1})}, // singleton groups
	}
	e, err := NewEngine(g, Options{Ranks: 4, Queue: rt.QueuePriority})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for qi, spec := range specs {
		res, err := e.SolveSpec(spec)
		if err != nil {
			t.Fatalf("query %d: %v", qi, err)
		}
		checkForestProperties(t, g, res)
	}
}

// TestForestModeSingleGroupMatchesTree pins the degenerate case: a forest
// query with one group returns exactly the tree-mode solve of that set.
func TestForestModeSingleGroupMatchesTree(t *testing.T) {
	g := engineTestGraph(55, 150)
	rng := rand.New(rand.NewSource(56))
	seeds := pickEngineSeeds(rng, g.NumVertices(), 6)
	e, err := NewEngine(g, Default(4))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	tree, err := e.Solve(seeds)
	if err != nil {
		t.Fatal(err)
	}
	forest, err := e.SolveSpec(QuerySpec{Mode: ModeForest, Groups: [][]graph.VID{seeds}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(forest.Tree, tree.Tree) || forest.TotalDistance != tree.TotalDistance {
		t.Fatalf("single-group forest differs from tree solve:\nforest %v\ntree   %v", forest.Tree, tree.Tree)
	}
	if len(forest.GroupTrees) != 1 || !reflect.DeepEqual(forest.GroupTrees[0], tree.Tree) {
		t.Fatalf("group tree does not equal the full tree")
	}
}

// TestForestGroupThroughForeignCell pins a forest query the solver rejects
// although it has an answer. Edges a1–v (10), v–a2 (10), v–b1 (1) and b1–b2
// (1), groups {a1, a2} and {b1, b2}: the forest a1–v–a2 plus b1–b2 shares no
// vertex between groups, but v lies in b1's Voronoi cell, so phase 2 keeps no
// candidate edge for group A and the merge leaves it in two pieces. The error
// names that restriction, not a graph that fails to connect the group.
func TestForestGroupThroughForeignCell(t *testing.T) {
	const a1, v, a2, b1, b2 = 0, 1, 2, 3, 4
	b := graph.NewBuilder(5)
	b.AddEdge(a1, v, 10)
	b.AddEdge(v, a2, 10)
	b.AddEdge(v, b1, 1)
	b.AddEdge(b1, b2, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, ranks := range []int{1, 2} {
		e, err := NewEngine(g, Default(ranks))
		if err != nil {
			t.Fatal(err)
		}
		_, err = e.SolveSpec(QuerySpec{Mode: ModeForest, Groups: [][]graph.VID{{a1, a2}, {b1, b2}}})
		e.Close()
		if err == nil || !strings.Contains(err.Error(), "forest group 0 is left in 2 pieces") ||
			!strings.Contains(err.Error(), "group-disjoint forest inside the terminals' Voronoi cells") {
			t.Fatalf("ranks=%d: err = %v, want group 0 rejected for want of a group-disjoint forest inside the cells", ranks, err)
		}
	}
}

// prizeBruteForce computes the true prize-collecting optimum over all
// non-empty terminal subsets: exact Steiner tree cost of the subset plus
// the penalties of everything excluded. (The keep-nothing solution is never
// better than keeping the single most expensive terminal, so non-empty
// subsets suffice.)
func prizeBruteForce(t *testing.T, g *graph.Graph, seeds []graph.VID, penalties []graph.Dist) graph.Dist {
	t.Helper()
	totalPen := graph.Dist(0)
	for _, p := range penalties {
		totalPen += p
	}
	best := graph.Dist(-1)
	for mask := 1; mask < 1<<len(seeds); mask++ {
		var subset []graph.VID
		pen := totalPen
		for i := range seeds {
			if mask&(1<<i) != 0 {
				subset = append(subset, seeds[i])
				pen -= penalties[i]
			}
		}
		sol, err := exact.Solve(g, subset, 0)
		if err != nil {
			continue // disconnected subset: infeasible
		}
		if obj := sol.Total + pen; best < 0 || obj < best {
			best = obj
		}
	}
	if best < 0 {
		t.Fatal("no feasible prize subset")
	}
	return best
}

// TestPrizeModeObjective is the prize objective test: on small random
// instances, tree cost + paid penalties stays within 2x the brute-force
// optimum, the reported accounting is internally consistent, and the tree
// is a valid Steiner tree of the kept terminals.
func TestPrizeModeObjective(t *testing.T) {
	for _, tc := range []struct {
		graphSeed, rngSeed int64
		n, k, maxPen       int
	}{
		{71, 72, 50, 5, 60},
		{73, 74, 60, 6, 25},
		{75, 76, 40, 5, 200}, // penalties high enough that skipping is rare
		{77, 78, 60, 6, 8},   // penalties low enough that skipping is common
	} {
		t.Run(fmt.Sprintf("g%d", tc.graphSeed), func(t *testing.T) {
			g := engineTestGraph(tc.graphSeed, tc.n)
			rng := rand.New(rand.NewSource(tc.rngSeed))
			seeds := pickEngineSeeds(rng, g.NumVertices(), tc.k)
			penalties := make([]graph.Dist, tc.k)
			for i := range penalties {
				penalties[i] = graph.Dist(rng.Intn(tc.maxPen + 1))
			}
			e, err := NewEngine(g, Default(4))
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			res, err := e.SolveSpec(QuerySpec{Mode: ModePrize, Seeds: seeds, Penalties: penalties})
			if err != nil {
				t.Fatal(err)
			}
			if res.Mode != ModePrize {
				t.Fatalf("mode %v, want prize", res.Mode)
			}
			// Accounting: PaidPenalty matches the skipped set, Objective
			// is cost + paid, and the tree spans exactly the kept set.
			paid := graph.Dist(0)
			skipped := map[graph.VID]bool{}
			for _, s := range res.Skipped {
				skipped[s] = true
			}
			var kept []graph.VID
			for i, s := range res.Seeds {
				if skipped[s] {
					paid += resPenalty(seeds, penalties, s)
					_ = i
				} else {
					kept = append(kept, s)
				}
			}
			if paid != res.PaidPenalty {
				t.Fatalf("paid penalty %d, skipped set says %d", res.PaidPenalty, paid)
			}
			if res.Objective != res.TotalDistance+res.PaidPenalty {
				t.Fatalf("objective %d != total %d + paid %d", res.Objective, res.TotalDistance, res.PaidPenalty)
			}
			if len(kept) == 0 {
				t.Fatal("prize solve kept no terminal")
			}
			if err := graph.ValidateSteinerTree(g, kept, res.Tree); err != nil {
				t.Fatalf("kept-set tree invalid: %v", err)
			}
			opt := prizeBruteForce(t, g, seeds, penalties)
			if res.Objective > 2*opt {
				t.Fatalf("objective %d exceeds 2x optimum %d", res.Objective, opt)
			}
		})
	}
}

// resPenalty looks up the penalty of seed s in the original (unsorted)
// query.
func resPenalty(seeds []graph.VID, penalties []graph.Dist, s graph.VID) graph.Dist {
	for i, v := range seeds {
		if v == s {
			return penalties[i]
		}
	}
	return 0
}

// TestQuerySpecValidation pins canonSpec's rejection rules across modes.
func TestQuerySpecValidation(t *testing.T) {
	g := engineTestGraph(95, 40)
	e, err := NewEngine(g, Default(2))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	// Every rejection but a repeated or out-of-range terminal is a shape
	// error, whatever the graph.
	for _, tc := range []struct {
		name  string
		spec  QuerySpec
		want  string
		shape bool
	}{
		{"tree without seeds", QuerySpec{}, "empty seed set", true},
		{"tree with groups", QuerySpec{Seeds: []graph.VID{1}, Groups: [][]graph.VID{{2}}}, "must not set groups", true},
		{"tree with penalties", QuerySpec{Seeds: []graph.VID{1}, Penalties: []graph.Dist{2}}, "must not set penalties", true},
		{"forest without groups", QuerySpec{Mode: ModeForest}, "at least one terminal group", true},
		{"forest empty group", QuerySpec{Mode: ModeForest, Groups: [][]graph.VID{{1}, {}}}, "group 1 is empty", true},
		{"forest dup across groups", QuerySpec{Mode: ModeForest, Groups: [][]graph.VID{{1, 2}, {2, 3}}}, "appears more than once", false},
		{"forest out of range", QuerySpec{Mode: ModeForest, Groups: [][]graph.VID{{1, 999}}}, "out of range", false},
		{"prize penalty count", QuerySpec{Mode: ModePrize, Seeds: []graph.VID{1, 2}, Penalties: []graph.Dist{3}}, "one penalty per seed", true},
		{"prize negative penalty", QuerySpec{Mode: ModePrize, Seeds: []graph.VID{1}, Penalties: []graph.Dist{-4}}, "negative penalty", true},
		{"prize with groups", QuerySpec{Mode: ModePrize, Seeds: []graph.VID{1}, Penalties: []graph.Dist{1}, Groups: [][]graph.VID{{2}}}, "not groups", true},
		{"unknown mode", QuerySpec{Mode: Mode(9), Seeds: []graph.VID{1}}, "unknown query mode", true},
	} {
		_, err := e.SolveSpec(tc.spec)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
		if errors.Is(err, ErrQueryShape) != tc.shape {
			t.Errorf("%s: errors.Is(%v, ErrQueryShape) = %v, want %v", tc.name, err, !tc.shape, tc.shape)
		}
	}

	// Canonicalization: group order, in-group order and penalty order all
	// normalize, so equivalent specs produce identical canonical forms.
	a, err := CanonicalSpec(40, QuerySpec{Mode: ModeForest, Groups: [][]graph.VID{{9, 4}, {2, 7}}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := CanonicalSpec(40, QuerySpec{Mode: ModeForest, Groups: [][]graph.VID{{7, 2}, {4, 9}}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("equivalent forest specs canonicalize differently: %+v vs %+v", a, b)
	}
	p1, err := CanonicalSpec(40, QuerySpec{Mode: ModePrize, Seeds: []graph.VID{5, 2}, Penalties: []graph.Dist{50, 20}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p1.Seeds, []graph.VID{2, 5}) || !reflect.DeepEqual(p1.Penalties, []graph.Dist{20, 50}) {
		t.Fatalf("penalties not co-sorted with seeds: %+v", p1)
	}
}

// TestPrizePenaltyBound pins MaxPenaltySum: penalties summing to exactly the
// bound solve with every intermediate in range — here they are too large to
// skip anything, so the answer is the tree query's — and one more is
// ErrPenaltySum, as are penalties that would wrap int64 (each 2^62, or one
// MaxInt64), which used to skip terminals and report a negative objective.
func TestPrizePenaltyBound(t *testing.T) {
	g := engineTestGraph(95, 40)
	e, err := NewEngine(g, Default(2))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	seeds := []graph.VID{3, 17, 30}
	third := MaxPenaltySum / 3
	atBound := []graph.Dist{third, third, MaxPenaltySum - 2*third}

	tree, err := e.Solve(seeds)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.SolveSpec(QuerySpec{Mode: ModePrize, Seeds: seeds, Penalties: atBound})
	if err != nil {
		t.Fatalf("penalties summing to MaxPenaltySum: %v", err)
	}
	if len(res.Skipped) != 0 || res.PaidPenalty != 0 || res.Objective != tree.TotalDistance ||
		!reflect.DeepEqual(res.Tree, tree.Tree) {
		t.Fatalf("at the bound: skipped %v paid %d objective %d, want the tree query's %d",
			res.Skipped, res.PaidPenalty, res.Objective, tree.TotalDistance)
	}

	for name, pen := range map[string][]graph.Dist{
		"bound + 1":    {third, third, MaxPenaltySum - 2*third + 1},
		"each 2^62":    {1 << 62, 1 << 62, 1 << 62},
		"one MaxInt64": {0, math.MaxInt64, 0},
	} {
		_, err := e.SolveSpec(QuerySpec{Mode: ModePrize, Seeds: seeds, Penalties: pen})
		if !errors.Is(err, ErrPenaltySum) {
			t.Errorf("%s: err = %v, want ErrPenaltySum", name, err)
		}
	}
}

// TestFinalizeResultRejectsCorruptTree pins that the engine's own result
// check always runs and bites: a tree, a forest and a prize answer each fail
// finalizeResult once one edge's weight is off by one, one edge is dropped
// or one edge is duplicated.
func TestFinalizeResultRejectsCorruptTree(t *testing.T) {
	g := clusteredTestGraph(81, 3, 40)
	e, err := NewEngine(g, Default(2))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	rng := rand.New(rand.NewSource(82))
	groups := pickClusterGroups(rng, 40, []int{3, 4, 2})
	// Keep one cluster's terminals; skip a free one behind a 1e6 bridge.
	prizeSeeds := append(slices.Clone(groups[1]), groups[2][0])
	penalties := []graph.Dist{1e9, 1e9, 1e9, 1e9, 0}
	corruptions := map[string]func([]graph.Edge) []graph.Edge{
		"weight+1": func(tree []graph.Edge) []graph.Edge {
			tree[len(tree)/2].W++
			return tree
		},
		"dropped": func(tree []graph.Edge) []graph.Edge {
			return slices.Delete(tree, len(tree)/2, len(tree)/2+1)
		},
		"duplicated": func(tree []graph.Edge) []graph.Edge {
			return append(tree, tree[len(tree)/2])
		},
	}
	for _, spec := range []QuerySpec{
		TreeSpec(groups[0]),
		{Mode: ModeForest, Groups: groups},
		{Mode: ModePrize, Seeds: prizeSeeds, Penalties: penalties},
	} {
		t.Run(spec.Mode.String(), func(t *testing.T) {
			res, err := e.SolveSpec(spec)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Tree) < 2 || (spec.Mode == ModePrize && len(res.Skipped) == 0) {
				t.Fatalf("%d edges, %d skipped: not worth corrupting", len(res.Tree), len(res.Skipped))
			}
			cq, err := canonSpec(g.NumVertices(), spec)
			if err != nil {
				t.Fatal(err)
			}
			if err := finalizeResult(g, cq, res.Clone()); err != nil {
				t.Fatalf("intact answer rejected: %v", err)
			}
			for name, corrupt := range corruptions {
				t.Run(name, func(t *testing.T) {
					bad := res.Clone()
					bad.Tree = corrupt(bad.Tree)
					if err := finalizeResult(g, cq, bad); err == nil {
						t.Errorf("%s tree accepted", name)
					}
				})
			}
		})
	}
}

// BenchmarkForestSolve measures a warm engine answering forest queries, so
// that mode dispatch visibly taxing the solve path shows up here.
func BenchmarkForestSolve(b *testing.B) {
	g := clusteredTestGraph(3, 3, 500)
	rng := rand.New(rand.NewSource(4))
	spec := QuerySpec{Mode: ModeForest, Groups: pickClusterGroups(rng, 500, []int{8, 8, 8})}
	e, err := NewEngine(g, Default(4))
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	if _, err := e.SolveSpec(spec); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.SolveSpec(spec); err != nil {
			b.Fatal(err)
		}
	}
}
