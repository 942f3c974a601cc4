package core

import (
	"math/rand"
	"runtime"
	"testing"

	"dsteiner/internal/gen"
	"dsteiner/internal/graph"
	rt "dsteiner/internal/runtime"
)

// tieTestGraph builds a connected random graph with a tiny weight range so
// cross-edge weight ties are common: the reference comparison only proves
// anything if the (D, seedKey) tie-break is actually exercised.
func tieTestGraph(seed int64, n int) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	for v := 1; v < n; v++ {
		b.AddEdge(graph.VID(rng.Intn(v)), graph.VID(v), uint32(rng.Intn(3))+1)
	}
	for i := 0; i < 3*n; i++ {
		b.AddEdge(graph.VID(rng.Intn(n)), graph.VID(rng.Intn(n)), uint32(rng.Intn(3))+1)
	}
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// TestFragmentTCPWireBytes runs phases 3–5 on a real TCP fleet at high
// terminal count: a tree query, and a prize query over the same terminals
// whose penalties are too large to skip any of them. Both gather the same
// global table to rank 0 and broadcast the same chosen set, so they report
// the same tree, the same |E'₁|, and the same phase 3–5 bytes and records.
func TestFragmentTCPWireBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("spins a 4-worker TCP fleet at k=512")
	}
	g := engineTestGraph(41, 1600)
	rng := rand.New(rand.NewSource(55))
	seeds := pickEngineSeeds(rng, g.NumVertices(), 512)
	penalties := make([]graph.Dist, len(seeds))
	for i := range penalties {
		penalties[i] = 1 << 40
	}
	e, shutdown := startChaosFleet(t, g, Options{Ranks: 4, Queue: rt.QueuePriority}, 4, nil)
	defer shutdown(true)

	want, err := e.SolveSpec(QuerySpec{Mode: ModePrize, Seeds: seeds, Penalties: penalties})
	if err != nil {
		t.Fatalf("prize: %v", err)
	}
	got, err := e.Solve(seeds)
	if err != nil {
		t.Fatalf("tree: %v", err)
	}
	assertResultsEquivalent(t, "tcp-k512", got, want)
	if len(want.Skipped) != 0 {
		t.Fatalf("prize solve skipped %v, want every terminal kept", want.Skipped)
	}
	if got.FragmentMsgs == 0 || got.CrossTableBytes == 0 {
		t.Fatalf("tree solve: msgs=%d bytes=%d", got.FragmentMsgs, got.CrossTableBytes)
	}
	if want.DistGraphEdges != got.DistGraphEdges || want.CrossTableBytes != got.CrossTableBytes ||
		want.FragmentMsgs != got.FragmentMsgs {
		t.Fatalf("prize solve: |E'1|=%d bytes=%d msgs=%d, tree solve: |E'1|=%d bytes=%d msgs=%d",
			want.DistGraphEdges, want.CrossTableBytes, want.FragmentMsgs,
			got.DistGraphEdges, got.CrossTableBytes, got.FragmentMsgs)
	}
	t.Logf("k=512 phase 3-5 wire bytes: %d", got.CrossTableBytes)
}

// TestWarmManyTerminalAllocs bounds what one warm many-terminal query
// allocates on the grid-manyterm-modes shape (128×256 grid, weights 1–100,
// 2 ranks): a tree query over 2,048 terminals, a forest of 512 star groups
// and a prize query over 1,024 terminals must each stay under 1 MB. The
// phase 2–4 tables and rank 0's result check are pooled or flat, so what is
// left is the answer itself, the exchanged blobs and the prize plan.
func TestWarmManyTerminalAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("floods a 32K-vertex grid with thousands of terminals")
	}
	g := gen.Config{Name: "grid", Kind: gen.KindGrid2D, N: 128 * 256, Rows: 128, Cols: 256,
		MaxWeight: 100, Seed: 1}.MustBuild()
	n := g.NumVertices()
	rng := rand.New(rand.NewSource(7))
	var groups [][]graph.VID
	taken := map[graph.VID]bool{}
	for len(groups) < 512 {
		c := graph.VID(rng.Intn(n))
		nbrs, _ := g.Adj(c)
		grp := []graph.VID{c}
		for _, u := range nbrs {
			if len(grp) < 4 && !taken[u] {
				grp = append(grp, u)
			}
		}
		if taken[c] || len(grp) < 2 {
			continue
		}
		for _, v := range grp {
			taken[v] = true
		}
		groups = append(groups, grp)
	}
	prize := QuerySpec{Mode: ModePrize, Seeds: pickEngineSeeds(rng, n, 1024)}
	for range prize.Seeds {
		prize.Penalties = append(prize.Penalties, graph.Dist(rng.Int63n(400)))
	}
	e, err := NewEngine(g, Default(2))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for _, tc := range []struct {
		name string
		spec QuerySpec
	}{
		{"tree", TreeSpec(pickEngineSeeds(rng, n, 2048))},
		{"forest", QuerySpec{Mode: ModeForest, Groups: groups}},
		{"prize", prize},
	} {
		if _, err := e.SolveSpec(tc.spec); err != nil { // warm the pools
			t.Fatalf("%s: %v", tc.name, err)
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if _, err := e.SolveSpec(tc.spec); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		runtime.ReadMemStats(&m1)
		kb := float64(m1.TotalAlloc-m0.TotalAlloc) / 1024
		t.Logf("%s: %.0f KB", tc.name, kb)
		if kb >= 1024 {
			t.Errorf("%s query allocated %.0f KB warm, want < 1 MB", tc.name, kb)
		}
	}
}
