package main

import (
	"math/rand"
	"testing"

	"dsteiner/internal/baseline"
	"dsteiner/internal/exact"
	"dsteiner/internal/gen"
	"dsteiner/internal/graph"
)

// tieFreeGraph has weights from so wide a range that two different paths
// having the same length is not going to happen, so every 2-approximation
// built on Voronoi cells picks the same tree.
func tieFreeGraph(t *testing.T, n int, seed int64) *graph.Graph {
	t.Helper()
	g, err := gen.Config{Name: "er", Kind: gen.KindErdosRenyi, N: n, AvgDegree: 6,
		MaxWeight: 1 << 30, Backbone: true, Seed: seed}.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestYardstickMatchesMehlhorn(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		g := tieFreeGraph(t, 400, seed)
		y := newYardstick(g)
		rng := rand.New(rand.NewSource(seed))
		for trial := 0; trial < 6; trial++ {
			terms := pickDistinct(rng, g.NumVertices(), 2+rng.Intn(24))
			w, tree, err := y.Solve(terms)
			if err != nil {
				t.Fatal(err)
			}
			if err := graph.ValidateSteinerTree(g, terms, tree); err != nil {
				t.Fatalf("seed %d trial %d: %v", seed, trial, err)
			}
			if w != graph.TotalWeight(tree) {
				t.Fatalf("weight %d, edges sum to %d", w, graph.TotalWeight(tree))
			}
			ref, err := baseline.Mehlhorn(g, terms)
			if err != nil {
				t.Fatal(err)
			}
			if w != ref.Total {
				t.Fatalf("seed %d trial %d: yardstick %d, baseline.Mehlhorn %d", seed, trial, w, ref.Total)
			}
		}
	}
}

func TestYardstickWithinTwiceOptimal(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		g := tieFreeGraph(t, 60, seed)
		y := newYardstick(g)
		rng := rand.New(rand.NewSource(seed))
		for k := 2; k <= 8; k++ {
			terms := pickDistinct(rng, g.NumVertices(), k)
			w, _, err := y.Solve(terms)
			if err != nil {
				t.Fatal(err)
			}
			opt, err := exact.Solve(g, terms, 0)
			if err != nil {
				t.Fatal(err)
			}
			if w < opt.Total || w > 2*opt.Total {
				t.Fatalf("seed %d k=%d: yardstick %d, optimum %d", seed, k, w, opt.Total)
			}
		}
	}
}

// A warm yardstick allocates nothing, so the garbage the system under test
// leaves behind cannot stretch the denominator of the ratio metrics.
func TestYardstickDoesNotAllocate(t *testing.T) {
	g, err := workloads[2].graph(1, true).Build() // the tie-heavy grid
	if err != nil {
		t.Fatal(err)
	}
	y := newYardstick(g)
	terms := pickDistinct(rand.New(rand.NewSource(1)), g.NumVertices(), 64)
	solve := func() {
		if _, _, err := y.Solve(terms); err != nil {
			t.Fatal(err)
		}
	}
	solve()
	if n := testing.AllocsPerRun(10, solve); n != 0 {
		t.Fatalf("a warm Solve allocates %v times", n)
	}
}
