package core

import (
	"fmt"
	"testing"

	"dsteiner/internal/graph"
	rt "dsteiner/internal/runtime"
	"dsteiner/internal/voronoi"
)

// slabs returns the control-state slab each rank's pool holds, by rank.
func (e *Engine) slabs() []*voronoi.StateSlab {
	slabs := make([]*voronoi.StateSlab, len(e.host.pools))
	for i, p := range e.host.pools {
		slabs[i] = p.slab
	}
	return slabs
}

// TestEngineRanksOwningZeroVertices covers the degenerate partitions where
// some ranks own no vertices at all — more ranks than vertices — so their
// slabs have zero owned rows. Solves must still match a one-rank engine's
// exactly (which the reference test holds against the sequential oracle).
func TestEngineRanksOwningZeroVertices(t *testing.T) {
	// 7 vertices, 12 ranks: at least 5 ranks own nothing.
	b := graph.NewBuilder(7)
	edges := [][3]int32{{0, 1, 2}, {1, 2, 3}, {2, 3, 1}, {3, 4, 4}, {4, 5, 2}, {5, 6, 3}, {0, 6, 9}, {1, 4, 5}}
	for _, e := range edges {
		b.AddEdge(graph.VID(e[0]), graph.VID(e[1]), uint32(e[2]))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(g, Options{Ranks: 12, Queue: rt.QueuePriority})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	empty := 0
	for _, sl := range e.slabs() {
		if sl.NumOwned() == 0 {
			empty++
		}
	}
	if empty == 0 {
		t.Fatal("12 ranks over 7 vertices left no rank empty")
	}
	for _, seeds := range [][]graph.VID{{0, 6}, {1, 3, 5}, {0, 2, 4, 6}} {
		got, err := e.Solve(seeds)
		if err != nil {
			t.Fatalf("seeds %v: %v", seeds, err)
		}
		want, err := Solve(g, seeds, Options{Ranks: 1, Queue: rt.QueuePriority})
		if err != nil {
			t.Fatal(err)
		}
		assertResultsEquivalent(t, fmt.Sprint(seeds), got, want)
	}
}

// TestSiblingsGetOwnSlabs checks sibling engines share the immutable shard
// substrate but build private control-state slabs — slabs are mutable
// per-query state and two engines solving concurrently must not share them.
func TestSiblingsGetOwnSlabs(t *testing.T) {
	g := engineTestGraph(171, 200)
	first, err := NewEngine(g, Default(3))
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()
	sib, err := first.NewSibling()
	if err != nil {
		t.Fatal(err)
	}
	defer sib.Close()
	for i, sl := range sib.slabs() {
		if sl == first.slabs()[i] {
			t.Fatalf("sibling shares mutable state slab %d", i)
		}
	}
	seeds := []graph.VID{3, 80, 150}
	a, err := first.Solve(seeds)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sib.Solve(seeds)
	if err != nil {
		t.Fatal(err)
	}
	assertResultsEquivalent(t, "sibling-slabs", b, a)
}
