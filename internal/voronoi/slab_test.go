package voronoi

import (
	"testing"

	"dsteiner/internal/graph"
	"dsteiner/internal/partition"
	rt "dsteiner/internal/runtime"
)

func TestStateSlabOwnedRowsSetGetReset(t *testing.T) {
	sl := NewStateSlab(0, 4, 8, nil)
	if sl.NumOwned() != 4 {
		t.Fatalf("dims = %d owned", sl.NumOwned())
	}
	if sl.Reached(5) {
		t.Fatal("fresh slab reports reached")
	}
	if s, p, d := sl.Get(5); s != graph.NilVID || p != graph.NilVID || d != graph.InfDist {
		t.Fatalf("fresh entry = (%d,%d,%d)", s, p, d)
	}
	sl.Set(5, 2, 8, 42)
	if !sl.Reached(5) || sl.Src(5) != 2 || sl.Pred(5) != 8 || sl.Dist(5) != 42 {
		t.Fatalf("entry after Set = (%d,%d,%d)", sl.Src(5), sl.Pred(5), sl.Dist(5))
	}
	if !sl.MarkWalked(5) {
		t.Fatal("first MarkWalked reported already-walked")
	}
	if sl.MarkWalked(5) {
		t.Fatal("second MarkWalked reported new")
	}
	sl.Reset()
	if sl.Reached(5) {
		t.Fatal("entry survived Reset")
	}
	if !sl.MarkWalked(5) {
		t.Fatal("walk mark survived Reset")
	}
}

func TestStateSlabPanicsOnNonOwnedVertex(t *testing.T) {
	sl := NewStateSlab(0, 0, 3, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("access to non-owned vertex did not panic")
		}
	}()
	sl.Get(7)
}

// TestStateSlabZeroOwnedVertices covers the degenerate rank of an
// over-partitioned graph (P > |V|) or an arc-block range squeezed empty by
// a hub: a slab with no owned rows must still build, reset and account
// memory.
func TestStateSlabZeroOwnedVertices(t *testing.T) {
	sl := NewStateSlab(3, 7, 7, nil)
	if sl.NumOwned() != 0 {
		t.Fatalf("dims = %d owned", sl.NumOwned())
	}
	if sl.Owns(0) || sl.Owns(7) {
		t.Fatal("empty slab claims ownership")
	}
	if sl.MemoryBytes() != 0 {
		t.Fatalf("empty slab reports %d bytes", sl.MemoryBytes())
	}
	sl.Reset()
}

// TestBuildSlabsSharesShardRowIndex checks BuildSlabs addresses each
// slab by its shard's vertex→row index, so adjacency row and state row
// coincide.
func TestBuildSlabsSharesShardRowIndex(t *testing.T) {
	g := randomConnected(51, 120, 20)
	part, _ := partition.NewArcBlock(g, 3)
	plan, err := partition.NewShardPlan(part, g)
	if err != nil {
		t.Fatal(err)
	}
	shards := plan.BuildShards(g)
	slabs := BuildSlabs(plan, shards)
	for rank, sl := range slabs {
		if sl.rows != shards[rank].Rows() {
			t.Fatalf("rank %d slab rows %v, shard rows %v", rank, sl.rows, shards[rank].Rows())
		}
		if sl.NumOwned() != shards[rank].NumOwned() {
			t.Fatalf("rank %d: slab %d rows, shard %d owned", rank, sl.NumOwned(), shards[rank].NumOwned())
		}
		if lo, hi := plan.Range(rank); sl.NumOwned() != int(hi-lo) {
			t.Fatalf("rank %d: slab %d rows for range [%d,%d)", rank, sl.NumOwned(), lo, hi)
		}
	}

	// EnsureSlabs on a sharded Comm must match the attached shards' indices
	// too.
	c := rt.MustNew(rt.Config{Ranks: 3, Queue: rt.QueuePriority}, part)
	c.EnsureShards(g)
	ensured := EnsureSlabs(c, g)
	attached := c.Shards()
	for rank, sl := range ensured {
		if sl.rows != attached[rank].Rows() {
			t.Fatalf("rank %d: EnsureSlabs rows %v, shard rows %v", rank, sl.rows, attached[rank].Rows())
		}
	}
}

func TestStateSlabMemoryBytes(t *testing.T) {
	sl := NewStateSlab(0, 0, 4, nil)
	// 4 owned rows * (4+4+8+8+8), no ghost rows without a shard.
	want := int64(4 * (4 + 4 + 8 + 8 + 8))
	if got := sl.MemoryBytes(); got != want {
		t.Fatalf("MemoryBytes = %d, want %d", got, want)
	}
}

// TestGhostRowsFilterThenHoldHaloLabels walks one ghost row through a query:
// during the flood it admits only offers strictly better than the last one
// sent (a smaller pred on a (dist, src) tie still goes out), BeginHalo
// forgets that bound so only a pushed label reads back, and Reset forgets
// both.
func TestGhostRowsFilterThenHoldHaloLabels(t *testing.T) {
	bld := graph.NewBuilder(4)
	bld.AddEdge(0, 2, 1)
	bld.AddEdge(1, 3, 1)
	g, err := bld.Build()
	if err != nil {
		t.Fatal(err)
	}
	sh := graph.NewShard(g, 0, 2, 0, 2)
	sl := NewStateSlab(0, 0, 2, sh)
	if sh.NumGhosts() != 2 || len(sl.ghost) != 2 {
		t.Fatalf("%d ghost slots, %d ghost rows, want 2 and 2", sh.NumGhosts(), len(sl.ghost))
	}
	// 2 owned rows * 32 + 2 ghost rows * (8+4+4+8).
	if got, want := sl.MemoryBytes(), int64(2*32+2*24); got != want {
		t.Fatalf("MemoryBytes = %d, want %d", got, want)
	}
	// ref resolves v as the arc columns do: its owned row, or the
	// complement of its ghost slot.
	ref := func(v graph.VID) int32 {
		if i := sh.Rows().Row(v); i >= 0 {
			return i
		}
		for g := int32(0); ; g++ {
			if sh.Target(^g) == v {
				return ^g
			}
		}
	}
	slot := ^ref(3)
	for i, step := range []struct {
		src, pred graph.VID
		dist      graph.Dist
		send      bool
	}{
		{src: 7, pred: 1, dist: 10, send: true},  // first offer
		{src: 7, pred: 1, dist: 10, send: false}, // exact repeat
		{src: 8, pred: 0, dist: 10, send: false}, // larger seed
		{src: 7, pred: 0, dist: 10, send: true},  // tie on (dist, src), smaller pred
		{src: 9, pred: 1, dist: 9, send: true},   // shorter
		{src: 7, pred: 0, dist: 10, send: false}, // now beaten
	} {
		if got := sl.offerGhost(slot, step.src, step.pred, step.dist); got != step.send {
			t.Fatalf("step %d: offerGhost = %v, want %v", i, got, step.send)
		}
	}
	if src, _ := sl.Label(ref(2)); src != graph.NilVID {
		t.Fatalf("a ghost nothing was sent to reads src %d", src)
	}
	sl.BeginHalo()
	if src, dist := sl.Label(ref(3)); src != graph.NilVID || dist != graph.InfDist {
		t.Fatalf("flood-time bound (%d, %d) survived BeginHalo", src, dist)
	}
	sl.SetGhost(slot, 5, 42)
	if src, dist := sl.Label(ref(3)); src != 5 || dist != 42 {
		t.Fatalf("pushed label reads (%d, %d), want (5, 42)", src, dist)
	}
	sl.Set(1, 4, 1, 6)
	if src, dist := sl.Label(ref(1)); src != 4 || dist != 6 {
		t.Fatalf("owned label reads (%d, %d), want (4, 6)", src, dist)
	}
	sl.Reset()
	if src, _ := sl.Label(ref(3)); src != graph.NilVID {
		t.Fatal("ghost label survived Reset")
	}
	if !sl.offerGhost(slot, 7, 1, 10) {
		t.Fatal("ghost bound survived Reset: the first offer of a new query was dropped")
	}
}

// TestCollectMergesSlabs checks Collect rebuilds the global view from
// per-rank slabs, skipping stale epochs.
func TestCollectMergesSlabs(t *testing.T) {
	a := NewStateSlab(0, 0, 2, nil)
	b := NewStateSlab(1, 2, 4, nil)
	a.Set(0, 0, 0, 0)
	b.Set(3, 0, 1, 9)
	b.Reset()
	b.Set(2, 0, 0, 5) // 3's entry is now stale and must not surface
	st := Collect([]*StateSlab{a, b}, 4)
	if st.Src(0) != 0 || st.Dist(2) != 5 {
		t.Fatalf("collected entries wrong: src(0)=%d dist(2)=%d", st.Src(0), st.Dist(2))
	}
	if st.Reached(1) || st.Reached(3) {
		t.Fatal("stale or unset entries surfaced in the collected view")
	}
}

// TestSlabOfPanicsWithoutAttach pins the loud failure mode for running the
// slab-state path on a communicator that never attached control state.
func TestSlabOfPanicsWithoutAttach(t *testing.T) {
	part, _ := partition.NewBlock(10, 1)
	c := rt.MustNew(rt.Config{Ranks: 1}, part)
	defer func() {
		if recover() == nil {
			t.Fatal("SlabOf without attached slabs did not panic")
		}
	}()
	c.Run(func(r *rt.Rank) {
		SlabOf(r)
	})
}
