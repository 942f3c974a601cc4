package core

import (
	"reflect"
	"testing"

	"dsteiner/internal/gen"
	"dsteiner/internal/graph"
	rt "dsteiner/internal/runtime"
)

// assertResultsEquivalent compares the solver-output parts of two engines'
// Results byte for byte: tree, total distance, canonical seeds, Steiner
// vertex count and distance-graph size. Phase timings and memory accounting
// are measurement, not output, and legitimately differ between backends and
// configurations.
func assertResultsEquivalent(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if !reflect.DeepEqual(got.Tree, want.Tree) {
		t.Fatalf("%s: trees differ\ngot  %v\nwant %v", label, got.Tree, want.Tree)
	}
	if got.TotalDistance != want.TotalDistance {
		t.Fatalf("%s: total %d != %d", label, got.TotalDistance, want.TotalDistance)
	}
	if !reflect.DeepEqual(got.Seeds, want.Seeds) {
		t.Fatalf("%s: seeds %v != %v", label, got.Seeds, want.Seeds)
	}
	if got.SteinerVertices != want.SteinerVertices {
		t.Fatalf("%s: steiner vertices %d != %d", label, got.SteinerVertices, want.SteinerVertices)
	}
	if got.DistGraphEdges != want.DistGraphEdges {
		t.Fatalf("%s: |E'1| %d != %d", label, got.DistGraphEdges, want.DistGraphEdges)
	}
}

// TestNewSiblingSharesShards checks that sibling engines share one
// immutable shard set (the engine-pool memory property) while solving
// independently and identically.
func TestNewSiblingSharesShards(t *testing.T) {
	g := engineTestGraph(113, 250)
	first, err := NewEngine(g, Default(3))
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()
	sib, err := first.NewSibling()
	if err != nil {
		t.Fatal(err)
	}
	if len(sib.shards) != len(first.shards) {
		t.Fatalf("sibling has %d shards, first %d", len(sib.shards), len(first.shards))
	}
	for i := range sib.shards {
		if sib.shards[i] != first.shards[i] {
			t.Fatalf("sibling rebuilt shard %d instead of sharing it", i)
		}
	}
	if sib.plan != first.plan {
		t.Fatal("sibling rebuilt the shard plan")
	}
	seeds := []graph.VID{4, 90, 180, 240}
	a, err := first.Solve(seeds)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sib.Solve(seeds)
	if err != nil {
		t.Fatal(err)
	}
	assertResultsEquivalent(t, "sibling", b, a)
	// Closing the sibling must not disturb the first engine (shards are
	// shared but communicators are independent).
	sib.Close()
	if _, err := first.Solve(seeds); err != nil {
		t.Fatalf("first engine broken after sibling close: %v", err)
	}
}

// TestEngineShardStats checks the substrate report serving layers surface.
func TestEngineShardStats(t *testing.T) {
	g := engineTestGraph(101, 200)
	opts := Default(4)
	e, err := NewEngine(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	s := e.ShardStats()
	if s.Partition != opts.Partition.String() || s.Ranks != 4 {
		t.Fatalf("metadata wrong: %+v", s)
	}
	if s.ShardBytes <= 0 || s.MaxShardBytes <= 0 || s.MaxShardBytes > s.ShardBytes {
		t.Fatalf("shard byte accounting inconsistent: %+v", s)
	}
}

// TestEngineMemoryCountsResolvedColumnsAndGhostRows compares the engine's
// shard and slab accounting against sizes computed by hand on K8, arc-block
// partitioned over two ranks (every degree is 7, so the ranges are [0,4) and
// [4,8)). Every vertex neighbours every other, so each rank's ghosts are
// exactly the |V| − owned = 4 vertices it does not own.
func TestEngineMemoryCountsResolvedColumnsAndGhostRows(t *testing.T) {
	b := graph.NewBuilder(8)
	for u := graph.VID(0); u < 8; u++ {
		for v := u + 1; v < 8; v++ {
			b.AddEdge(u, v, uint32(u+v)+1)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(g, Options{Ranks: 2, Queue: rt.QueuePriority, Partition: PartitionArcBlock})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	const (
		owned, ghosts = 4, 4
		arcs          = owned * 7
		// offsets, then weights + resolved column (no target VIDs), the
		// ghost list; the row index is two numbers.
		shardBytes = (owned+1)*8 + arcs*(4+4) + ghosts*4
		// src + pred + dist + epoch + walked per owned row; dist + src + pred
		// + epoch per ghost row.
		slabBytes = owned*(4+4+8+8+8) + ghosts*(8+4+4+8)
	)
	s := e.ShardStats()
	if s.ShardBytes != 2*shardBytes || s.MaxShardBytes != shardBytes {
		t.Fatalf("shard bytes %d (max %d), by hand %d (max %d)", s.ShardBytes, s.MaxShardBytes, 2*shardBytes, shardBytes)
	}
	if s.StateSlabBytes != 2*slabBytes || s.MaxStateSlabBytes != slabBytes {
		t.Fatalf("slab bytes %d (max %d), by hand %d (max %d)", s.StateSlabBytes, s.MaxStateSlabBytes, 2*slabBytes, slabBytes)
	}
	res, err := e.Solve([]graph.VID{0, 5, 6})
	if err != nil {
		t.Fatal(err)
	}
	if res.Memory.ShardBytes != 2*shardBytes || res.Memory.StateBytes != 2*slabBytes {
		t.Fatalf("result memory reports shard %d / state %d bytes, by hand %d / %d",
			res.Memory.ShardBytes, res.Memory.StateBytes, 2*shardBytes, 2*slabBytes)
	}
}

// TestShardBytesPerArc pins the shard's footprint on the benchmark's
// traverse graph (R-MAT 2^15 × 16, seed 1) at its default engine options —
// two ranks, block partition: an arc costs 8 bytes (weight and resolved
// target), and offsets plus ghosts add well under one more.
func TestShardBytesPerArc(t *testing.T) {
	g := gen.Config{Name: "rmat", Kind: gen.KindRMAT, N: 1 << 15, AvgDegree: 16, MaxWeight: 5000,
		Backbone: true, Seed: 1}.MustBuild()
	e, err := NewEngine(g, Default(2))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	perArc := float64(e.ShardStats().ShardBytes) / float64(g.NumArcs())
	t.Logf("%d shard bytes over %d arcs: %.2f B/arc", e.ShardStats().ShardBytes, g.NumArcs(), perArc)
	if perArc > 8.7 {
		t.Fatalf("shards hold %.2f B/arc, want at most 8.7", perArc)
	}
}
