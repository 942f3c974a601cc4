package core

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"dsteiner/internal/graph"
	rt "dsteiner/internal/runtime"
)

// assertResultsEquivalent compares the solver-output parts of two Results
// byte for byte: tree, total distance, canonical seeds, Steiner vertex
// count and distance-graph size. Phase timings and memory accounting are
// measurement, not output, and legitimately differ between the sharded and
// global-CSR substrates.
func assertResultsEquivalent(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if !reflect.DeepEqual(got.Tree, want.Tree) {
		t.Fatalf("%s: trees differ\nsharded %v\nglobal  %v", label, got.Tree, want.Tree)
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

// TestShardedEngineMatchesGlobalCSR is the shard-equivalence acceptance
// test: for every partition kind × delegate threshold × {async, BSP}, the
// sharded engine (rank-local CSR slabs + materialized delegate stripes)
// returns results byte-identical to the retained pre-refactor global-CSR
// reference path.
func TestShardedEngineMatchesGlobalCSR(t *testing.T) {
	g := engineTestGraph(91, 350)
	rng := rand.New(rand.NewSource(92))
	seedSets := [][]graph.VID{
		pickEngineSeeds(rng, g.NumVertices(), 3),
		pickEngineSeeds(rng, g.NumVertices(), 8),
		pickEngineSeeds(rng, g.NumVertices(), 16),
	}
	for _, kind := range []PartitionKind{PartitionBlock, PartitionHash, PartitionArcBlock} {
		for _, threshold := range []int{0, 6} {
			for _, bsp := range []bool{false, true} {
				opts := Options{
					Ranks:             4,
					Queue:             rt.QueuePriority,
					Partition:         kind,
					DelegateThreshold: threshold,
					BSP:               bsp,
				}
				sharded, err := NewEngine(g, opts)
				if err != nil {
					t.Fatal(err)
				}
				globalOpts := opts
				globalOpts.GlobalCSR = true
				global, err := NewEngine(g, globalOpts)
				if err != nil {
					sharded.Close()
					t.Fatal(err)
				}
				for _, seeds := range seedSets {
					got, err := sharded.Solve(seeds)
					if err != nil {
						t.Fatalf("%v thr=%d bsp=%v: sharded: %v", kind, threshold, bsp, err)
					}
					want, err := global.Solve(seeds)
					if err != nil {
						t.Fatalf("%v thr=%d bsp=%v: global: %v", kind, threshold, bsp, err)
					}
					label := kind.String()
					if bsp {
						label += "+bsp"
					}
					assertResultsEquivalent(t, label, got, want)
					// The global reference holds no shards; the sharded
					// engine must account them.
					if want.Memory.ShardBytes != 0 {
						t.Fatalf("%s: global path reports %d shard bytes", label, want.Memory.ShardBytes)
					}
					if got.Memory.ShardBytes <= 0 {
						t.Fatalf("%s: sharded path reports no shard memory", label)
					}
				}
				sharded.Close()
				global.Close()
			}
		}
	}
}

// TestPropertyShardedEquivalence fuzzes the same equivalence across random
// graphs, rank counts and queue disciplines.
func TestPropertyShardedEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := engineTestGraph(seed, 60+rng.Intn(200))
		seeds := pickEngineSeeds(rng, g.NumVertices(), 2+rng.Intn(6))
		opts := Options{
			Ranks:             1 + rng.Intn(6),
			Queue:             []rt.QueueKind{rt.QueueFIFO, rt.QueuePriority, rt.QueueBucket}[rng.Intn(3)],
			Partition:         []PartitionKind{PartitionBlock, PartitionHash, PartitionArcBlock}[rng.Intn(3)],
			DelegateThreshold: []int{0, 4, 12}[rng.Intn(3)],
			BSP:               rng.Intn(2) == 0,
		}
		got, err := Solve(g, seeds, opts)
		if err != nil {
			t.Logf("seed %d: sharded: %v", seed, err)
			return false
		}
		globalOpts := opts
		globalOpts.GlobalCSR = true
		want, err := Solve(g, seeds, globalOpts)
		if err != nil {
			t.Logf("seed %d: global: %v", seed, err)
			return false
		}
		return reflect.DeepEqual(got.Tree, want.Tree) &&
			got.TotalDistance == want.TotalDistance &&
			reflect.DeepEqual(got.Seeds, want.Seeds)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestNewSiblingSharesShards checks that sibling engines share one
// immutable shard set (the engine-pool memory property) while solving
// independently and identically.
func TestNewSiblingSharesShards(t *testing.T) {
	g := engineTestGraph(113, 250)
	opts := Default(3)
	opts.DelegateThreshold = 6
	first, err := NewEngine(g, opts)
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
	opts.DelegateThreshold = 5
	e, err := NewEngine(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	s := e.ShardStats()
	if s.Partition != "arcblock" || s.Ranks != 4 || s.DelegateThreshold != 5 {
		t.Fatalf("metadata wrong: %+v", s)
	}
	if s.Delegates == 0 {
		t.Fatalf("threshold 5 on a random graph marked no delegates: %+v", s)
	}
	if s.ShardBytes <= 0 || s.MaxShardBytes <= 0 || s.MaxShardBytes > s.ShardBytes {
		t.Fatalf("shard byte accounting inconsistent: %+v", s)
	}

	globalOpts := opts
	globalOpts.GlobalCSR = true
	ge, err := NewEngine(g, globalOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer ge.Close()
	gs := ge.ShardStats()
	if gs.ShardBytes != 0 || gs.Delegates != 0 {
		t.Fatalf("global reference engine reports shards: %+v", gs)
	}
}

// TestEngineMemoryCountsResolvedColumnsAndGhostRows compares the engine's
// shard and slab accounting against sizes computed by hand on K8, hash
// partitioned over two ranks. Every vertex neighbours every other, so each
// rank's ghosts are exactly the |V| − owned = 4 vertices it does not own —
// the usual picture under hash partitioning, where ghost rows outnumber
// owned rows as soon as P > 2.
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
	e, err := NewEngine(g, Options{Ranks: 2, Queue: rt.QueuePriority, Partition: PartitionHash})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	const (
		owned, ghosts = 4, 4
		arcs          = owned * 7
		// offsets, then targets + weights + resolved column, the empty
		// stripe's one offset, the ghost list; the affine row index is free.
		shardBytes = (owned+1)*8 + arcs*(4+4+4) + 8 + ghosts*4
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
