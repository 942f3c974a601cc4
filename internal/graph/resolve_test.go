package graph_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"dsteiner/internal/graph"
	"dsteiner/internal/partition"
)

// TestPropertyResolvedColumn pins the per-arc resolved targets over every
// partition kind with and without delegates: each slab and stripe arc
// decodes back to its target VID, a target is resolved to a row iff the rank
// owns it, ghost slots are dense with exactly one per distinct remote
// target, and a shard rebuilt from its wire slices — the rankd worker path —
// resolves identically.
func TestPropertyResolvedColumn(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	const n, p = 180, 4
	b := graph.NewBuilder(n)
	for v := 1; v < n; v++ {
		b.AddEdge(graph.VID(rng.Intn(v)), graph.VID(v), uint32(rng.Intn(20))+1)
	}
	for i := 0; i < 3*n; i++ {
		// Squared draws skew degrees so the delegate threshold selects some.
		u := graph.VID(rng.Intn(n) * rng.Intn(n) / n)
		b.AddEdge(u, graph.VID(rng.Intn(n)), uint32(rng.Intn(20))+1)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	blk, _ := partition.NewBlock(n, p)
	hsh, _ := partition.NewHash(n, p)
	arc, err := partition.NewArcBlock(g, p)
	if err != nil {
		t.Fatal(err)
	}
	for name, base := range map[string]partition.Partition{"block": blk, "hash": hsh, "arcblock": arc} {
		for _, threshold := range []int{0, 10} {
			part := base
			if threshold > 0 {
				part = partition.WithDelegates(base, g, threshold)
			}
			plan, err := partition.NewShardPlan(part, g)
			if err != nil {
				t.Fatal(err)
			}
			if (plan.NumDelegates() > 0) != (threshold > 0) {
				t.Fatalf("%s threshold %d: %d delegates", name, threshold, plan.NumDelegates())
			}
			ghosts, stripeArcs := 0, int64(0)
			for rank, sh := range plan.BuildShards(g) {
				ghosts += sh.NumGhosts()
				stripeArcs += sh.NumStripeArcs()
				label := fmt.Sprintf("%s threshold %d rank %d", name, threshold, rank)
				checkResolved(t, label, sh, plan)

				owned, offsets, targets, weights, stripeOff, stripeTargets, stripeWeights := sh.Slices()
				rebuilt := graph.NewShardFromSlices(rank, p, owned, offsets, targets, weights,
					plan.Delegates(), stripeOff, stripeTargets, stripeWeights)
				checkResolved(t, label+" (from slices)", rebuilt, plan)
				if rebuilt.NumGhosts() != sh.NumGhosts() || rebuilt.MemoryBytes() != sh.MemoryBytes() {
					t.Fatalf("%s: rebuilt shard has %d ghosts / %d bytes, original %d / %d", label,
						rebuilt.NumGhosts(), rebuilt.MemoryBytes(), sh.NumGhosts(), sh.MemoryBytes())
				}
				for i := 0; i < sh.NumOwned(); i++ {
					_, _, a := sh.RowArcs(int32(i))
					_, _, b := rebuilt.RowArcs(int32(i))
					if !reflect.DeepEqual(a, b) {
						t.Fatalf("%s: row %d resolves differently after the wire round trip", label, i)
					}
				}
				for _, d := range plan.Delegates() {
					_, _, a := sh.StripeArcs(d)
					_, _, b := rebuilt.StripeArcs(d)
					if !reflect.DeepEqual(a, b) {
						t.Fatalf("%s: stripe of %d resolves differently after the wire round trip", label, d)
					}
				}
			}
			if ghosts == 0 || (stripeArcs > 0) != (threshold > 0) {
				t.Fatalf("%s threshold %d: vacuous, %d ghosts and %d stripe arcs", name, threshold, ghosts, stripeArcs)
			}
		}
	}
}

// checkResolved checks one shard's resolved columns against its targets.
func checkResolved(t *testing.T, label string, sh *graph.Shard, plan *partition.ShardPlan) {
	t.Helper()
	rows := sh.Rows()
	remote := map[graph.VID]bool{}
	check := func(ts []graph.VID, refs []int32) {
		t.Helper()
		if len(refs) != len(ts) {
			t.Fatalf("%s: %d refs for %d arcs", label, len(refs), len(ts))
		}
		for j, u := range ts {
			ref := refs[j]
			if (ref >= 0) != (rows.Row(u) >= 0) {
				t.Fatalf("%s: target %d resolved to %d, row %d", label, u, ref, rows.Row(u))
			}
			if ref >= 0 && rows.VertexAt(int(ref)) != u {
				t.Fatalf("%s: target %d resolved to row %d = vertex %d", label, u, ref, rows.VertexAt(int(ref)))
			}
			if ref < 0 {
				if slot := int(^ref); slot >= sh.NumGhosts() || sh.GhostAt(slot) != u {
					t.Fatalf("%s: target %d resolved to ghost slot %d of %d", label, u, slot, sh.NumGhosts())
				}
				remote[u] = true
			}
			if sh.Ref(u) != ref {
				t.Fatalf("%s: Ref(%d) = %d, arc column says %d", label, u, sh.Ref(u), ref)
			}
		}
	}
	for i := 0; i < sh.NumOwned(); i++ {
		ts, _, refs := sh.RowArcs(int32(i))
		check(ts, refs)
	}
	for _, d := range plan.Delegates() {
		ts, _, refs := sh.StripeArcs(d)
		check(ts, refs)
	}
	// Dense and one slot each: as many slots as distinct remote targets, and
	// strictly increasing, so no vertex holds two.
	if sh.NumGhosts() != len(remote) {
		t.Fatalf("%s: %d ghost slots for %d distinct remote targets", label, sh.NumGhosts(), len(remote))
	}
	for i := 1; i < sh.NumGhosts(); i++ {
		if sh.GhostAt(i-1) >= sh.GhostAt(i) {
			t.Fatalf("%s: ghost list not strictly increasing at slot %d", label, i)
		}
	}
}
