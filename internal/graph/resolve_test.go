package graph_test

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"dsteiner/internal/graph"
	"dsteiner/internal/partition"
)

// TestPropertyResolvedColumn pins the per-arc resolved targets over every
// partition kind (checkShards), and that the cases are not vacuous: some
// ranks have ghosts.
func TestPropertyResolvedColumn(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	const n, p = 180, 4
	b := graph.NewBuilder(n)
	for v := 1; v < n; v++ {
		b.AddEdge(graph.VID(rng.Intn(v)), graph.VID(v), uint32(rng.Intn(20))+1)
	}
	for i := 0; i < 3*n; i++ {
		// Squared draws skew degrees, as on the scale-free graphs.
		u := graph.VID(rng.Intn(n) * rng.Intn(n) / n)
		b.AddEdge(u, graph.VID(rng.Intn(n)), uint32(rng.Intn(20))+1)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{"block", "arcblock"} {
		if ghosts := checkShards(t, kind, g, shardTestPlan(t, g, kind, p)); ghosts == 0 {
			t.Fatalf("%s: vacuous, no ghosts", kind)
		}
	}
}

// FuzzShardResolve runs checkShards on arbitrary small graphs: the first
// two bytes pick |V| (2–41) and the rank count (1–4), and every following
// triple is an edge. Each graph is cut under
// both partition kinds.
func FuzzShardResolve(f *testing.F) {
	f.Add([]byte{10, 2, 0, 1, 5, 1, 2, 3, 2, 3, 1, 0, 9, 4})
	f.Add([]byte{12, 3, 0, 1, 1, 0, 2, 1, 0, 3, 1, 0, 4, 1, 5, 6, 2, 7, 11, 3})
	f.Add([]byte{40, 4, 0, 39, 1, 39, 20, 2, 20, 1, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n, p := 2+int(data[0])%40, 1+int(data[1])%4
		b := graph.NewBuilder(n)
		for data = data[2:]; len(data) >= 3; data = data[3:] {
			b.AddEdge(graph.VID(int(data[0])%n), graph.VID(int(data[1])%n), uint32(data[2])%30+1)
		}
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range []string{"block", "arcblock"} {
			checkShards(t, fmt.Sprintf("%s p=%d", kind, p), g, shardTestPlan(t, g, kind, p))
		}
	})
}

// shardTestPlan cuts g over p ranks with the named partition kind.
func shardTestPlan(t *testing.T, g *graph.Graph, kind string, p int) *partition.ShardPlan {
	t.Helper()
	part, err := partition.NewBlock(g.NumVertices(), p)
	if kind == "arcblock" {
		part, err = partition.NewArcBlock(g, p)
	}
	if err != nil {
		t.Fatal(err)
	}
	plan, err := partition.NewShardPlan(part, g)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// checkShards builds every rank's shard of plan twice — from g (NewShard, via
// plan.BuildShards) and from its raw slices (CutShard, NewShardFromSlices:
// the rankd worker path) — and checks both against g: Target(refs[j])
// reproduces g.Adj's arcs in order; the weights, refs and
// MemoryBytes of the two builds agree; a target resolves to a row iff the
// rank owns it, and Ref inverts Target; ghost slots are dense and strictly
// increasing, one per distinct remote target; and EdgeWeight agrees with
// g.HasEdge for every owned vertex against every vertex, present or absent.
// It returns the total ghost count.
func checkShards(t *testing.T, label string, g *graph.Graph, plan *partition.ShardPlan) (ghosts int) {
	t.Helper()
	for rank, sh := range plan.BuildShards(g) {
		lo, hi := plan.Range(rank)
		offsets, targets, weights := graph.CutShard(g, lo, hi)
		rebuilt, err := graph.NewShardFromSlices(g.NumVertices(), rank, plan.NumRanks(), lo, hi, offsets, targets, weights)
		if err != nil {
			t.Fatalf("%s rank %d: CutShard's own slices rejected: %v", label, rank, err)
		}
		label := fmt.Sprintf("%s rank %d", label, rank)
		if rebuilt.NumGhosts() != sh.NumGhosts() || rebuilt.MemoryBytes() != sh.MemoryBytes() {
			t.Fatalf("%s: rebuilt shard has %d ghosts / %d bytes, original %d / %d", label,
				rebuilt.NumGhosts(), rebuilt.MemoryBytes(), sh.NumGhosts(), sh.MemoryBytes())
		}
		ghosts += sh.NumGhosts()

		remote := map[graph.VID]bool{}
		check := func(what string, ws, rws []uint32, refs, rrefs []int32, gts []graph.VID, gws []uint32) {
			t.Helper()
			if !reflect.DeepEqual(ws, rws) || !reflect.DeepEqual(refs, rrefs) {
				t.Fatalf("%s: %s resolves differently from the raw slices", label, what)
			}
			if len(refs) != len(gts) || len(ws) != len(gts) {
				t.Fatalf("%s: %s has %d refs and %d weights for %d arcs", label, what, len(refs), len(ws), len(gts))
			}
			for j, ref := range refs {
				u := sh.Target(ref)
				if u != gts[j] || ws[j] != gws[j] {
					t.Fatalf("%s: %s arc %d is (%d,%d), graph (%d,%d)", label, what, j, u, ws[j], gts[j], gws[j])
				}
				if (ref >= 0) != sh.Owns(u) {
					t.Fatalf("%s: target %d resolved to %d, owned %v", label, u, ref, sh.Owns(u))
				}
				if got := refOf(sh, u); got != ref {
					t.Fatalf("%s: %d resolves to %d by its row or ghost slot, arc column says %d", label, u, got, ref)
				}
				if ref < 0 {
					if int(^ref) >= sh.NumGhosts() {
						t.Fatalf("%s: target %d resolved to ghost slot %d of %d", label, u, ^ref, sh.NumGhosts())
					}
					remote[u] = true
				}
			}
		}
		for v := lo; v < hi; v++ {
			i := v - lo
			ws, refs := sh.RowArcs(int32(i))
			rws, rrefs := rebuilt.RowArcs(int32(i))
			gts, gws := g.Adj(v)
			check(fmt.Sprintf("row of %d", v), ws, rws, refs, rrefs, gts, gws)
			for u := graph.VID(0); int(u) < g.NumVertices(); u++ {
				w, ok := sh.EdgeWeight(v, u)
				gw, gok := g.HasEdge(v, u)
				if w != gw || ok != gok {
					t.Fatalf("%s: EdgeWeight(%d,%d) = (%d,%v), graph (%d,%v)", label, v, u, w, ok, gw, gok)
				}
			}
		}
		// Dense and one slot each: as many slots as distinct remote targets,
		// and strictly increasing, so no vertex holds two.
		if sh.NumGhosts() != len(remote) {
			t.Fatalf("%s: %d ghost slots for %d distinct remote targets", label, sh.NumGhosts(), len(remote))
		}
		for i := int32(1); int(i) < sh.NumGhosts(); i++ {
			if sh.Target(^(i - 1)) >= sh.Target(^i) {
				t.Fatalf("%s: ghost list not strictly increasing at slot %d", label, i)
			}
		}
	}
	return ghosts
}

// refOf resolves v the way the arc columns do, from the row index and a
// binary search over the ghost slots' vertices: v's owned row, or the
// complement of its ghost slot; 0 when no local arc leads to v, which no
// caller passes.
func refOf(sh *graph.Shard, v graph.VID) int32 {
	if i := sh.Rows().Row(v); i >= 0 {
		return i
	}
	g, ok := sort.Find(sh.NumGhosts(), func(g int) int { return cmp.Compare(v, sh.Target(^int32(g))) })
	if !ok {
		return 0
	}
	return ^int32(g)
}
