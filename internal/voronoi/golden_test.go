package voronoi

import (
	"fmt"
	"math/rand"
	"testing"

	"dsteiner/internal/gen"
	"dsteiner/internal/graph"
	"dsteiner/internal/partition"
	rt "dsteiner/internal/runtime"
)

// floodCounts is one flood's work as Fig. 5/6 and core.phase1_sent report it:
// the per-traversal counters summed over ranks, and Stats().Suppressed.
type floodCounts struct {
	sent, processed, replaced, suppressed int64
}

// goldenFlood runs one flood of g from seeds and returns its counts and the
// converged state. The runtime's balance — every message sent is processed,
// dropped by Admit or replaced in the queue — is checked on the way.
func goldenFlood(t *testing.T, g *graph.Graph, seeds []graph.VID, ranks int, q rt.QueueKind, bsp bool) (floodCounts, *State) {
	t.Helper()
	part, err := partition.NewBlock(g.NumVertices(), ranks)
	if err != nil {
		t.Fatal(err)
	}
	c := rt.MustNew(rt.Config{Ranks: ranks, Queue: q}, part)
	c.EnsureShards(g)
	slabs := EnsureSlabs(c, g)
	stats := make([]rt.TraversalStats, ranks)
	c.Run(func(r *rt.Rank) {
		if bsp {
			stats[r.ID()] = RunRankBSP(r, seeds)
		} else {
			stats[r.ID()] = RunRank(r, seeds)
		}
	})
	var got floodCounts
	for _, st := range stats {
		got.sent += st.Sent
		got.processed += st.Processed
		got.replaced += st.Replaced
	}
	got.suppressed = c.Stats().Suppressed
	if got.processed+got.replaced > got.sent {
		t.Fatalf("ranks=%d q=%v bsp=%v: %d processed + %d replaced of %d sent", ranks, q, bsp, got.processed, got.replaced, got.sent)
	}
	if q == rt.QueueFIFO && got.replaced != 0 {
		t.Fatalf("ranks=%d bsp=%v: the FIFO queue replaced %d entries", ranks, bsp, got.replaced)
	}
	return got, Collect(slabs, g.NumVertices())
}

// TestGoldenFloodCounters pins the flood's message counts, so a change to how
// the queue stores its entries cannot move what Fig. 5/6 and
// core.phase1_sent report. The graphs are a fixed R-MAT and a tie-heavy grid
// (weights 1–2), flooded from 12 seeds under both queues, asynchronous and
// BSP.
//
// One rank is pinned exactly: its flood has one schedule. With two or three
// ranks the counts depend on how the ranks' batches interleave — thirty runs
// of one configuration give up to thirty different tuples, BSP included,
// since batches from several senders land in a mailbox in arrival order — so
// those runs check the converged state against Sequential and the counters'
// balance instead.
func TestGoldenFloodCounters(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
		want map[rt.QueueKind][2]floodCounts // [async, BSP] at one rank
	}{
		{
			name: "rmat",
			g: gen.Config{Name: "rmat", Kind: gen.KindRMAT, N: 1 << 11, AvgDegree: 8, MaxWeight: 50,
				Backbone: true, Seed: 36}.MustBuild(),
			want: map[rt.QueueKind][2]floodCounts{
				rt.QueuePriority: {{3415, 2048, 1367, 0}, {4720, 4720, 0, 0}},
				rt.QueueFIFO:     {{6119, 6119, 0, 0}, {6119, 6119, 0, 0}},
			},
		},
		{
			name: "grid",
			g: gen.Config{Name: "grid", Kind: gen.KindGrid2D, N: 32 * 48, Rows: 32, Cols: 48, MaxWeight: 2,
				Seed: 36}.MustBuild(),
			want: map[rt.QueueKind][2]floodCounts{
				rt.QueuePriority: {{1739, 1536, 203, 0}, {1842, 1842, 0, 0}},
				rt.QueueFIFO:     {{2181, 2181, 0, 0}, {2181, 2181, 0, 0}},
			},
		},
	}
	for _, gg := range graphs {
		n := gg.g.NumVertices()
		seeds := pickSeeds(rand.New(rand.NewSource(36)), n, 12)
		want := Sequential(gg.g, seeds)
		for _, q := range []rt.QueueKind{rt.QueuePriority, rt.QueueFIFO} {
			for mode, bsp := range []bool{false, true} {
				for _, ranks := range []int{1, 2, 3} {
					label := fmt.Sprintf("%s q=%v bsp=%v ranks=%d", gg.name, q, bsp, ranks)
					got, st := goldenFlood(t, gg.g, seeds, ranks, q, bsp)
					if ranks == 1 && got != gg.want[q][mode] {
						t.Errorf("%s: (sent, processed, replaced, suppressed) = %v, want %v", label, got, gg.want[q][mode])
					}
					for v := 0; v < n; v++ {
						gs, gp, gd := st.Get(graph.VID(v))
						ws, wp, wd := want.Get(graph.VID(v))
						if gs != ws || gp != wp || gd != wd {
							t.Fatalf("%s: vertex %d is (%d,%d,%d), Sequential (%d,%d,%d)", label, v, gs, gp, gd, ws, wp, wd)
						}
					}
				}
			}
		}
	}
}
