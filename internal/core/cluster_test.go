package core

import (
	"fmt"
	"strings"
	"testing"

	"dsteiner/internal/gen"
	"dsteiner/internal/transport"
	"dsteiner/internal/voronoi"
	"dsteiner/internal/wire"
)

// TestClusterShardStatsMatchLoopback checks the TCP coordinator's memory
// accounting, which sizes every rank from its range of the graph without
// building a shard or slab, against a loopback engine's, read off the shards
// and slabs it built, on one graph: for 2 workers hosting a rank each and
// for 3 workers over 4 ranks. The workers' Ready totals must agree with
// both; the coordinator holds them to its accounting (checkReadys), and this
// recomputes them from the loopback engine's shards and slabs.
func TestClusterShardStatsMatchLoopback(t *testing.T) {
	g := gen.Config{Name: "rmat", Kind: gen.KindRMAT, N: 1 << 10, AvgDegree: 8, MaxWeight: 100,
		Backbone: true, Seed: 5}.MustBuild()
	for _, c := range []struct{ workers, ranks int }{{2, 2}, {3, 4}} {
		t.Run(fmt.Sprintf("workers=%d,ranks=%d", c.workers, c.ranks), func(t *testing.T) {
			loop, err := NewEngine(g, Default(c.ranks))
			if err != nil {
				t.Fatal(err)
			}
			defer loop.Close()
			tcp, shutdown := startChaosFleet(t, g, Default(c.ranks), c.workers, nil)
			defer shutdown(true)
			want := loop.ShardStats()
			if got := tcp.ShardStats(); got != want {
				t.Fatalf("tcp ShardStats %+v, loopback %+v", got, want)
			}
			if want.ShardBytes <= 0 || want.StateSlabBytes <= 0 || want.Ranks != c.ranks {
				t.Fatalf("loopback ShardStats %+v is empty", want)
			}

			slabs := make([]*voronoi.StateSlab, c.ranks)
			for rank := range slabs {
				slabs[rank] = loop.host.pools[rank].slab
			}
			built := builtBytes(loop.shards, slabs)
			rankLo := transport.SplitRanks(c.ranks, c.workers)
			ranges := func(w int) (lo, hi int) { return int(rankLo[w]), int(rankLo[w+1]) }
			readys := make([]wire.Ready, c.workers)
			for w := range readys {
				lo, hi := ranges(w)
				for _, b := range built[lo:hi] {
					readys[w].ShardBytes += b.shard
					readys[w].StateBytes += b.state
				}
			}
			if err := checkReadys(readys, ranges, rangeBytes(g, loop.plan)); err != nil {
				t.Fatalf("Ready totals of the loopback substrate refused: %v", err)
			}
			readys[c.workers-1].StateBytes += 24
			err = checkReadys(readys, ranges, rangeBytes(g, loop.plan))
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("worker %d", c.workers-1)) {
				t.Fatalf("a Ready one ghost row off: err %v, want it naming worker %d", err, c.workers-1)
			}
		})
	}
}

// BenchmarkClusterHandshake builds and closes a BackendTCP engine over a
// loopback fleet of two in-process workers on R-MAT 2^15 × 16, the
// traverse-tcp benchmark graph (2^11 under -short): listen, dial-in, every
// worker's Setup streamed and decoded, both workers' shards, slabs and halo
// plans built, the mesh up, then the goodbye. B/op counts coordinator and
// workers together.
func BenchmarkClusterHandshake(b *testing.B) {
	n := 1 << 15
	if testing.Short() {
		n = 1 << 11
	}
	g := gen.Config{Name: "rmat", Kind: gen.KindRMAT, N: n, AvgDegree: 16, MaxWeight: 5000,
		Backbone: true, Seed: 1}.MustBuild()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, shutdown := startChaosFleet(b, g, Default(2), 2, nil)
		shutdown(true)
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N), "ms/op")
}
