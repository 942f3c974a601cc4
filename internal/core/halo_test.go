package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"dsteiner/internal/gen"
	"dsteiner/internal/graph"
	rt "dsteiner/internal/runtime"
	"dsteiner/internal/voronoi"
	"dsteiner/internal/wire"
)

// TestPhase2SendsOnePushPerBoundaryVertex pins phase 2's message count to the
// halo it has to move, computed from the global graph: one label per pair
// (vertex v, peer q ≠ owner(v)) such that q owns a neighbour u < v — the
// peers that initiate one of v's arcs — reached or not, because the halo is
// planned per session, not per query. The request/reply exchange sent two
// per cross-rank arc. Async and BSP, tree and forest mode, three graph
// shapes; the random graph has a component no seed reaches, which must
// record no candidate.
func TestPhase2SendsOnePushPerBoundaryVertex(t *testing.T) {
	island := func() *graph.Graph {
		rng := rand.New(rand.NewSource(61))
		b := graph.NewBuilder(330)
		for v := 1; v < 330; v++ {
			if v == 300 {
				continue // 300..329 hang together, apart from 0..299
			}
			lo := 0
			if v > 300 {
				lo = 300
			}
			b.AddEdge(graph.VID(lo+rng.Intn(v-lo)), graph.VID(v), uint32(rng.Intn(40))+1)
		}
		for i := 0; i < 700; i++ {
			b.AddEdge(graph.VID(rng.Intn(300)), graph.VID(rng.Intn(300)), uint32(rng.Intn(40))+1)
		}
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	cases := []struct {
		name  string
		g     *graph.Graph
		kind  PartitionKind
		ranks int
		pool  int // terminals are drawn from vertices below this
	}{
		{"random+island/arcblock", island(), PartitionArcBlock, 3, 300},
		{"grid/block", gen.Config{Name: "grid", Kind: gen.KindGrid2D, N: 16 * 24, Rows: 16, Cols: 24, MaxWeight: 9, Seed: 62}.MustBuild(), PartitionBlock, 4, 16 * 24},
		{"rmat/arcblock", gen.Config{Name: "rmat", Kind: gen.KindRMAT, N: 1 << 9, AvgDegree: 8, MaxWeight: 100, Backbone: true, Seed: 63}.MustBuild(), PartitionArcBlock, 2, 1 << 9},
	}
	for _, tc := range cases {
		for _, bsp := range []bool{false, true} {
			label := fmt.Sprintf("%s bsp=%v", tc.name, bsp)
			e, err := NewEngine(tc.g, Options{Ranks: tc.ranks, Queue: rt.QueuePriority, Partition: tc.kind, BSP: bsp})
			if err != nil {
				t.Fatal(err)
			}
			seeds := pickSeeds(rand.New(rand.NewSource(64)), tc.pool, 6)
			st := voronoi.Sequential(tc.g, seeds)
			want := haloPushes(tc.g, e.host.comm.Partition().Owner)
			if want == 0 {
				t.Fatalf("%s: vacuous, no boundary vertex to push", label)
			}
			for _, spec := range []QuerySpec{
				TreeSpec(seeds),
				{Mode: ModeForest, Groups: [][]graph.VID{seeds}},
			} {
				res, err := e.SolveSpec(spec)
				if err != nil {
					t.Fatalf("%s %v: %v", label, spec.Mode, err)
				}
				if got := res.Phase(PhaseLocalMinEdge).Sent; got != want {
					t.Fatalf("%s %v: phase 2 sent %d messages, the halo is %d", label, spec.Mode, got, want)
				}
				for rank, pool := range e.host.pools {
					for _, rec := range pool.localEN.recs {
						if !st.Reached(rec.U) || !st.Reached(rec.V) {
							t.Fatalf("%s %v: rank %d recorded {%d, %d}, an edge no seed reaches", label, spec.Mode, rank, rec.U, rec.V)
						}
					}
				}
			}
			e.Close()
		}
	}
}

// haloPushes counts the (vertex, peer) pairs phase 2 has to push.
func haloPushes(g *graph.Graph, owner func(graph.VID) int) int64 {
	var pushes int64
	for v := graph.VID(0); int(v) < g.NumVertices(); v++ {
		peers := map[int]bool{}
		adj, _ := g.Adj(v)
		for _, u := range adj {
			if q := owner(u); u < v && q != owner(v) {
				peers[q] = true
			}
		}
		pushes += int64(len(peers))
	}
	return pushes
}

// haloGraph is a random graph with a hub at its top vertex and an island
// [40, 60) that spans rank ranges and that no seed outside it reaches.
func haloGraph() *graph.Graph {
	const n = 120
	rng := rand.New(rand.NewSource(66))
	island := func(v int) bool { return v >= 40 && v < 60 }
	b := graph.NewBuilder(n)
	for v := 1; v < n; v++ {
		if v == 40 {
			continue
		}
		u := rng.Intn(v)
		for island(u) != island(v) {
			u = rng.Intn(v)
		}
		b.AddEdge(graph.VID(u), graph.VID(v), uint32(rng.Intn(20))+1)
	}
	for i := 0; i < 200; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if island(u) == island(v) {
			b.AddEdge(graph.VID(u), graph.VID(v), uint32(rng.Intn(20))+1)
		}
	}
	for i := 0; i < 60; i++ {
		if u := rng.Intn(n - 1); !island(u) {
			b.AddEdge(graph.VID(u), n-1, uint32(rng.Intn(20))+1)
		}
	}
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// TestPropertyHaloPlan checks the static halo against the global graph over
// both partition kinds and rank counts with empty ranges among them: each
// sender's list for a peer names the same
// vertices in the same order as that peer's receive list (blobs land by
// position), every arc the scan walks is exactly an arc to a higher vertex,
// and after a solve every ghost label the scan reads is voronoi.Sequential's.
func TestPropertyHaloPlan(t *testing.T) {
	// Six vertices leave both partition kinds some ranks with none at 8.
	tiny := graph.NewBuilder(6)
	for v := 1; v < 6; v++ {
		tiny.AddEdge(graph.VID(v-1), graph.VID(v), uint32(v))
	}
	tiny.AddEdge(0, 4, 3)
	small, err := tiny.Build()
	if err != nil {
		t.Fatal(err)
	}
	var empty, unreached, ghosts int
	for _, tc := range []struct {
		g     *graph.Graph
		seeds []graph.VID
	}{
		{haloGraph(), []graph.VID{3, 17, 33, 70, 95, 118}},
		{small, []graph.VID{0, 5}},
	} {
		testHaloPlan(t, tc.g, tc.seeds, &empty, &unreached, &ghosts)
	}
	if empty == 0 || unreached == 0 || ghosts == 0 {
		t.Fatalf("vacuous: %d empty ranks, %d ghost reads, %d of them unreached", empty, ghosts, unreached)
	}
}

// testHaloPlan is TestPropertyHaloPlan on one graph and query; it adds the
// empty ranks, ghost reads and unreached ghost reads it saw to the counts.
func testHaloPlan(t *testing.T, g *graph.Graph, seeds []graph.VID, empty, unreached, ghosts *int) {
	st := voronoi.Sequential(g, seeds)
	for _, kind := range []PartitionKind{PartitionBlock, PartitionArcBlock} {
		for _, ranks := range []int{1, 2, 3, 5, 8} {
			label := fmt.Sprintf("%v/%d ranks", kind, ranks)
			e, err := NewEngine(g, Options{Ranks: ranks, Queue: rt.QueuePriority, Partition: kind})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e.Solve(seeds); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			for r, sh := range e.shards {
				plan, sl := e.host.pools[r].halo, e.slabs[r]
				if sh.NumOwned() == 0 {
					*empty++
				}
				for q := range ranks {
					send, recv := plan.send[q], e.host.pools[q].halo.recv[r]
					if len(send) != len(recv) {
						t.Fatalf("%s: rank %d sends %d labels to rank %d, which has %d slots for them", label, r, len(send), q, len(recv))
					}
					for k, i := range send {
						if v, w := sh.Rows().VertexAt(int(i)), e.shards[q].Target(^recv[k]); v != w {
							t.Fatalf("%s: rank %d's label %d to rank %d is vertex %d, lands on ghost %d", label, r, k, q, v, w)
						}
					}
				}
				for i := int32(0); int(i) < sh.NumOwned(); i++ {
					u := sh.Rows().VertexAt(int(i))
					_, refs := sh.RowArcs(i)
					for _, ref := range refs {
						v := sh.Target(ref)
						if scanned := ref >= 0 && ref > i || ref < 0 && ^ref >= plan.high; scanned != (v > u) {
							t.Fatalf("%s: arc {%d, %d} scanned %v", label, u, v, scanned)
						}
						if ref >= 0 || v < u {
							continue
						}
						*ghosts++
						if !st.Reached(v) {
							*unreached++
						}
						if src, dist := sl.Label(ref); src != st.Src(v) || dist != st.Dist(v) {
							t.Fatalf("%s: rank %d reads ghost %d as (%d, %d), sequential (%d, %d)",
								label, r, v, src, dist, st.Src(v), st.Dist(v))
						}
					}
				}
			}
			e.Close()
		}
	}
}

// haloFixture is a solved 3-rank engine on a 6×8 grid and an environment for
// a query over three of its vertices, to drive rank 0's halo decoder by
// hand. Rank 0 owns the grid's first two rows and gets labels from rank 1
// only.
func haloFixture(t testing.TB) (*Engine, *solveEnv) {
	g := gen.Config{Name: "grid", Kind: gen.KindGrid2D, N: 6 * 8, Rows: 6, Cols: 8, MaxWeight: 9, Seed: 65}.MustBuild()
	e, err := NewEngine(g, Default(3))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	env := &solveEnv{rankHost: e.host, dedup: []graph.VID{3, 20, 41}, res: &Result{}}
	e.host.seeds.reset()
	for i, s := range env.dedup {
		e.host.seeds.put(int64(s), int32(i))
	}
	if len(e.host.pools[0].halo.recv[1]) == 0 || len(e.host.pools[0].halo.recv[2]) != 0 {
		t.Fatal("rank 0 should get labels from rank 1 alone")
	}
	return e, env
}

// haloBlob encodes labels the way haloPhase2 packs them.
func haloBlob(labels ...[2]int64) []byte {
	var b []byte
	for _, l := range labels {
		b = binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint32(b, uint32(l[0])), uint64(l[1]))
	}
	return b
}

// TestHaloDecoderRefusesCorruptBlobs: a halo blob lands by position, so one
// of the wrong length, from a rank that sends this rank nothing, or naming a
// seed outside the query or a negative distance is refused as corrupt; a
// sound one writes its labels, and an unreached one leaves its slot none.
func TestHaloDecoderRefusesCorruptBlobs(t *testing.T) {
	e, env := haloFixture(t)
	sl, recv := e.slabs[0], e.host.pools[0].halo.recv
	n := len(recv[1])
	labels := make([][2]int64, n)
	for k := range labels {
		labels[k] = [2]int64{20, int64(k)}
	}
	labels[0] = [2]int64{int64(graph.NilVID), int64(graph.InfDist)}
	good := haloBlob(labels...)
	sl.BeginHalo()
	if err := env.readHalo(sl, recv, rt.Blob{Src: 1, Blob: good}); err != nil {
		t.Fatal(err)
	}
	for k, g := range recv[1] {
		src, dist := sl.Label(^g)
		if want := labels[k]; k > 0 && (src != 20 || dist != graph.Dist(want[1])) || k == 0 && src != graph.NilVID {
			t.Fatalf("slot %d reads (%d, %d), sent %v", g, src, dist, labels[k])
		}
	}
	bad := func(k int, src, dist int64) []byte {
		ls := slices.Clone(labels)
		ls[k] = [2]int64{src, dist}
		return haloBlob(ls...)
	}
	for _, tc := range []struct {
		name string
		src  int
		blob []byte
	}{
		{"truncated by a record", 1, good[:len(good)-haloRecord]},
		{"truncated mid-record", 1, good[:len(good)-1]},
		{"oversized", 1, append(slices.Clone(good), good[:haloRecord]...)},
		{"seed not a terminal", 1, bad(n-1, 4, 9)},
		{"negative distance", 1, bad(n-1, 41, -1)},
		{"from a rank with no slots here", 2, good},
		{"from no rank", 7, good},
	} {
		if err := env.readHalo(sl, recv, rt.Blob{Src: tc.src, Blob: tc.blob}); !errors.Is(err, wire.ErrCorrupt) {
			t.Errorf("%s: %v, want a corrupt-input error", tc.name, err)
		}
	}
}

// TestCorruptHaloFailsTheSolve breaks one rank's halo plan so its blob to
// rank 0 is short or long: every rank must bail after phase 2 — a rank that
// went on would wait forever in phase 3 — the solve must fail as corrupt,
// and the engine must answer as before once the plan is whole again.
func TestCorruptHaloFailsTheSolve(t *testing.T) {
	e, _ := haloFixture(t)
	seeds := []graph.VID{3, 20, 41}
	want, err := e.Solve(seeds)
	if err != nil {
		t.Fatal(err)
	}
	plan := &e.host.pools[1].halo
	whole := plan.send[0]
	for name, send := range map[string][]int32{
		"short": whole[:len(whole)-1],
		"long":  append(slices.Clip(whole), whole[0]),
	} {
		plan.send[0] = send
		if _, err := e.Solve(seeds); err == nil || !strings.Contains(err.Error(), "corrupt") {
			t.Fatalf("%s blob: solve error %v, want corrupt", name, err)
		}
		plan.send[0] = whole
		got, err := e.Solve(seeds)
		if err != nil || !slices.Equal(got.Tree, want.Tree) {
			t.Fatalf("after a %s blob: %v, %v, want %v", name, got, err, want.Tree)
		}
	}
}

// FuzzHaloLabels: whatever blob rank 0 is handed, from whichever sender,
// the decoder either refuses it or writes only labels naming a query
// terminal at a distance that is not negative, and only into the slots the
// sender's list maps to; a refused blob may have written a prefix of them.
func FuzzHaloLabels(f *testing.F) {
	e, env := haloFixture(f)
	sl, sh, recv := e.slabs[0], e.shards[0], e.host.pools[0].halo.recv
	good := make([][2]int64, len(recv[1]))
	for k := range good {
		good[k] = [2]int64{41, int64(k)}
	}
	f.Add(1, haloBlob(good...))
	f.Add(1, haloBlob(good[1:]...))
	f.Add(1, haloBlob(append(good, [2]int64{3, 1})...))
	f.Add(1, haloBlob(append(good[1:], [2]int64{5, 1})...))
	f.Add(1, haloBlob(append(good[1:], [2]int64{3, -7})...))
	f.Add(2, haloBlob(good...))
	f.Fuzz(func(t *testing.T, src int, blob []byte) {
		sl.BeginHalo()
		_ = env.readHalo(sl, recv, rt.Blob{Src: src, Blob: blob})
		for g := int32(0); int(g) < sh.NumGhosts(); g++ {
			s, d := sl.Label(^g)
			if s == graph.NilVID {
				continue
			}
			if src != 1 || !slices.Contains(recv[1], g) {
				t.Fatalf("rank %d's blob wrote ghost slot %d", src, g)
			}
			if !slices.Contains(env.dedup, s) || d < 0 {
				t.Fatalf("slot %d holds (%d, %d)", g, s, d)
			}
		}
	})
}
