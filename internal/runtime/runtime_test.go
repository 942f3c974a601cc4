package runtime

import (
	"math/rand"
	"sync/atomic"
	"testing"
	"unsafe"

	"dsteiner/internal/graph"
	"dsteiner/internal/partition"
	"dsteiner/internal/sssp"
)

func newComm(t testing.TB, n, ranks int, q QueueKind) *Comm {
	t.Helper()
	part, err := partition.NewBlock(n, ranks)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{Ranks: ranks, Queue: q}, part)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConfigValidation(t *testing.T) {
	part, _ := partition.NewBlock(10, 2)
	if _, err := New(Config{Ranks: 3}, part); err == nil {
		t.Fatal("rank mismatch accepted")
	}
	c, err := New(Config{Ranks: 2}, part)
	if err != nil {
		t.Fatal(err)
	}
	if c.Config().BatchSize != 64 {
		t.Fatalf("default batch size = %d, want 64", c.Config().BatchSize)
	}
}

func TestRunExecutesEveryRank(t *testing.T) {
	c := newComm(t, 16, 4, QueueFIFO)
	var hits [4]atomic.Int64
	c.Run(func(r *Rank) {
		hits[r.ID()].Add(1)
		if r.NumRanks() != 4 {
			t.Errorf("NumRanks = %d", r.NumRanks())
		}
	})
	for i := range hits {
		if hits[i].Load() != 1 {
			t.Fatalf("rank %d ran %d times", i, hits[i].Load())
		}
	}
}

func TestBarrierOrdersPhases(t *testing.T) {
	c := newComm(t, 8, 4, QueueFIFO)
	var phase1 atomic.Int64
	fail := atomic.Bool{}
	c.Run(func(r *Rank) {
		phase1.Add(1)
		r.Barrier()
		if phase1.Load() != 4 {
			fail.Store(true)
		}
	})
	if fail.Load() {
		t.Fatal("barrier released before all ranks arrived")
	}
}

func TestAllreduceVariants(t *testing.T) {
	c := newComm(t, 8, 4, QueueFIFO)
	c.Run(func(r *Rank) {
		x := int64(r.ID() + 1) // 1,2,3,4
		if got := r.AllreduceSumInt64(x); got != 10 {
			t.Errorf("sum = %d, want 10", got)
		}
		if got := r.AllreduceMinInt64(x); got != 1 {
			t.Errorf("min = %d, want 1", got)
		}
		if got := r.AllreduceMaxInt64(x); got != 4 {
			t.Errorf("max = %d, want 4", got)
		}
		// Repeated collectives must keep working (round reuse).
		for i := 0; i < 10; i++ {
			if got := r.AllreduceSumInt64(1); got != 4 {
				t.Errorf("round %d: sum = %d, want 4", i, got)
			}
		}
	})
}

func TestEmptyTraversalTerminates(t *testing.T) {
	c := newComm(t, 8, 4, QueueFIFO)
	c.Run(func(r *Rank) {
		st := r.Traverse(&Traversal{
			Visit: func(r *Rank, m Msg) { t.Error("visit called with no messages") },
		})
		if st.Processed != 0 || st.Sent != 0 {
			t.Errorf("stats = %+v", st)
		}
	})
}

func TestPingCountTraversal(t *testing.T) {
	// Each seed message triggers a fixed-depth forwarding chain across
	// ranks; total processed must equal sum of chain lengths.
	const n = 32
	for _, ranks := range []int{1, 2, 4} {
		for _, q := range []QueueKind{QueueFIFO, QueuePriority} {
			c := newComm(t, n, ranks, q)
			var total atomic.Int64
			c.Run(func(r *Rank) {
				st := r.Traverse(&Traversal{
					Ordered: true,
					Visit: func(r *Rank, m Msg) {
						if m.Dist > 0 {
							r.Send(Msg{Target: (m.Target + 7) % n, Dist: m.Dist - 1})
						}
					},
					Init: func(r *Rank) {
						if r.ID() == 0 {
							r.Send(Msg{Target: 0, Dist: 9}) // chain of 10 visits
							r.Send(Msg{Target: 5, Dist: 4}) // chain of 5
						}
					},
				})
				total.Add(st.Processed)
			})
			if total.Load() != 15 {
				t.Fatalf("ranks=%d queue=%v: processed %d, want 15", ranks, q, total.Load())
			}
			if got := c.Stats().Processed; got != 15 {
				t.Fatalf("comm counter = %d, want 15", got)
			}
		}
	}
}

// distSSSP runs a distributed Bellman-Ford SSSP over the runtime, the same
// relaxation pattern the Voronoi phase uses, and returns the distance array.
func distSSSP(c *Comm, g *graph.Graph, sources []graph.VID, bsp bool) []graph.Dist {
	n := g.NumVertices()
	dist := make([]graph.Dist, n)
	for i := range dist {
		dist[i] = graph.InfDist
	}
	c.Run(func(r *Rank) {
		r.Traverse(&Traversal{
			Ordered: true, // unordered would mean FIFO whatever the discipline
			BSP:     bsp,
			Visit: func(r *Rank, m Msg) {
				v := m.Target
				if m.Dist >= dist[v] {
					return
				}
				dist[v] = m.Dist
				ts, ws := g.Adj(v)
				for i, u := range ts {
					// Always send: only u's owner may read dist[u].
					r.Send(Msg{Target: u, From: v, Dist: m.Dist + graph.Dist(ws[i])})
				}
			},
			Init: func(r *Rank) {
				for _, s := range sources {
					if r.Owns(s) {
						r.Send(Msg{Target: s, Dist: 0})
					}
				}
			},
		})
	})
	return dist
}

func ssspGraph(seed int64, n int) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	for v := 1; v < n; v++ {
		b.AddEdge(graph.VID(rng.Intn(v)), graph.VID(v), uint32(rng.Intn(50))+1)
	}
	for i := 0; i < 3*n; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		b.AddEdge(graph.VID(u), graph.VID(v), uint32(rng.Intn(50))+1)
	}
	g, _ := b.Build()
	return g
}

func TestDistributedSSSPMatchesSequential(t *testing.T) {
	g := ssspGraph(11, 300)
	want := sssp.Dijkstra(g, 0)
	for _, ranks := range []int{1, 2, 4, 8} {
		for _, q := range []QueueKind{QueueFIFO, QueuePriority} {
			for _, bsp := range []bool{false, true} {
				part, _ := partition.NewBlock(g.NumVertices(), ranks)
				c := MustNew(Config{Ranks: ranks, Queue: q}, part)
				got := distSSSP(c, g, []graph.VID{0}, bsp)
				for v := 0; v < g.NumVertices(); v++ {
					if got[v] != want.Dist[v] {
						t.Fatalf("ranks=%d q=%v bsp=%v: dist[%d] = %d, want %d",
							ranks, q, bsp, v, got[v], want.Dist[v])
					}
				}
			}
		}
	}
}

func TestShuffledDeliveryStillConverges(t *testing.T) {
	// Randomized batch/message delivery order must not change the fixed
	// point (asynchronous self-stabilization).
	g := ssspGraph(13, 200)
	want := sssp.Dijkstra(g, 5)
	for _, seed := range []int64{1, 2, 3} {
		part, _ := partition.NewBlock(g.NumVertices(), 4)
		c := MustNew(Config{
			Ranks: 4, Queue: QueueFIFO,
			ShuffleDelivery: true, ShuffleSeed: seed,
			BatchSize: 8,
		}, part)
		got := distSSSP(c, g, []graph.VID{5}, false)
		for v := 0; v < g.NumVertices(); v++ {
			if got[v] != want.Dist[v] {
				t.Fatalf("seed=%d: dist[%d] = %d, want %d", seed, v, got[v], want.Dist[v])
			}
		}
	}
}

func TestPriorityQueueReducesMessages(t *testing.T) {
	// The paper's Fig. 6: distance-priority draining yields fewer
	// relaxation messages than FIFO on weighted graphs. Use one rank so
	// the discipline fully controls processing order.
	g := ssspGraph(17, 800)
	counts := map[QueueKind]int64{}
	for _, q := range []QueueKind{QueueFIFO, QueuePriority} {
		part, _ := partition.NewBlock(g.NumVertices(), 1)
		c := MustNew(Config{Ranks: 1, Queue: q}, part)
		distSSSP(c, g, []graph.VID{0}, false)
		counts[q] = c.Stats().Sent
	}
	if counts[QueuePriority] >= counts[QueueFIFO] {
		t.Fatalf("priority sent %d >= fifo %d", counts[QueuePriority], counts[QueueFIFO])
	}
}

func TestStatsAndReset(t *testing.T) {
	c := newComm(t, 16, 2, QueueFIFO)
	c.Run(func(r *Rank) {
		r.Traverse(&Traversal{
			Visit: func(r *Rank, m Msg) {},
			Init: func(r *Rank) {
				if r.ID() == 0 {
					for v := graph.VID(0); v < 16; v++ {
						r.Send(Msg{Target: v})
					}
				}
			},
		})
	})
	st := c.Stats()
	if st.Sent != 16 || st.Processed != 16 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Batches == 0 {
		t.Fatal("no cross-rank batches recorded")
	}
	c.ResetStats()
	if s := c.Stats(); s.Sent != 0 || s.Processed != 0 || s.Batches != 0 {
		t.Fatalf("reset failed: %+v", s)
	}
}

func TestPanicPropagatesWithoutHanging(t *testing.T) {
	c := newComm(t, 8, 4, QueueFIFO)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic to propagate")
		}
	}()
	c.Run(func(r *Rank) {
		if r.ID() == 2 {
			panic("rank 2 exploded")
		}
		// Other ranks block on a collective; poisoning must release them.
		r.Barrier()
	})
}

func TestBSPSuperstepCount(t *testing.T) {
	// A forwarding chain of depth d takes exactly d supersteps in BSP.
	c := newComm(t, 8, 2, QueueFIFO)
	var steps atomic.Int64
	c.Run(func(r *Rank) {
		st := r.Traverse(&Traversal{
			BSP: true,
			Visit: func(r *Rank, m Msg) {
				if m.Dist > 0 {
					r.Send(Msg{Target: (m.Target + 1) % 8, Dist: m.Dist - 1})
				}
			},
			Init: func(r *Rank) {
				if r.ID() == 0 {
					r.Send(Msg{Target: 0, Dist: 5})
				}
			},
		})
		if r.ID() == 0 {
			steps.Store(st.Supersteps)
		}
	})
	if steps.Load() != 6 {
		t.Fatalf("supersteps = %d, want 6", steps.Load())
	}
}

func TestQueueKindString(t *testing.T) {
	if QueueFIFO.String() != "fifo" || QueuePriority.String() != "priority" ||
		QueueKind(9).String() != "QueueKind(9)" {
		t.Fatal("QueueKind strings wrong")
	}
}

// TestRanksStayApart pins the padding around Rank's fields: the ranks of a
// communicator, allocated back to back, keep their fields at least 128
// bytes apart, so no two ranks share a cache line (or an adjacent-line
// pair). Unpadded, the allocator puts them side by side.
func TestRanksStayApart(t *testing.T) {
	fields := func(r *Rank) (lo, hi uintptr) {
		return uintptr(unsafe.Pointer(&r.comm)), uintptr(unsafe.Pointer(&r.published)) + unsafe.Sizeof(r.published)
	}
	c := newComm(t, 64, 8, QueuePriority)
	for i, p := range c.ranks {
		for _, q := range c.ranks[i+1:] {
			plo, phi := fields(p)
			qlo, qhi := fields(q)
			if gap := max(int64(qlo)-int64(phi), int64(plo)-int64(qhi)); gap < 128 {
				t.Fatalf("ranks %d and %d keep their fields %d bytes apart (at %#x and %#x), want at least 128",
					p.id, q.id, gap, plo, qlo)
			}
		}
	}
}
