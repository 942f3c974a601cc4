package core

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"dsteiner/internal/baseline"
	"dsteiner/internal/exact"
	"dsteiner/internal/gen"
	"dsteiner/internal/graph"
	rt "dsteiner/internal/runtime"
)

func e(u, v graph.VID, w uint32) graph.Edge { return graph.Edge{U: u, V: v, W: w} }

// paperFig1 is the example of the paper's Fig. 1 (vertices renumbered to
// 0-based: paper vertex i is i-1).
func paperFig1() *graph.Graph {
	return graph.MustFromEdges(9, []graph.Edge{
		e(0, 1, 16), e(0, 4, 2), e(4, 5, 4), e(1, 5, 2), e(1, 2, 20),
		e(5, 6, 1), e(2, 6, 1), e(2, 3, 24), e(6, 7, 2), e(3, 7, 2), e(7, 8, 2), e(3, 8, 18),
	})
}

func randomConnected(seed int64, n int, maxW uint32) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	for v := 1; v < n; v++ {
		b.AddEdge(graph.VID(rng.Intn(v)), graph.VID(v), uint32(rng.Intn(int(maxW)))+1)
	}
	for i := 0; i < 2*n; i++ {
		b.AddEdge(graph.VID(rng.Intn(n)), graph.VID(rng.Intn(n)), uint32(rng.Intn(int(maxW)))+1)
	}
	g, _ := b.Build()
	return g
}

func pickSeeds(rng *rand.Rand, n, k int) []graph.VID {
	seen := map[graph.VID]bool{}
	var out []graph.VID
	for len(out) < k {
		s := graph.VID(rng.Intn(n))
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

func TestPaperFig1Example(t *testing.T) {
	g := paperFig1()
	// Paper's seed set (red vertices): 1, 3, 4, 8, 9 → 0-based 0,2,3,7,8.
	seeds := []graph.VID{0, 2, 3, 7, 8}
	res, err := Solve(g, seeds, Default(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.ValidateSteinerTree(g, seeds, res.Tree); err != nil {
		t.Fatal(err)
	}
	// The optimal Steiner tree (Fig. 1b) uses edges 1-5,5-6,2-6,6-7,3-7,
	// 7-8,8-9 with total 2+4+2+1+2+2+2... compute the exact optimum and
	// check the 2-approximation bound.
	sol, err := exact.Solve(g, seeds, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalDistance < sol.Total {
		t.Fatalf("approximation %d beat the optimum %d", res.TotalDistance, sol.Total)
	}
	if float64(res.TotalDistance) > 2*float64(sol.Total) {
		t.Fatalf("bound violated: %d > 2x%d", res.TotalDistance, sol.Total)
	}
}

func TestSingleSeed(t *testing.T) {
	g := paperFig1()
	res, err := Solve(g, []graph.VID{4}, Default(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tree) != 0 || res.TotalDistance != 0 {
		t.Fatalf("single seed should give empty tree: %+v", res)
	}
}

// TestOneTerminalBuildsNoEngine checks a one-terminal cold query of every
// mode is answered before an engine is built: options NewEngine refuses
// still give the empty tree.
func TestOneTerminalBuildsNoEngine(t *testing.T) {
	g := paperFig1()
	opts := Default(2)
	opts.Queue = rt.QueueKind(99)
	if _, err := Solve(g, []graph.VID{0, 4}, opts); err == nil {
		t.Fatal("a two-terminal query solved with a queue NewEngine refuses")
	}
	for _, spec := range []QuerySpec{
		TreeSpec([]graph.VID{4}),
		{Mode: ModeForest, Groups: [][]graph.VID{{4}}},
		{Mode: ModePrize, Seeds: []graph.VID{4}, Penalties: []graph.Dist{7}},
	} {
		res, err := SolveQuery(g, spec, opts)
		if err != nil {
			t.Fatalf("%v: %v", spec.Mode, err)
		}
		if len(res.Tree) != 0 || res.Objective != 0 || res.Mode != spec.Mode ||
			len(res.Seeds) != 1 || res.Seeds[0] != 4 {
			t.Fatalf("%v: one terminal should give the empty tree: %+v", spec.Mode, res)
		}
	}
}

func TestTwoSeedsIsShortestPath(t *testing.T) {
	// For |S|=2 the Steiner tree must be a shortest path (the paper's
	// framing: Steiner trees generalize shortest paths).
	g := randomConnected(7, 200, 30)
	for _, pair := range [][2]graph.VID{{0, 199}, {3, 150}, {17, 42}} {
		res, err := Solve(g, pair[:], Default(4))
		if err != nil {
			t.Fatal(err)
		}
		want, err := exact.Solve(g, pair[:], 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.TotalDistance != want.Total {
			t.Fatalf("pair %v: got %d, want shortest path %d", pair, res.TotalDistance, want.Total)
		}
	}
}

func TestErrorCases(t *testing.T) {
	g := paperFig1()
	if _, err := Solve(g, nil, Default(1)); err == nil {
		t.Error("empty seeds accepted")
	}
	if _, err := Solve(g, []graph.VID{42}, Default(1)); err == nil {
		t.Error("out-of-range seed accepted")
	}
	// Disconnected seeds.
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1, 1)
	b.AddEdge(2, 3, 1)
	g2, _ := b.Build()
	_, err := Solve(g2, []graph.VID{0, 2}, Default(2))
	if err == nil || !strings.Contains(err.Error(), "connected") {
		t.Errorf("disconnected seeds: err = %v", err)
	}
}

func TestDuplicateSeedsRejected(t *testing.T) {
	g := paperFig1()
	_, err := Solve(g, []graph.VID{0, 7, 0, 7, 0}, Default(2))
	if err == nil {
		t.Fatal("duplicate seeds accepted")
	}
	if !errors.Is(err, ErrDuplicateSeed) {
		t.Fatalf("err = %v, want ErrDuplicateSeed", err)
	}
	if !strings.Contains(err.Error(), "0") {
		t.Fatalf("error does not name the offending seed: %v", err)
	}
}

// TestParseQueue pins the flag surface: the two disciplines parse, and any
// other name is refused with the valid ones.
func TestParseQueue(t *testing.T) {
	for s, want := range map[string]rt.QueueKind{"fifo": rt.QueueFIFO, "priority": rt.QueuePriority} {
		if got, err := ParseQueue(s); err != nil || got != want {
			t.Fatalf("ParseQueue(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseQueue("bucket"); err == nil || !strings.Contains(err.Error(), "fifo or priority") {
		t.Fatalf("ParseQueue(\"bucket\") error = %v, want one naming fifo or priority", err)
	}
}

// TestNewEngineRefusesBadOptions pins NewEngine's one check of Options,
// made before either backend starts: a queue outside the two disciplines
// (the other side of ParseQueue), a batch size above the runtime's bound and
// shuffled delivery on the TCP backend are refused, before any fleet is
// dialled, rather than run as FIFO in process, refused at every TCP worker's
// setup, or run unshuffled.
func TestNewEngineRefusesBadOptions(t *testing.T) {
	g := randomConnected(13, 40, 9)
	both := []Backend{BackendInproc, BackendTCP}
	for _, c := range []struct {
		name     string
		opts     Options
		backends []Backend
		want     string
	}{
		{"queue=-1", Options{Queue: -1}, both, "fifo or priority"},
		{"queue=priority+1", Options{Queue: rt.QueuePriority + 1}, both, "fifo or priority"},
		{"batch=2^30", Options{BatchSize: 1 << 30}, both, "above the runtime's bound 65536"},
		{"shuffle", Options{ShuffleDelivery: true}, []Backend{BackendTCP}, "in process only"},
	} {
		for _, backend := range c.backends {
			opts := c.opts
			opts.Ranks, opts.Backend, opts.ListenAddr, opts.WorkerWait = 2, backend, "127.0.0.1:0", time.Second
			opts.OnListen = func(string) { t.Errorf("%s/%v: the coordinator listened for workers", c.name, backend) }
			e, err := NewEngine(g, opts)
			if err == nil {
				e.Close()
				t.Fatalf("%s/%v: NewEngine accepted the options", c.name, backend)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("%s/%v: error = %v, want one naming %q", c.name, backend, err, c.want)
			}
		}
	}
}

func TestMatchesMehlhornTotalDistance(t *testing.T) {
	// The distributed algorithm and the sequential Mehlhorn baseline use
	// the same distance-graph construction with the same tie-breaking,
	// so total distances must agree (trees may differ in pred choices).
	for seed := int64(20); seed < 26; seed++ {
		g := randomConnected(seed, 180, 15)
		rng := rand.New(rand.NewSource(seed * 3))
		seeds := pickSeeds(rng, 180, 4+rng.Intn(5))
		res, err := Solve(g, seeds, Default(3))
		if err != nil {
			t.Fatal(err)
		}
		ref, err := baseline.Mehlhorn(g, seeds)
		if err != nil {
			t.Fatal(err)
		}
		// Mehlhorn's final MST+prune can only improve on the raw
		// expansion, so the distributed result is >= Mehlhorn's but
		// must stay within the same 2-approx family: allow equality or
		// slightly larger, bounded by the KMB guarantee below.
		if res.TotalDistance < ref.Total {
			t.Fatalf("seed %d: distributed %d beat Mehlhorn %d unexpectedly",
				seed, res.TotalDistance, ref.Total)
		}
		sol, err := exact.Solve(g, seeds, 0)
		if err == nil {
			if float64(res.TotalDistance) > 2*float64(sol.Total) {
				t.Fatalf("seed %d: bound violated: %d > 2x%d", seed, res.TotalDistance, sol.Total)
			}
		}
	}
}

func TestProperty2ApproxBoundAgainstExact(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(80)
		g := randomConnected(seed, n, 12)
		k := 2 + rng.Intn(6) // exact solver stays cheap
		seeds := pickSeeds(rng, n, k)
		res, err := Solve(g, seeds, Default(1+rng.Intn(4)))
		if err != nil {
			return false
		}
		sol, err := exact.Solve(g, seeds, 0)
		if err != nil {
			return false
		}
		if res.TotalDistance < sol.Total {
			return false // nothing beats the optimum
		}
		// Paper bound: D(G_S)/D_min <= 2(1-1/l) < 2.
		return float64(res.TotalDistance) <= 2*float64(sol.Total)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyOutputAlwaysValidTree(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(150)
		g := randomConnected(seed, n, 30)
		seeds := pickSeeds(rng, n, 2+rng.Intn(10))
		opts := Options{
			Ranks:           1 + rng.Intn(6),
			Queue:           []rt.QueueKind{rt.QueueFIFO, rt.QueuePriority}[rng.Intn(2)],
			ShuffleDelivery: true,
			ShuffleSeed:     seed,
			BatchSize:       1 + rng.Intn(50),
		}
		res, err := Solve(g, seeds, opts)
		if err != nil {
			return false
		}
		// Solve validates internally unless skipped; double check here.
		return graph.ValidateSteinerTree(g, seeds, res.Tree) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestPhaseStatsPopulated(t *testing.T) {
	g := randomConnected(31, 300, 20)
	rng := rand.New(rand.NewSource(32))
	seeds := pickSeeds(rng, 300, 8)
	res, err := Solve(g, seeds, Default(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Phases) != len(PhaseNames) {
		t.Fatalf("phases = %d, want %d", len(res.Phases), len(PhaseNames))
	}
	for i, name := range PhaseNames {
		if res.Phases[i].Name != name {
			t.Errorf("phase %d = %q, want %q", i, res.Phases[i].Name, name)
		}
	}
	vor := res.Phase(PhaseVoronoi)
	if vor.Sent == 0 || vor.Processed == 0 || vor.MaxRankWork == 0 {
		t.Errorf("voronoi phase stats empty: %+v", vor)
	}
	if res.Phase(PhaseMST).Sent != 0 {
		t.Errorf("MST phase should send no visitor messages")
	}
	tree := res.Phase(PhaseTreeEdge)
	if tree.Sent == 0 {
		t.Errorf("tree edge phase sent no messages")
	}
	// Tree-edge phase messages are orders of magnitude below Voronoi
	// (the paper's Alg. 6 message-efficiency claim).
	if tree.Sent*10 > vor.Sent {
		t.Errorf("tree edge messages %d not well below voronoi %d", tree.Sent, vor.Sent)
	}
	if res.TotalSeconds() <= 0 {
		t.Errorf("TotalSeconds = %f", res.TotalSeconds())
	}
	if res.TotalMessages() != vor.Sent+res.Phase(PhaseLocalMinEdge).Sent+tree.Sent {
		t.Errorf("TotalMessages inconsistent")
	}
	if res.DistGraphEdges <= 0 {
		t.Errorf("DistGraphEdges = %d", res.DistGraphEdges)
	}
	mem := res.Memory
	if mem.GraphBytes <= 0 || mem.StateBytes <= 0 || mem.AlgorithmBytes() <= 0 || mem.TotalBytes() <= mem.GraphBytes {
		t.Errorf("memory stats implausible: %+v", mem)
	}
}

// TestDefaultBalancesVoronoiVisits pins why engines split ranks by
// vertices: phase 1 pays per popped vertex, and a schedule without races
// (one rank, or Dijkstra) pops each reached vertex exactly once, at the rank
// that owns it. So the phase-1 work the partition decides is the vertices
// each rank labels, and on a skewed R-MAT graph (the LVJ stand-in shape)
// equal-vertex ranges give each rank half of them. The pops a rank adds on
// top, expanding labels its peer later beats, depend on which rank runs
// ahead, so the popped counts (MaxRankWork) are only logged: paired with
// another test binary on two CPUs they crossed 1.25 in up to 28 of 240
// runs.
func TestDefaultBalancesVoronoiVisits(t *testing.T) {
	g := gen.Config{Name: "rmat", Kind: gen.KindRMAT, N: 1 << 13, AvgDegree: 16, MaxWeight: 5000,
		Backbone: true, Seed: 1}.MustBuild()
	e, err := NewEngine(g, Default(2))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	rng := rand.New(rand.NewSource(2))
	var maxLabelled, labelled, maxWork, processed int64
	for q := 0; q < 8; q++ {
		res, err := e.Solve(pickSeeds(rng, g.NumVertices(), 16))
		if err != nil {
			t.Fatal(err)
		}
		// Phase 1 leaves each rank's owned rows labelled until the next
		// query resets the slabs.
		var busiest int64
		for _, sl := range e.slabs() {
			var n int64
			sl.EachReached(func(graph.VID, graph.VID, graph.VID, graph.Dist) { n++ })
			busiest = max(busiest, n)
			labelled += n
		}
		maxLabelled += busiest
		vor := res.Phase(PhaseVoronoi)
		maxWork += vor.MaxRankWork
		processed += vor.Processed
	}
	if labelled != 8*int64(g.NumVertices()) {
		t.Fatalf("phase 1 labelled %d vertices over 8 queries, want every vertex each time (%d)", labelled, 8*g.NumVertices())
	}
	imbalance := 2 * float64(maxLabelled) / float64(labelled)
	t.Logf("phase-1 imbalance %.3f by labelled vertices (busiest rank %d of %d); %.3f by pops (%d of %d)",
		imbalance, maxLabelled, labelled, 2*float64(maxWork)/float64(processed), maxWork, processed)
	if imbalance > 1.25 {
		t.Fatalf("phase-1 imbalance %.3f, want <= 1.25", imbalance)
	}
}

func TestPriorityQueueReducesVoronoiMessages(t *testing.T) {
	// Fig. 6's claim at unit scale: priority discipline sends fewer
	// Voronoi messages than FIFO.
	g := randomConnected(41, 600, 200)
	rng := rand.New(rand.NewSource(42))
	seeds := pickSeeds(rng, 600, 10)
	counts := map[rt.QueueKind]int64{}
	for _, q := range []rt.QueueKind{rt.QueueFIFO, rt.QueuePriority} {
		opts := Options{Ranks: 1, Queue: q}
		res, err := Solve(g, seeds, opts)
		if err != nil {
			t.Fatal(err)
		}
		counts[q] = res.Phase(PhaseVoronoi).Sent
	}
	if counts[rt.QueuePriority] >= counts[rt.QueueFIFO] {
		t.Fatalf("priority %d >= fifo %d Voronoi messages",
			counts[rt.QueuePriority], counts[rt.QueueFIFO])
	}
}

func TestSteinerVerticesCounted(t *testing.T) {
	// Line 0-1-2: seeds {0,2} force Steiner vertex 1.
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	g, _ := b.Build()
	res, err := Solve(g, []graph.VID{0, 2}, Default(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.SteinerVertices != 1 {
		t.Fatalf("SteinerVertices = %d, want 1", res.SteinerVertices)
	}
}
