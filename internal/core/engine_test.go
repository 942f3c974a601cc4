package core

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"dsteiner/internal/graph"
	rt "dsteiner/internal/runtime"
)

// engineTestGraph builds a reproducible random connected graph.
func engineTestGraph(seed int64, n int) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	for v := 1; v < n; v++ {
		b.AddEdge(graph.VID(rng.Intn(v)), graph.VID(v), uint32(rng.Intn(30))+1)
	}
	for i := 0; i < 2*n; i++ {
		b.AddEdge(graph.VID(rng.Intn(n)), graph.VID(rng.Intn(n)), uint32(rng.Intn(30))+1)
	}
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

func pickEngineSeeds(rng *rand.Rand, n, k int) []graph.VID {
	seen := map[graph.VID]bool{}
	out := make([]graph.VID, 0, k)
	for len(out) < k {
		s := graph.VID(rng.Intn(n))
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// TestEngineReuseMatchesColdSolve drives one Engine through 100 queries with
// varying seed sets and checks every result is identical — tree edge set,
// total distance, seed set — to a cold Solve of the same query. This is the
// acceptance bar for the pooled epoch-versioned state, now held in per-rank
// StateSlabs (owned rows + ghost rows + walk marks, all reset by one epoch
// bump per slab): stale entries from earlier queries must never surface.
func TestEngineReuseMatchesColdSolve(t *testing.T) {
	g := engineTestGraph(42, 400)
	opts := Default(4)
	e, err := NewEngine(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if e.slabs == nil || len(e.slabs) != opts.Ranks {
		t.Fatalf("engine did not build per-rank state slabs: %v", e.slabs)
	}
	if s := e.ShardStats(); s.StateSlabBytes <= 0 || s.MaxStateSlabBytes <= 0 {
		t.Fatalf("state-slab accounting missing: %+v", s)
	}
	rng := rand.New(rand.NewSource(43))
	for q := 0; q < 100; q++ {
		seeds := pickEngineSeeds(rng, g.NumVertices(), 2+rng.Intn(8))
		warm, err := e.Solve(seeds)
		if err != nil {
			t.Fatalf("query %d: engine solve: %v", q, err)
		}
		cold, err := Solve(g, seeds, opts)
		if err != nil {
			t.Fatalf("query %d: cold solve: %v", q, err)
		}
		if !reflect.DeepEqual(warm.Tree, cold.Tree) {
			t.Fatalf("query %d seeds %v: trees differ\nwarm %v\ncold %v", q, seeds, warm.Tree, cold.Tree)
		}
		if warm.TotalDistance != cold.TotalDistance {
			t.Fatalf("query %d: total %d != cold %d", q, warm.TotalDistance, cold.TotalDistance)
		}
		if !reflect.DeepEqual(warm.Seeds, cold.Seeds) {
			t.Fatalf("query %d: seeds %v != cold %v", q, warm.Seeds, cold.Seeds)
		}
		if warm.SteinerVertices != cold.SteinerVertices {
			t.Fatalf("query %d: steiner vertices %d != %d", q, warm.SteinerVertices, cold.SteinerVertices)
		}
	}
}

// TestEngineRepeatedIdenticalQuery checks byte-identical results when the
// exact same query is re-issued against a reused engine.
func TestEngineRepeatedIdenticalQuery(t *testing.T) {
	g := engineTestGraph(7, 300)
	e, err := NewEngine(g, Default(2))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	seeds := []graph.VID{5, 77, 150, 288}
	first, err := e.Solve(seeds)
	if err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 20; q++ {
		again, err := e.Solve(seeds)
		if err != nil {
			t.Fatalf("repeat %d: %v", q, err)
		}
		if !reflect.DeepEqual(again.Tree, first.Tree) || again.TotalDistance != first.TotalDistance {
			t.Fatalf("repeat %d drifted: %v (total %d) vs %v (total %d)",
				q, again.Tree, again.TotalDistance, first.Tree, first.TotalDistance)
		}
	}
}

// TestPhaseStatsAddUpToCommStats pins the per-phase message counts to the
// communicator's: the runtime feeds Comm.Stats once per traversal, and the
// phase recorder reads it between traversals, so over a solve the phases'
// Sent and Processed must sum to exactly what the communicator counted —
// on a reused engine too, where nothing may leak between queries.
func TestPhaseStatsAddUpToCommStats(t *testing.T) {
	g := engineTestGraph(9, 400)
	for _, opts := range []Options{Default(1), Default(3), {Ranks: 4, Queue: rt.QueueFIFO, BSP: true}} {
		e, err := NewEngine(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(10))
		for q := 0; q < 5; q++ {
			res, err := e.Solve(pickEngineSeeds(rng, 400, 6))
			if err != nil {
				t.Fatal(err)
			}
			var sent, processed int64
			for _, ph := range res.Phases {
				sent += ph.Sent
				processed += ph.Processed
			}
			// res.Sent/Processed are the communicator's own deltas over the solve.
			if sent != res.Sent || processed != res.Processed || sent == 0 || sent != res.TotalMessages() || processed > sent {
				t.Fatalf("ranks=%d query %d: phases sum to %d sent / %d processed (TotalMessages %d), communicator counted %d / %d",
					opts.Ranks, q, sent, processed, res.TotalMessages(), res.Sent, res.Processed)
			}
		}
		e.Close()
	}
}

// TestEngineRecoversAfterQueryError verifies an engine keeps serving valid
// queries after a failed one (bad seeds, disconnected seeds).
func TestEngineRecoversAfterQueryError(t *testing.T) {
	b := graph.NewBuilder(8)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 2)
	b.AddEdge(2, 3, 3)
	b.AddEdge(4, 5, 1) // second component
	g, _ := b.Build()
	e, err := NewEngine(g, Default(2))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	if _, err := e.Solve(nil); err == nil || !strings.Contains(err.Error(), "empty seed set") {
		t.Fatalf("empty seeds: err = %v", err)
	}
	if _, err := e.Solve([]graph.VID{0, 99}); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("out of range: err = %v", err)
	}
	if _, err := e.Solve([]graph.VID{0, 4}); err == nil || !strings.Contains(err.Error(), "connected components") {
		t.Fatalf("disconnected: err = %v", err)
	}
	res, err := e.Solve([]graph.VID{0, 3})
	if err != nil {
		t.Fatalf("valid query after errors: %v", err)
	}
	if res.TotalDistance != 6 {
		t.Fatalf("total = %d, want 6", res.TotalDistance)
	}
}

// TestEngineSingleSeed covers the degenerate single-seed fast path on a
// reused engine, and the duplicate-seed rejection next to it.
func TestEngineSingleSeed(t *testing.T) {
	g := engineTestGraph(11, 50)
	e, err := NewEngine(g, Default(2))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	res, err := e.Solve([]graph.VID{7})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tree) != 0 || len(res.Seeds) != 1 || res.Seeds[0] != 7 {
		t.Fatalf("res = %+v", res)
	}
	if _, err := e.Solve([]graph.VID{7, 7, 7}); !errors.Is(err, ErrDuplicateSeed) {
		t.Fatalf("duplicate seeds: err = %v, want ErrDuplicateSeed", err)
	}
	// A real query must still work afterwards.
	if _, err := e.Solve([]graph.VID{0, 30}); err != nil {
		t.Fatal(err)
	}
}

// TestEngineSolveBatch checks SolveBatch against per-query Solve: same
// results in input order, with per-item errors that leave the rest of the
// batch untouched.
func TestEngineSolveBatch(t *testing.T) {
	g := engineTestGraph(23, 300)
	opts := Default(3)
	e, err := NewEngine(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	sets := [][]graph.VID{
		{0, 100, 250},
		{5, 5}, // duplicate: must fail alone
		{12, 200},
		nil, // empty: must fail alone
		{7, 70, 170, 299},
		{1, 999},      // out of range: must fail alone
		{0, 100, 250}, // repeat of the first set
	}
	items := e.SolveBatch(context.Background(), sets)
	if len(items) != len(sets) {
		t.Fatalf("items = %d, want %d", len(items), len(sets))
	}
	for _, i := range []int{1, 3, 5} {
		if items[i].Err == nil || items[i].Result != nil {
			t.Fatalf("item %d: expected error, got %+v", i, items[i])
		}
	}
	if !errors.Is(items[1].Err, ErrDuplicateSeed) {
		t.Fatalf("item 1: err = %v, want ErrDuplicateSeed", items[1].Err)
	}
	for _, i := range []int{0, 2, 4, 6} {
		if items[i].Err != nil {
			t.Fatalf("item %d: %v", i, items[i].Err)
		}
		want, err := Solve(g, sets[i], opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(items[i].Result.Tree, want.Tree) ||
			items[i].Result.TotalDistance != want.TotalDistance {
			t.Fatalf("item %d: batch result differs from cold solve", i)
		}
	}
}

// TestSolveBatchCancelledContext checks the remaining items of a batch fail
// with the context's error once it is cancelled, instead of solving work
// nobody will read.
func TestSolveBatchCancelledContext(t *testing.T) {
	g := engineTestGraph(31, 100)
	e, err := NewEngine(g, Default(2))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	items := e.SolveBatch(ctx, [][]graph.VID{{0, 50}, {1, 60}})
	for i, it := range items {
		if !errors.Is(it.Err, context.Canceled) || it.Result != nil {
			t.Fatalf("item %d: %+v, want context.Canceled", i, it)
		}
	}
	// The engine must still serve live contexts afterwards.
	items = e.SolveBatch(context.Background(), [][]graph.VID{{0, 50}})
	if items[0].Err != nil {
		t.Fatal(items[0].Err)
	}
}

// TestValidateSeedSet checks canonSeedSet, Solve's seed-set rules.
func TestValidateSeedSet(t *testing.T) {
	validate := func(seeds []graph.VID) error {
		_, err := canonSeedSet(10, seeds, map[graph.VID]bool{})
		return err
	}
	if err := validate([]graph.VID{3, 1, 2}); err != nil {
		t.Fatalf("valid set rejected: %v", err)
	}
	if err := validate(nil); err == nil {
		t.Error("empty set accepted")
	}
	if err := validate([]graph.VID{3, 10}); err == nil {
		t.Error("out-of-range seed accepted")
	}
	if err := validate([]graph.VID{3, 3}); !errors.Is(err, ErrDuplicateSeed) {
		t.Errorf("duplicate: err = %v, want ErrDuplicateSeed", err)
	}
}

// TestResultClone verifies a clone shares no slices with the original — the
// property the steinersvc solution cache relies on to serve one stored
// Result to many readers.
func TestResultClone(t *testing.T) {
	g := engineTestGraph(29, 120)
	res, err := Solve(g, []graph.VID{0, 60, 110}, Default(2))
	if err != nil {
		t.Fatal(err)
	}
	cp := res.Clone()
	if !reflect.DeepEqual(cp, res) {
		t.Fatalf("clone differs: %+v vs %+v", cp, res)
	}
	if len(res.Tree) == 0 || len(res.Phases) == 0 {
		t.Fatal("test needs a non-trivial result")
	}
	res.Tree[0].W++
	res.Seeds[0]++
	res.Phases[0].Seconds++
	if cp.Tree[0] == res.Tree[0] || cp.Seeds[0] == res.Seeds[0] || cp.Phases[0].Seconds == res.Phases[0].Seconds {
		t.Fatal("clone aliases the original's slices")
	}
	var nilRes *Result
	if nilRes.Clone() != nil {
		t.Fatal("nil clone should be nil")
	}
}

// TestEngineConcurrentCallsSerialized checks that concurrent Solve calls on
// a single engine are safe (internally serialized) and all produce correct
// results — no cross-query state leakage.
func TestEngineConcurrentCallsSerialized(t *testing.T) {
	g := engineTestGraph(13, 200)
	opts := Default(2)
	e, err := NewEngine(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	seedSets := [][]graph.VID{
		{0, 100, 199},
		{5, 50},
		{10, 90, 140, 180},
		{2, 3, 4, 5, 6},
	}
	want := make([]*Result, len(seedSets))
	for i, s := range seedSets {
		w, err := Solve(g, s, opts)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = w
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for it := 0; it < 4; it++ {
		for i, s := range seedSets {
			wg.Add(1)
			go func(i int, s []graph.VID) {
				defer wg.Done()
				res, err := e.Solve(s)
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(res.Tree, want[i].Tree) {
					errs <- &mismatchError{i}
				}
			}(i, s)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

type mismatchError struct{ i int }

func (e *mismatchError) Error() string { return "concurrent engine result mismatch" }
