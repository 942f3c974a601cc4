package steinersvc

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dsteiner/internal/core"
	"dsteiner/internal/graph"
)

// treeKey canonicalizes a seed set into its tree-mode cache key, the
// pre-mode cacheKey equivalent.
func treeKey(t *testing.T, seedSet []graph.VID) string {
	t.Helper()
	canonical, err := core.CanonicalSpec(100, core.TreeSpec(seedSet))
	if err != nil {
		t.Fatal(err)
	}
	return specKey(canonical)
}

func TestCacheKeyCanonicalization(t *testing.T) {
	base := treeKey(t, []graph.VID{1, 2, 3})
	for _, perm := range [][]graph.VID{{3, 1, 2}, {2, 3, 1}, {3, 2, 1}, {1, 3, 2}} {
		if treeKey(t, perm) != base {
			t.Fatalf("permutation %v maps to a different key", perm)
		}
	}
	for _, other := range [][]graph.VID{{1, 2}, {1, 2, 4}, {1, 2, 3, 4}} {
		if treeKey(t, other) == base {
			t.Fatalf("distinct set %v collides with {1,2,3}", other)
		}
	}
}

// TestSpecKeyModesDistinct is the cache-correctness regression for query
// modes: a forest query and a tree query over the same vertex set must get
// distinct cache entries, as must prize queries differing only in
// penalties.
func TestSpecKeyModesDistinct(t *testing.T) {
	canon := func(spec core.QuerySpec) string {
		c, err := core.CanonicalSpec(100, spec)
		if err != nil {
			t.Fatal(err)
		}
		return specKey(c)
	}
	tree := canon(core.TreeSpec([]graph.VID{1, 2, 3, 4}))
	forest := canon(core.QuerySpec{Mode: core.ModeForest, Groups: [][]graph.VID{{1, 2}, {3, 4}}})
	forestOther := canon(core.QuerySpec{Mode: core.ModeForest, Groups: [][]graph.VID{{1, 3}, {2, 4}}})
	prize := canon(core.QuerySpec{Mode: core.ModePrize, Seeds: []graph.VID{1, 2, 3, 4},
		Penalties: []graph.Dist{5, 6, 7, 8}})
	prizeOther := canon(core.QuerySpec{Mode: core.ModePrize, Seeds: []graph.VID{1, 2, 3, 4},
		Penalties: []graph.Dist{5, 6, 7, 9}})
	keys := map[string]string{"tree": tree, "forest": forest, "forest2": forestOther,
		"prize": prize, "prize2": prizeOther}
	for a, ka := range keys {
		for b, kb := range keys {
			if a != b && ka == kb {
				t.Fatalf("%s and %s queries over the same vertex set share a cache key", a, b)
			}
		}
	}
	// Canonicalization still collapses equivalent specs of one mode.
	if canon(core.QuerySpec{Mode: core.ModeForest, Groups: [][]graph.VID{{4, 3}, {2, 1}}}) != forest {
		t.Fatal("equivalent forest specs map to different keys")
	}
	if canon(core.QuerySpec{Mode: core.ModePrize, Seeds: []graph.VID{4, 3, 2, 1},
		Penalties: []graph.Dist{8, 7, 6, 5}}) != prize {
		t.Fatal("equivalent prize specs map to different keys")
	}
}

func cacheTestResult(total graph.Dist) *core.Result {
	return &core.Result{
		TotalDistance: total,
		Seeds:         []graph.VID{0, 1},
		Tree:          []graph.Edge{{U: 0, V: 1, W: uint32(total)}},
	}
}

// cacheFill runs c.Do for key with a solve returning res, reporting whether
// the answer came from the cache.
func cacheFill(t *testing.T, c *resultCache, key string, res *core.Result) (*core.Result, bool) {
	t.Helper()
	got, hit, err := c.Do(context.Background(), key, func() (*core.Result, error) { return res, nil })
	if err != nil {
		t.Fatal(err)
	}
	return got, hit
}

// cacheHolds reports whether key is stored, without touching its recency or
// the counters.
func cacheHolds(c *resultCache, key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[key]
	return ok
}

func TestResultCacheLRUEviction(t *testing.T) {
	c := newResultCache(2)
	for i, key := range []string{"a", "b", "c"} {
		if _, hit := cacheFill(t, c, key, cacheTestResult(graph.Dist(i))); hit {
			t.Fatalf("first lookup of %q was a hit", key)
		}
	}
	if cacheHolds(c, "a") {
		t.Fatal("oldest entry survived past capacity")
	}
	for _, key := range []string{"b", "c"} {
		if !cacheHolds(c, key) {
			t.Fatalf("entry %q evicted too early", key)
		}
	}
	// A hit on "b" leaves "c" least recently used: the next victim.
	if _, hit := cacheFill(t, c, "b", cacheTestResult(9)); !hit {
		t.Fatal("stored entry missed")
	}
	cacheFill(t, c, "d", cacheTestResult(3))
	if cacheHolds(c, "c") {
		t.Fatal("least recently used entry survived")
	}
	if !cacheHolds(c, "b") {
		t.Fatal("recently used entry evicted before LRU")
	}
	cc := c.counters()
	if cc.evicted != 2 || cc.size != 2 || cc.capacity != 2 || cc.hits != 1 || cc.misses != 4 {
		t.Fatalf("counters = %+v", cc)
	}
}

func TestResultCacheStoresClone(t *testing.T) {
	c := newResultCache(4)
	orig := cacheTestResult(7)
	cacheFill(t, c, "k", orig)
	orig.Tree[0].W = 99 // caller mutates its copy
	got, hit := cacheFill(t, c, "k", cacheTestResult(8))
	if !hit {
		t.Fatal("entry missing")
	}
	if got.Tree[0].W != 7 {
		t.Fatal("cache entry aliases the caller's result")
	}
}

// TestResultCacheSingleFlight launches one leader and several followers on
// the same key: the leader's solve must run exactly once, the followers must
// coalesce onto it, and everyone must observe the same result.
func TestResultCacheSingleFlight(t *testing.T) {
	c := newResultCache(4)
	const followers = 8
	var solves atomic.Int64
	release := make(chan struct{})
	leaderIn := make(chan struct{})
	solve := func() (*core.Result, error) {
		solves.Add(1)
		close(leaderIn)
		<-release
		return cacheTestResult(42), nil
	}

	var wg sync.WaitGroup
	results := make([]*core.Result, followers+1)
	hits := make([]bool, followers+1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		results[0], hits[0], _ = c.Do(context.Background(), "k", solve)
	}()
	<-leaderIn // leader is inside solve; key is in flight
	for i := 1; i <= followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], hits[i], _ = c.Do(context.Background(), "k", func() (*core.Result, error) {
				t.Error("follower ran its own solve")
				return nil, errors.New("unexpected")
			})
		}(i)
	}
	// Wait until every follower has registered on the flight, then let the
	// leader finish.
	deadline := time.Now().Add(5 * time.Second)
	for c.counters().coalesced < followers {
		if time.Now().After(deadline) {
			t.Fatalf("followers never coalesced: %+v", c.counters())
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if n := solves.Load(); n != 1 {
		t.Fatalf("solve ran %d times, want 1", n)
	}
	if hits[0] {
		t.Fatal("leader reported a hit")
	}
	for i := 1; i <= followers; i++ {
		if !hits[i] {
			t.Fatalf("follower %d reported a miss", i)
		}
		if results[i] == nil || results[i].TotalDistance != 42 {
			t.Fatalf("follower %d result = %+v", i, results[i])
		}
	}
	cc := c.counters()
	if cc.misses != 1 || cc.coalesced != followers || cc.size != 1 {
		t.Fatalf("counters = %+v", cc)
	}
}

// TestResultCacheFollowerHonorsOwnContext checks a coalesced follower stops
// waiting when its own context expires instead of staying pinned behind a
// slow leader.
func TestResultCacheFollowerHonorsOwnContext(t *testing.T) {
	c := newResultCache(4)
	release := make(chan struct{})
	leaderIn := make(chan struct{})
	go func() {
		_, _, _ = c.Do(context.Background(), "k", func() (*core.Result, error) {
			close(leaderIn)
			<-release
			return cacheTestResult(1), nil
		})
	}()
	<-leaderIn
	ctx, cancel := context.WithCancel(context.Background())
	followerDone := make(chan error, 1)
	go func() {
		_, hit, err := c.Do(ctx, "k", func() (*core.Result, error) {
			t.Error("follower ran its own solve")
			return nil, errors.New("unexpected")
		})
		if !hit {
			t.Error("abandoning follower should still report coalescing")
		}
		followerDone <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for c.counters().coalesced < 1 {
		if time.Now().After(deadline) {
			t.Fatal("follower never coalesced")
		}
		time.Sleep(time.Millisecond)
	}
	cancel() // follower must return now, leader still blocked
	select {
	case err := <-followerDone:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("follower err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("follower stayed pinned behind the leader")
	}
	close(release) // leader completes and caches as usual
	if res, _, err := c.Do(context.Background(), "k", nil); err != nil || res.TotalDistance != 1 {
		t.Fatalf("post-flight lookup: res=%+v err=%v", res, err)
	}
}

func TestResultCacheErrorsNotCached(t *testing.T) {
	c := newResultCache(4)
	boom := errors.New("boom")
	calls := 0
	fail := func() (*core.Result, error) { calls++; return nil, boom }
	if _, _, err := c.Do(context.Background(), "k", fail); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if _, _, err := c.Do(context.Background(), "k", fail); !errors.Is(err, boom) {
		t.Fatalf("retry err = %v", err)
	}
	if calls != 2 {
		t.Fatalf("solve calls = %d, want 2 (errors must not be cached)", calls)
	}
	if cc := c.counters(); cc.size != 0 {
		t.Fatalf("failed solve was stored: %+v", cc)
	}
}

func TestResultCacheDisabled(t *testing.T) {
	c := newResultCache(0)
	if c != nil {
		t.Fatal("capacity 0 should disable the cache")
	}
	calls := 0
	for i := 0; i < 2; i++ {
		res, hit, err := c.Do(context.Background(), "k", func() (*core.Result, error) {
			calls++
			return cacheTestResult(1), nil
		})
		if err != nil || hit || res == nil {
			t.Fatalf("disabled Do: res=%v hit=%v err=%v", res, hit, err)
		}
	}
	if calls != 2 {
		t.Fatalf("calls = %d, want passthrough", calls)
	}
	if cc := c.counters(); cc != (cacheCounters{}) {
		t.Fatalf("disabled counters = %+v", cc)
	}
}
