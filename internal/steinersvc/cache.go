package steinersvc

import (
	"container/list"
	"context"
	"encoding/binary"
	"sync"

	"dsteiner/internal/core"
	"dsteiner/internal/graph"
)

// specKey packs an already-canonical QuerySpec (core.CanonicalSpec) into
// the solution-cache key. The mode leads the key, so queries of different
// modes over the same vertex set can never collide; the remaining fields
// are the canonical form's, which is a bijection with the query itself:
//
//	tree:   0x00 | seeds (sorted, LE uint32 each)
//	forest: 0x01 | per group: uint32 length | members (sorted, LE uint32)
//	prize:  0x02 | seeds (sorted, LE uint32) | penalties (co-sorted, LE uint64)
func specKey(spec core.QuerySpec) string {
	buf := []byte{byte(spec.Mode)}
	putVIDs := func(vs []graph.VID) {
		for _, v := range vs {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
		}
	}
	if spec.Mode == core.ModeForest {
		for _, grp := range spec.Groups {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(grp)))
			putVIDs(grp)
		}
	} else {
		putVIDs(spec.Seeds)
		for _, p := range spec.Penalties {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(p))
		}
	}
	return string(buf)
}

// resultCache is a bounded LRU of solved queries with single-flight
// coalescing: N concurrent requests for the same canonical terminal set cost
// one engine solve — the followers block on the leader's in-flight solve
// instead of queueing for engines of their own. Stored results are private
// clones (core.Result.Clone) served to every later hit, so they must be
// treated as read-only by all callers.
//
// A nil *resultCache is valid and means caching is disabled: Do degenerates
// to calling solve directly, with no storage and no coalescing.
type resultCache struct {
	capacity int

	mu        sync.Mutex
	ll        *list.List // front = most recently used
	entries   map[string]*list.Element
	flights   map[string]*cacheFlight
	hits      int64
	misses    int64
	coalesced int64
	evictions int64
}

type cacheEntry struct {
	key string
	res *core.Result
}

// cacheFlight is one in-progress solve that concurrent identical queries
// wait on.
type cacheFlight struct {
	done chan struct{}
	res  *core.Result
	err  error
}

// newResultCache returns a cache bounded to capacity entries, or nil
// (disabled) when capacity <= 0.
func newResultCache(capacity int) *resultCache {
	if capacity <= 0 {
		return nil
	}
	return &resultCache{
		capacity: capacity,
		ll:       list.New(),
		entries:  make(map[string]*list.Element),
		flights:  make(map[string]*cacheFlight),
	}
}

// Do returns the cached result for key or runs solve to produce it. When
// several goroutines ask for the same uncached key concurrently, exactly one
// runs solve and the rest wait for its outcome (errors included — a failed
// leader fails its followers, who are free to retry). A follower whose own
// ctx expires stops waiting and returns the ctx error rather than staying
// pinned behind a slow leader. hit reports whether the result came from the
// cache or a coalesced flight rather than this caller's own solve.
func (c *resultCache) Do(ctx context.Context, key string, solve func() (*core.Result, error)) (res *core.Result, hit bool, err error) {
	if c == nil {
		res, err = solve()
		return res, false, err
	}
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		res = el.Value.(*cacheEntry).res
		c.mu.Unlock()
		return res, true, nil
	}
	if f, ok := c.flights[key]; ok {
		c.coalesced++
		c.mu.Unlock()
		select {
		case <-f.done:
			return f.res, true, f.err
		case <-ctx.Done():
			return nil, true, ctx.Err()
		}
	}
	f := &cacheFlight{done: make(chan struct{})}
	c.flights[key] = f
	c.misses++
	c.mu.Unlock()

	res, err = solve()

	c.mu.Lock()
	delete(c.flights, key)
	if err == nil {
		f.res = c.putLocked(key, res)
	}
	f.err = err
	c.mu.Unlock()
	close(f.done)
	return res, false, err
}

// putLocked inserts (or refreshes) key with a private clone of res and
// returns the stored clone. Caller holds c.mu.
func (c *resultCache) putLocked(key string, res *core.Result) *core.Result {
	if el, ok := c.entries[key]; ok {
		// Identical canonical queries are deterministic, so the existing
		// entry is equivalent; keep it and just refresh recency.
		c.ll.MoveToFront(el)
		return el.Value.(*cacheEntry).res
	}
	stored := res.Clone()
	c.entries[key] = c.ll.PushFront(&cacheEntry{key: key, res: stored})
	if c.ll.Len() > c.capacity {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
		c.evictions++
	}
	return stored
}

// cacheCounters is a consistent snapshot for /stats.
type cacheCounters struct {
	capacity, size                   int
	hits, misses, coalesced, evicted int64
}

func (c *resultCache) counters() cacheCounters {
	if c == nil {
		return cacheCounters{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return cacheCounters{
		capacity:  c.capacity,
		size:      c.ll.Len(),
		hits:      c.hits,
		misses:    c.misses,
		coalesced: c.coalesced,
		evicted:   c.evictions,
	}
}
