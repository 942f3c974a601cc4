package pq

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestHeapOrdering(t *testing.T) {
	h := NewHeap[string](4)
	h.Push("c", 30)
	h.Push("a", 10)
	h.Push("b", 20)
	if h.Len() != 3 {
		t.Fatalf("Len = %d", h.Len())
	}
	for _, want := range []string{"a", "b", "c"} {
		got, ok := h.Pop()
		if !ok || got != want {
			t.Fatalf("Pop = (%q,%v), want %q", got, ok, want)
		}
	}
	if _, ok := h.Pop(); ok {
		t.Fatal("Pop on empty heap returned ok")
	}
}

func TestHeapStableAmongEqualKeys(t *testing.T) {
	h := NewHeap[int](0)
	for i := 0; i < 100; i++ {
		h.Push(i, 7)
	}
	for i := 0; i < 100; i++ {
		got, _ := h.Pop()
		if got != i {
			t.Fatalf("equal-key pop %d = %d, want insertion order", i, got)
		}
	}
}

func TestHeapRandomAgainstSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	h := NewHeap[uint64](0)
	keys := make([]uint64, 1000)
	for i := range keys {
		keys[i] = uint64(rng.Intn(500))
		h.Push(keys[i], keys[i])
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for i, want := range keys {
		got, ok := h.Pop()
		if !ok || got != want {
			t.Fatalf("pop %d = (%d,%v), want %d", i, got, ok, want)
		}
	}
}

func TestHeapInterleavedPushPop(t *testing.T) {
	h := NewHeap[uint64](0)
	rng := rand.New(rand.NewSource(2))
	var lastPopped uint64
	inHeap := 0
	for step := 0; step < 5000; step++ {
		if inHeap == 0 || rng.Intn(2) == 0 {
			// Monotone-ish workload (like SSSP): push keys >= last popped.
			k := lastPopped + uint64(rng.Intn(100))
			h.Push(k, k)
			inHeap++
		} else {
			k, ok := h.Pop()
			if !ok {
				t.Fatal("unexpected empty")
			}
			if k < lastPopped {
				t.Fatalf("non-monotone pop: %d after %d", k, lastPopped)
			}
			lastPopped = k
			inHeap--
		}
	}
}

func TestFIFOOrdering(t *testing.T) {
	q := NewFIFO[int](2)
	for i := 0; i < 10; i++ {
		q.Push(i)
	}
	if q.Len() != 10 {
		t.Fatalf("Len = %d", q.Len())
	}
	for i := 0; i < 10; i++ {
		got, ok := q.Pop()
		if !ok || got != i {
			t.Fatalf("Pop = (%d,%v), want %d", got, ok, i)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("Pop on empty FIFO returned ok")
	}
}

func TestFIFOWraparound(t *testing.T) {
	q := NewFIFO[int](4)
	for round := 0; round < 50; round++ {
		for i := 0; i < 3; i++ {
			q.Push(round*3 + i)
		}
		for i := 0; i < 3; i++ {
			got, ok := q.Pop()
			if !ok || got != round*3+i {
				t.Fatalf("round %d: Pop = (%d,%v)", round, got, ok)
			}
		}
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d after drain", q.Len())
	}
}

func TestFIFOGrowPreservesOrder(t *testing.T) {
	q := NewFIFO[int](4)
	// Offset head, then force growth.
	q.Push(-1)
	q.Push(-2)
	q.Pop()
	q.Pop()
	for i := 0; i < 100; i++ {
		q.Push(i)
	}
	for i := 0; i < 100; i++ {
		got, _ := q.Pop()
		if got != i {
			t.Fatalf("after grow: pop = %d, want %d", got, i)
		}
	}
}

// TestHeapMatchesSortedReference drives the heap with seeded random
// interleavings of pushes and pops — push-heavy, then pop-heavy, over a key
// range narrow enough that ties are the norm — and checks every pop against
// a reference kept sorted by key, then insertion order.
func TestHeapMatchesSortedReference(t *testing.T) {
	type ref struct {
		key uint64
		id  int
	}
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := NewHeap[int](0)
		var live []ref
		for id := 0; id < 20000; id++ {
			pushBias := 3 // pushes per 4 ops while growing, 1 per 4 while shrinking
			if (id/2500)%2 == 1 {
				pushBias = 1
			}
			if rng.Intn(4) >= pushBias {
				got, ok := h.Pop()
				if ok != (len(live) > 0) || (ok && got != live[0].id) {
					t.Fatalf("seed %d op %d: Pop = (%d,%v), reference %v", seed, id, got, ok, live[:min(1, len(live))])
				}
				if ok {
					live = live[1:]
				}
				continue
			}
			key := uint64(rng.Intn(1 + int(seed)*8))
			h.Push(id, key)
			// Insert after every entry with key <= this one: stable order.
			at := sort.Search(len(live), func(i int) bool { return live[i].key > key })
			live = append(live, ref{})
			copy(live[at+1:], live[at:])
			live[at] = ref{key, id}
		}
		if h.Len() != len(live) {
			t.Fatalf("seed %d: Len = %d, reference holds %d", seed, h.Len(), len(live))
		}
		for _, want := range live {
			if got, ok := h.Pop(); !ok || got != want.id {
				t.Fatalf("seed %d drain: Pop = (%d,%v), want %d", seed, got, ok, want.id)
			}
		}
	}
}

func TestPropertyFIFOPreservesSequence(t *testing.T) {
	f := func(items []int) bool {
		q := NewFIFO[int](1)
		for _, it := range items {
			q.Push(it)
		}
		for _, want := range items {
			got, ok := q.Pop()
			if !ok || got != want {
				return false
			}
		}
		return q.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyQueuesConserveItems(t *testing.T) {
	// Both disciplines must return exactly the multiset pushed.
	f := func(keys []uint64, fifo bool) bool {
		h, ring := NewHeap[uint64](0), NewFIFO[uint64](0)
		push, pop, size := func(k uint64) { h.Push(k, k) }, h.Pop, h.Len
		if fifo {
			push, pop, size = ring.Push, ring.Pop, ring.Len
		}
		want := map[uint64]int{}
		for _, k := range keys {
			push(k)
			want[k]++
		}
		if size() != len(keys) {
			return false
		}
		got := map[uint64]int{}
		for i := 0; i < len(keys); i++ {
			v, ok := pop()
			if !ok {
				return false
			}
			got[v]++
		}
		if len(got) != len(want) {
			return false
		}
		for k, c := range want {
			if got[k] != c {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// msgItem has the size and layout of runtime.Msg (which this package cannot
// import): the heap's cost is dominated by moving entries of this size.
type msgItem struct {
	target, from, seed uint32
	dist               uint64
	kind               uint8
}

// BenchmarkHeapPushPop measures one Push+Pop pair in the shape a traversal
// gives the heap: it fills to the stated number of live entries while the
// frontier expands (SSSP-like keys: a base that creeps up plus an edge
// weight), then drains. The all-equal-keys case is an unordered traversal on
// the heap — every Pop sinks the newest entry from the root to a leaf.
func BenchmarkHeapPushPop(b *testing.B) {
	run := func(name string, live int, spread uint64) {
		b.Run(name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			h := NewHeap[msgItem](live)
			for done := 0; done < b.N; done += live {
				for i := 0; i < live; i++ {
					k := uint64(i)/16*spread/64 + rng.Uint64()%(spread+1)
					h.Push(msgItem{target: uint32(i), from: uint32(i), seed: 1, dist: k, kind: 1}, k)
				}
				for i := 0; i < live; i++ {
					h.Pop()
				}
			}
		})
	}
	run("live=1K", 1<<10, 5000)
	run("live=64K", 1<<16, 5000)
	run("live=512K", 1<<19, 5000)
	run("live=64K/equal-keys", 1<<16, 0)
}

func BenchmarkFIFOPushPop(b *testing.B) {
	q := NewFIFO[uint64](4096)
	for i := 0; i < b.N; i++ {
		q.Push(uint64(i))
		if q.Len() > 2048 {
			q.Pop()
		}
	}
}
