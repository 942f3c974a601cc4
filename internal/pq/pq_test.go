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
		q.Push(i, uint64(100-i)) // keys must be ignored
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
			q.Push(round*3+i, 0)
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
	q.Push(-1, 0)
	q.Push(-2, 0)
	q.Pop()
	q.Pop()
	for i := 0; i < 100; i++ {
		q.Push(i, 0)
	}
	for i := 0; i < 100; i++ {
		got, _ := q.Pop()
		if got != i {
			t.Fatalf("after grow: pop = %d, want %d", got, i)
		}
	}
}

func TestBucketOrdering(t *testing.T) {
	b := NewBucket[uint64](10)
	for _, k := range []uint64{95, 5, 42, 17, 3, 88} {
		b.Push(k, k)
	}
	var got []uint64
	for {
		v, ok := b.Pop()
		if !ok {
			break
		}
		got = append(got, v)
	}
	if len(got) != 6 {
		t.Fatalf("drained %d items", len(got))
	}
	// Bucket queue guarantees bucket-level ordering: item keys can be out
	// of order within a Δ=10 bucket but bucket indices must not decrease.
	for i := 1; i < len(got); i++ {
		if got[i]/10 < got[i-1]/10 {
			t.Fatalf("bucket order violated: %v", got)
		}
	}
}

func TestBucketLateArrivalsClampToCurrentBucket(t *testing.T) {
	b := NewBucket[uint64](10)
	b.Push(55, 55)
	if v, _ := b.Pop(); v != 55 {
		t.Fatal("wrong pop")
	}
	// Key 5 arrives after cursor passed bucket 0; it must still be popped.
	b.Push(5, 5)
	v, ok := b.Pop()
	if !ok || v != 5 {
		t.Fatalf("late arrival lost: (%d,%v)", v, ok)
	}
}

func TestBucketZeroDelta(t *testing.T) {
	b := NewBucket[int](0) // defaults to 1 => exact priority order
	for _, k := range []uint64{9, 1, 5} {
		b.Push(int(k), k)
	}
	want := []int{1, 5, 9}
	for _, w := range want {
		got, _ := b.Pop()
		if got != w {
			t.Fatalf("pop = %d, want %d", got, w)
		}
	}
	if _, ok := b.Pop(); ok {
		t.Fatal("empty bucket popped")
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
			q.Push(it, 0)
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
	// All three disciplines must return exactly the multiset pushed.
	f := func(keys []uint64, pick uint8) bool {
		var q Queue[uint64]
		switch pick % 3 {
		case 0:
			q = NewHeap[uint64](0)
		case 1:
			q = NewFIFO[uint64](0)
		default:
			q = NewBucket[uint64](16)
		}
		want := map[uint64]int{}
		for _, k := range keys {
			q.Push(k, k)
			want[k]++
		}
		if q.Len() != len(keys) {
			return false
		}
		got := map[uint64]int{}
		for i := 0; i < len(keys); i++ {
			v, ok := q.Pop()
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
		q.Push(uint64(i), 0)
		if q.Len() > 2048 {
			q.Pop()
		}
	}
}

// TestDrainBucketMatchesPop checks that DrainBucket removes exactly the
// items a sequence of Pops would yield before the cursor next advances,
// in the same order, against a mirrored Bucket driven by Pop.
func TestDrainBucketMatchesPop(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := NewBucket[uint64](16)
	b := NewBucket[uint64](16)
	push := func(v, k uint64) { a.Push(v, k); b.Push(v, k) }
	for i := 0; i < 500; i++ {
		k := uint64(rng.Intn(1 << 10))
		push(uint64(i), k)
	}
	var drained []uint64
	for a.Len() > 0 {
		drained = a.DrainBucket(drained[:0])
		if len(drained) == 0 {
			t.Fatal("DrainBucket returned nothing from a non-empty queue")
		}
		for i, want := range drained {
			got, ok := b.Pop()
			if !ok || got != want {
				t.Fatalf("drain item %d = %d, Pop = (%d,%v)", i, want, got, ok)
			}
		}
		if a.Len() != b.Len() {
			t.Fatalf("Len after drain = %d, Pop mirror = %d", a.Len(), b.Len())
		}
		// Interleave pushes that clamp into the current bucket, as local
		// sends during a drained-frontier visit do.
		if a.Len() > 0 && rng.Intn(2) == 0 {
			push(9999, 0) // below cursor: clamps to current bucket
		}
	}
	if _, ok := b.Pop(); ok {
		t.Fatal("mirror queue not empty after drains")
	}
}

func TestDrainBucketEmpty(t *testing.T) {
	b := NewBucket[int](4)
	if got := b.DrainBucket(nil); len(got) != 0 {
		t.Fatalf("DrainBucket on empty queue = %v", got)
	}
	b.Push(1, 3)
	b.Push(2, 2)
	got := b.DrainBucket(nil)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("DrainBucket = %v, want [1 2] (same Δ-window, FIFO)", got)
	}
	if b.Len() != 0 {
		t.Fatalf("Len = %d after full drain", b.Len())
	}
}
