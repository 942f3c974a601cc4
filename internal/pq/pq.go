// Package pq provides the queue substrate behind the runtime's message
// scheduling: an indexed 4-ary heap that keeps one live entry per slot
// (Indexed), a ring-buffer FIFO, and a monotone bucket queue (Δ-stepping
// style). The paper's key optimization (§IV, §V-C) is draining each
// partition's visitor queue in distance-priority order instead of FIFO
// order; the runtime switches between the three disciplines with one flag,
// which is the ablation of Fig. 5/6. Heap, the push-only 4-ary heap, serves
// the sequential algorithms (SSSP, MST, the baselines).
package pq

// Queue is the common discipline-independent interface used by the runtime
// engine. Implementations are not safe for concurrent use; the engine owns
// one queue per rank.
type Queue[T any] interface {
	// Push inserts an item with the given priority key (lower = sooner).
	Push(item T, key uint64)
	// Pop removes the next item according to the discipline. ok is false
	// when the queue is empty.
	Pop() (item T, ok bool)
	// Len returns the number of queued items.
	Len() int
	// Reset empties the queue and rewinds discipline state (the bucket
	// cursor, FIFO ring indices) while keeping allocated capacity, so
	// one queue can serve many traversals without reallocation.
	Reset()
}

// Heap is a 4-ary min-heap priority queue over one array of (key, seq, item)
// entries. Ties are broken by insertion order (FIFO among equal keys) so
// that behaviour is deterministic. Sifting moves a hole instead of swapping:
// one entry write per level, and a fan-out of 4 halves the levels a Pop
// descends.
type Heap[T any] struct {
	a   []heapEntry[T]
	seq uint64
}

type heapEntry[T any] struct {
	key, seq uint64
	item     T
}

// before reports whether e pops before o: key order, then insertion order.
func (e *heapEntry[T]) before(o *heapEntry[T]) bool {
	return e.key < o.key || (e.key == o.key && e.seq < o.seq)
}

// NewHeap returns an empty priority queue with optional capacity hint.
func NewHeap[T any](capacity int) *Heap[T] {
	return &Heap[T]{a: make([]heapEntry[T], 0, capacity)}
}

// Push inserts item with priority key.
func (h *Heap[T]) Push(item T, key uint64) {
	e := heapEntry[T]{key: key, seq: h.seq, item: item}
	h.seq++
	i := len(h.a)
	h.a = append(h.a, e)
	a := h.a
	// e is the newest entry, so it rises only past strictly larger keys.
	for i > 0 {
		p := (i - 1) / 4
		if a[p].key <= key {
			break
		}
		a[i] = a[p]
		i = p
	}
	a[i] = e
}

// Pop removes the minimum-key item.
func (h *Heap[T]) Pop() (T, bool) {
	var zero T
	n := len(h.a) - 1
	if n < 0 {
		return zero, false
	}
	top := h.a[0].item
	e := h.a[n]
	h.a[n] = heapEntry[T]{} // release reference
	a := h.a[:n]
	h.a = a
	if n == 0 {
		return top, true
	}
	// Sink the hole left at the root to a leaf along the smallest children,
	// then let e rise from there: e came from the bottom row, so it rarely
	// rises far, and the descent saves the comparison against e per level.
	i := 0
	for c := 1; c < n; c = 4*i + 1 {
		m := c
		for j := c + 1; j < c+4 && j < n; j++ {
			if a[j].before(&a[m]) {
				m = j
			}
		}
		a[i] = a[m]
		i = m
	}
	for i > 0 {
		p := (i - 1) / 4
		if !e.before(&a[p]) {
			break
		}
		a[i] = a[p]
		i = p
	}
	a[i] = e
	return top, true
}

// Len returns the number of queued items.
func (h *Heap[T]) Len() int { return len(h.a) }

// Reset empties the heap, keeping the allocated array.
func (h *Heap[T]) Reset() {
	clear(h.a) // release references
	h.a = h.a[:0]
	h.seq = 0
}

// FIFO is a growable ring buffer implementing Queue with first-in-first-out
// discipline (priority keys are ignored). This is HavoqGT's default message
// queue, used as the baseline in the Fig. 5/6 ablation.
type FIFO[T any] struct {
	buf        []T
	head, size int
}

// NewFIFO returns an empty FIFO with optional capacity hint.
func NewFIFO[T any](capacity int) *FIFO[T] {
	if capacity < 4 {
		capacity = 4
	}
	return &FIFO[T]{buf: make([]T, capacity)}
}

// Push appends item; key is ignored.
func (q *FIFO[T]) Push(item T, _ uint64) {
	if q.size == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.size)%len(q.buf)] = item
	q.size++
}

// Pop removes the oldest item.
func (q *FIFO[T]) Pop() (T, bool) {
	var zero T
	if q.size == 0 {
		return zero, false
	}
	item := q.buf[q.head]
	q.buf[q.head] = zero
	q.head = (q.head + 1) % len(q.buf)
	q.size--
	return item, true
}

// Len returns the number of queued items.
func (q *FIFO[T]) Len() int { return q.size }

// Reset empties the ring, keeping the allocated buffer.
func (q *FIFO[T]) Reset() {
	var zero T
	for q.size > 0 {
		q.buf[q.head] = zero
		q.head = (q.head + 1) % len(q.buf)
		q.size--
	}
	q.head = 0
}

func (q *FIFO[T]) grow() {
	nbuf := make([]T, 2*len(q.buf))
	for i := 0; i < q.size; i++ {
		nbuf[i] = q.buf[(q.head+i)%len(q.buf)]
	}
	q.buf = nbuf
	q.head = 0
}

// drainTo appends every queued item to dst in FIFO order and empties the
// ring, keeping the allocated buffer.
func (q *FIFO[T]) drainTo(dst []T) []T {
	var zero T
	for q.size > 0 {
		dst = append(dst, q.buf[q.head])
		q.buf[q.head] = zero
		q.head = (q.head + 1) % len(q.buf)
		q.size--
	}
	q.head = 0
	return dst
}

// Bucket is a monotone bucket queue: items with keys in [iΔ, (i+1)Δ) share
// bucket i and are drained FIFO within a bucket. It approximates a priority
// queue with O(1) operations and is the discipline behind Δ-stepping SSSP
// (discussed as related work in §III). Keys smaller than the current bucket
// are tolerated (they land in the current bucket), so Bellman-Ford-style
// re-relaxations remain correct.
type Bucket[T any] struct {
	delta   uint64
	buckets map[uint64]*FIFO[T]
	cur     uint64
	size    int
}

// NewBucket returns a bucket queue with width delta (0 means delta 1).
func NewBucket[T any](delta uint64) *Bucket[T] {
	if delta == 0 {
		delta = 1
	}
	return &Bucket[T]{delta: delta, buckets: map[uint64]*FIFO[T]{}}
}

// Push inserts item into bucket key/delta (clamped to the current bucket).
func (b *Bucket[T]) Push(item T, key uint64) {
	idx := key / b.delta
	if idx < b.cur {
		idx = b.cur
	}
	q := b.buckets[idx]
	if q == nil {
		q = NewFIFO[T](8)
		b.buckets[idx] = q
	}
	q.Push(item, key)
	b.size++
}

// Pop removes an item from the lowest non-empty bucket. When the current
// bucket drains, the cursor jumps directly to the smallest non-empty bucket
// index (an O(#buckets) scan — buckets are few because only keys between
// the frontier and frontier+maxEdgeWeight are live in SSSP workloads).
func (b *Bucket[T]) Pop() (T, bool) {
	var zero T
	if b.size == 0 {
		return zero, false
	}
	q := b.buckets[b.cur]
	if q == nil || q.Len() == 0 {
		first := true
		for idx := range b.buckets {
			if first || idx < b.cur {
				b.cur = idx
				first = false
			}
		}
		q = b.buckets[b.cur]
	}
	item, _ := q.Pop()
	b.size--
	if q.Len() == 0 {
		delete(b.buckets, b.cur)
	}
	return item, true
}

// DrainBucket removes the entire current bucket — advancing the cursor to
// the smallest non-empty bucket first, exactly like Pop — and appends its
// items to dst in FIFO order, returning the extended slice. The drained
// items are precisely the prefix a sequence of Pop calls would yield before
// the cursor next moves, which is what makes them a Δ-stepping frontier:
// their keys share one [iΔ, (i+1)Δ) window, so their relaxations commute up
// to the per-vertex lex-min merge. An empty queue returns dst unchanged.
func (b *Bucket[T]) DrainBucket(dst []T) []T {
	if b.size == 0 {
		return dst
	}
	q := b.buckets[b.cur]
	if q == nil || q.Len() == 0 {
		first := true
		for idx := range b.buckets {
			if first || idx < b.cur {
				b.cur = idx
				first = false
			}
		}
		q = b.buckets[b.cur]
	}
	b.size -= q.Len()
	dst = q.drainTo(dst)
	delete(b.buckets, b.cur)
	return dst
}

// Len returns the number of queued items.
func (b *Bucket[T]) Len() int { return b.size }

// Reset empties the queue and rewinds the bucket cursor to zero so a fresh
// traversal's small keys open new low buckets instead of being clamped to
// the previous run's final bucket.
func (b *Bucket[T]) Reset() {
	clear(b.buckets)
	b.cur = 0
	b.size = 0
}

// Compile-time interface checks.
var (
	_ Queue[int] = (*Heap[int])(nil)
	_ Queue[int] = (*FIFO[int])(nil)
	_ Queue[int] = (*Bucket[int])(nil)
)
