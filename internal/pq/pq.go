// Package pq provides the queue substrate behind the runtime's message
// scheduling: an indexed 4-ary heap that keeps one live entry per slot
// (Indexed) and a ring-buffer FIFO. The paper's key optimization (§IV,
// §V-C) is draining each partition's visitor queue in distance-priority
// order instead of FIFO order; the runtime switches between the two
// disciplines with one flag, which is the ablation of Fig. 5/6. Heap, the
// push-only 4-ary heap, serves the sequential algorithms (SSSP, MST, the
// baselines). None of the queues is safe for concurrent use; the engine
// owns one set per rank, and Reset keeps allocated capacity so one queue
// serves many traversals without reallocation.
package pq

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

// FIFO is a growable first-in-first-out ring buffer. This is HavoqGT's
// default message queue, used as the baseline in the Fig. 5/6 ablation.
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

// Push appends item.
func (q *FIFO[T]) Push(item T) {
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
