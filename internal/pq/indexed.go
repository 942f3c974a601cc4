package pq

// Indexed is the priority discipline of a traversal whose items have a home:
// a 4-ary min-heap that keeps at most one live entry per slot. A push for a
// slot that already has a queued entry replaces that entry's item and moves
// its key (decrease-key, or increase-key), so an item superseded while queued
// is never popped. A push with a negative slot is an ordinary entry that
// nothing replaces.
//
// The heap array holds 16-byte (key, handle) entries, so a sift moves 16
// bytes per level whatever T is. Items, heap positions and slots live beside
// it, indexed by handle, and a free list recycles the handles of popped
// entries. Ties break on handle: deterministic for a deterministic sequence of
// operations, but not insertion order. The slot→handle table grows to the
// largest slot pushed; it and every other array keep their capacity across
// Reset, so one queue serves many traversals without reallocation.
//
// The slice headers change on every push and pop, and each rank of a
// traversal drives its own queue, so the headers are padded off the cache
// lines of whatever the allocator puts next to them: unpadded, two ranks'
// queues land side by side in one size class and write-share a line.
type Indexed[T any] struct {
	_     [cacheLine]byte
	a     []ixEntry
	items []T     // by handle
	pos   []int32 // by handle: the entry's index in a
	slot  []int32 // by handle: the slot the entry holds, negative for none
	free  []int32 // handles of popped entries, reused before new ones
	live  []int32 // by slot: 1 + the handle of its queued entry, 0 for none
	_     [cacheLine]byte
}

// cacheLine is the padding on each side of Indexed's headers. Two queues'
// headers end up at least twice this far apart, which also keeps them out of
// one 128-byte adjacent-line prefetch pair.
const cacheLine = 64

type ixEntry struct {
	key uint64
	h   int32
}

// before reports whether e pops before o: key order, then handle order.
func (e ixEntry) before(o ixEntry) bool {
	return e.key < o.key || (e.key == o.key && e.h < o.h)
}

// NewIndexed returns an empty indexed heap with an optional capacity hint
// for the number of live entries.
func NewIndexed[T any](capacity int) *Indexed[T] {
	return &Indexed[T]{
		a:     make([]ixEntry, 0, capacity),
		items: make([]T, 0, capacity),
		pos:   make([]int32, 0, capacity),
		slot:  make([]int32, 0, capacity),
	}
}

// Push queues item under key. With slot ≥ 0 and an entry already queued for
// that slot, the entry takes item and key in place of its own and Push
// reports true: the item it held is gone, never to be popped. Otherwise a new
// entry is queued and Push reports false.
func (q *Indexed[T]) Push(item T, key uint64, slot int32) (replaced bool) {
	if slot >= 0 {
		if int(slot) >= len(q.live) {
			q.live = append(q.live, make([]int32, int(slot)+1-len(q.live))...)
		}
		if l := q.live[slot]; l != 0 {
			h := l - 1
			q.items[h] = item
			i := int(q.pos[h])
			e := q.a[i]
			switch {
			case key < e.key:
				q.up(i, ixEntry{key, h})
			case key > e.key:
				q.settle(i, ixEntry{key, h})
			}
			return true
		}
	}
	var h int32
	if n := len(q.free); n > 0 {
		h = q.free[n-1]
		q.free = q.free[:n-1]
		q.items[h] = item
	} else {
		h = int32(len(q.items))
		q.items = append(q.items, item)
		q.pos = append(q.pos, 0)
		q.slot = append(q.slot, 0)
	}
	q.slot[h] = slot
	if slot >= 0 {
		q.live[slot] = h + 1
	}
	q.a = append(q.a, ixEntry{})
	q.up(len(q.a)-1, ixEntry{key, h})
	return false
}

// Pop removes the minimum entry and returns its item.
func (q *Indexed[T]) Pop() (T, bool) {
	var zero T
	n := len(q.a) - 1
	if n < 0 {
		return zero, false
	}
	h := q.a[0].h
	item := q.items[h]
	q.items[h] = zero // release references
	if s := q.slot[h]; s >= 0 {
		q.live[s] = 0
	}
	q.free = append(q.free, h)
	e := q.a[n]
	q.a = q.a[:n]
	if n > 0 {
		q.settle(0, e)
	}
	return item, true
}

// Len returns the number of live entries.
func (q *Indexed[T]) Len() int { return len(q.a) }

// Reset empties the heap, entries still queued included, keeping every
// array's capacity. It costs O(live entries), not O(slots).
func (q *Indexed[T]) Reset() {
	for _, e := range q.a {
		if s := q.slot[e.h]; s >= 0 {
			q.live[s] = 0
		}
	}
	clear(q.items) // release references
	q.a = q.a[:0]
	q.items = q.items[:0]
	q.pos = q.pos[:0]
	q.slot = q.slot[:0]
	q.free = q.free[:0]
}

// up moves the hole at i toward the root past every entry e pops before, and
// puts e where it stops.
func (q *Indexed[T]) up(i int, e ixEntry) {
	a := q.a
	for i > 0 {
		p := (i - 1) / 4
		if !e.before(a[p]) {
			break
		}
		a[i] = a[p]
		q.pos[a[i].h] = int32(i)
		i = p
	}
	a[i] = e
	q.pos[e.h] = int32(i)
}

// settle puts e at the hole i, where e pops no sooner than the entry the hole
// held: the hole sinks to a leaf along the smallest children, then e rises
// from there. e rarely rises far, and the descent saves the comparison with e
// at every level (see Heap.Pop).
func (q *Indexed[T]) settle(i int, e ixEntry) {
	a := q.a
	n := len(a)
	for c := 4*i + 1; c < n; c = 4*i + 1 {
		m := c
		for j := c + 1; j < c+4 && j < n; j++ {
			if a[j].before(a[m]) {
				m = j
			}
		}
		a[i] = a[m]
		q.pos[a[i].h] = int32(i)
		i = m
	}
	q.up(i, e)
}
