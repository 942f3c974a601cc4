package pq

import "math/bits"

// Indexed is the priority discipline of a traversal whose items have a home:
// a min-queue that keeps at most one live entry per slot. A push for a slot
// that already has a queued entry replaces that entry's item and moves its
// key (decrease-key, or increase-key), so an item superseded while queued is
// never popped. A push with a negative slot is an ordinary entry that
// nothing replaces. An entry queued by PushSlot is its slot alone: when the
// slot names everything the caller needs — the row of a vertex whose label
// lives in the caller's own state — neither its push nor its pop touches an
// item.
//
// Entries pop in (key, handle) order. The queue is a radix heap (Ahuja,
// Mehlhorn, Orlin and Tarjan, J. ACM 1990) in front of a 4-ary heap, split
// at a key last: the first push into an empty queue sets last to its key.
// An entry keyed at most last lives in the heap, any other in the unordered
// bucket bits.Len64(key ^ last). Every bucketed key is above last and last
// is at least every heap key, so the heap's minimum is the queue's. When
// the heap runs dry, Pop takes the lowest non-empty bucket, raises last to
// its minimum key and re-places its entries: that key's ties go to the heap,
// the rest to lower buckets, so a key is re-placed at most 64 times. The
// heap holds the current key's ties, plus any late arrival below last,
// instead of the whole frontier. Keys need not be monotone: an entry pushed
// below last goes to the heap and pops first.
//
// The heap array and the buckets hold 16-byte (key, handle) entries, so a
// sift moves 16 bytes per level whatever T is. Items, positions, bucket
// numbers and slot tags live beside them, indexed by handle, and a free list
// recycles the handles of popped entries. Ties break on handle:
// deterministic for a deterministic sequence of operations, but not
// insertion order. The slot→handle table grows to the largest slot pushed;
// it and every other array keep their capacity across Reset, so one queue
// serves many traversals without reallocation.
//
// The headers change on every push and pop, and each rank of a traversal
// drives its own queue, so they are padded off the cache lines of whatever
// the allocator puts next to them: unpadded, two ranks' queues land side by
// side in one size class and write-share a line.
type Indexed[T any] struct {
	_     [cacheLine]byte
	a     []ixEntry     // the heap
	last  uint64        // heap keys are at most last, bucketed keys above it
	nb    int           // entries in buckets
	full  uint64        // bit b-1 set while bucket b is non-empty
	items []T           // by handle, for entries that carry one
	pos   []int32       // by handle: the entry's index in a or in its bucket
	bin   []uint8       // by handle: the entry's bucket, 0 for the heap
	tag   []int32       // by handle: see push
	free  []int32       // handles of popped entries, reused before new ones
	live  []int32       // by slot: 1 + the handle of its queued entry, 0 for none
	bk    [64][]ixEntry // bk[b-1] is bucket b: keys above last, bits.Len64(key^last) == b
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

// NewIndexed returns an empty indexed queue with an optional capacity hint
// for the number of live entries.
func NewIndexed[T any](capacity int) *Indexed[T] {
	return &Indexed[T]{
		a:     make([]ixEntry, 0, capacity),
		items: make([]T, 0, capacity),
		pos:   make([]int32, 0, capacity),
		bin:   make([]uint8, 0, capacity),
		tag:   make([]int32, 0, capacity),
	}
}

// Push queues item under key. With slot ≥ 0 and an entry already queued for
// that slot, the entry takes item and key in place of its own and Push
// reports true: the item it held is gone, never to be popped. Otherwise a new
// entry is queued and Push reports false.
func (q *Indexed[T]) Push(item T, key uint64, slot int32) (replaced bool) {
	h, replaced := q.push(key, slot, -2-slot)
	q.items[h] = item
	return replaced
}

// PushSlot is Push for an entry that is its slot ≥ 0 alone: it writes no item,
// and Pop returns the zero T for it without reading one.
func (q *Indexed[T]) PushSlot(key uint64, slot int32) (replaced bool) {
	_, replaced = q.push(key, slot, slot)
	return replaced
}

// push queues key for slot, or as an ordinary entry for a negative slot,
// tags the entry and returns its handle. An entry already queued for the
// slot takes the key and the tag in place of its own. The tag says what Pop
// finds: slot ≥ 0 for a PushSlot entry, and -2 - slot for an entry with an
// item, so an ordinary entry's tag is -1 (untag inverts either).
func (q *Indexed[T]) push(key uint64, slot, tag int32) (h int32, replaced bool) {
	if slot >= 0 {
		if int(slot) >= len(q.live) {
			q.live = append(q.live, make([]int32, int(slot)+1-len(q.live))...)
		}
		if l := q.live[slot]; l != 0 {
			h = l - 1
			q.tag[h] = tag
			q.move(h, key)
			return h, true
		}
	}
	if n := len(q.free); n > 0 {
		h = q.free[n-1]
		q.free = q.free[:n-1]
	} else {
		h = int32(len(q.pos))
		var zero T
		q.items = append(q.items, zero)
		q.pos = append(q.pos, 0)
		q.bin = append(q.bin, 0)
		q.tag = append(q.tag, 0)
	}
	q.tag[h] = tag
	if slot >= 0 {
		q.live[slot] = h + 1
	}
	if len(q.a)+q.nb == 0 {
		q.last = key
	}
	q.place(ixEntry{key, h})
	return h, false
}

// move gives the queued entry h the key key: in place while it stays in the
// heap or in its bucket, otherwise out of one and into the other or into
// another bucket.
func (q *Indexed[T]) move(h int32, key uint64) {
	i, b := int(q.pos[h]), q.bin[h]
	switch {
	case b == 0 && key <= q.last:
		switch e := q.a[i]; {
		case key < e.key:
			q.up(i, ixEntry{key, h})
		case key > e.key:
			q.settle(i, ixEntry{key, h})
		}
		return
	case b == 0:
		n := len(q.a) - 1
		e := q.a[n]
		q.a = q.a[:n]
		if i < n {
			q.settle(i, e)
		}
	case uint8(bits.Len64(key^q.last)) == b:
		// last has a 0 at bit b-1, so only a key above last maps here.
		q.bk[b-1][i].key = key
		return
	default:
		q.unbucket(b, i)
	}
	q.place(ixEntry{key, h})
}

// place puts e, which is in neither the heap nor a bucket, where its key
// says: the heap for a key at most last, otherwise its bucket.
func (q *Indexed[T]) place(e ixEntry) {
	if e.key <= q.last {
		q.bin[e.h] = 0
		q.a = append(q.a, ixEntry{})
		q.up(len(q.a)-1, e)
		return
	}
	b := bits.Len64(e.key ^ q.last)
	q.bin[e.h] = uint8(b)
	s := q.bk[b-1]
	if len(s) == cap(s) {
		// Double, where append would add a quarter: a bucket's high-water
		// mark varies from traversal to traversal, and a warm queue should
		// not reallocate for a few entries more than last time.
		s = append(make([]ixEntry, 0, 2*cap(s)+16), s...)
	}
	q.pos[e.h] = int32(len(s))
	q.bk[b-1] = append(s, e)
	q.full |= 1 << (b - 1)
	q.nb++
}

// unbucket removes the entry at index i of bucket b, filling the gap with
// the bucket's last entry.
func (q *Indexed[T]) unbucket(b uint8, i int) {
	s := q.bk[b-1]
	n := len(s) - 1
	if i < n {
		s[i] = s[n]
		q.pos[s[i].h] = int32(i)
	}
	q.bk[b-1] = s[:n]
	if n == 0 {
		q.full &^= 1 << (b - 1)
	}
	q.nb--
}

// refill moves the lowest non-empty bucket out of the way of an empty heap:
// last becomes the bucket's minimum key, whose entries go to the heap, and
// every other entry of the bucket goes to a lower one. Higher buckets stay
// as they are, since last does not change at or above their bit.
func (q *Indexed[T]) refill() {
	lo := bits.TrailingZeros64(q.full) // bucket lo+1
	s := q.bk[lo]
	m := s[0].key
	for _, e := range s[1:] {
		m = min(m, e.key)
	}
	q.last = m
	q.bk[lo] = s[:0]
	q.full &^= 1 << lo
	q.nb -= len(s)
	for _, e := range s {
		q.place(e)
	}
}

// Pop removes the minimum entry and returns its item — the zero T for a
// PushSlot entry — and its slot, negative for an ordinary entry.
func (q *Indexed[T]) Pop() (item T, slot int32, ok bool) {
	if len(q.a) == 0 {
		if q.nb == 0 {
			return item, -1, false
		}
		q.refill()
	}
	n := len(q.a) - 1
	h := q.a[0].h
	t := q.tag[h]
	if t < 0 {
		var zero T
		item, q.items[h] = q.items[h], zero // release references
	}
	if slot = untag(t); slot >= 0 {
		q.live[slot] = 0
	}
	q.free = append(q.free, h)
	e := q.a[n]
	q.a = q.a[:n]
	if n > 0 {
		q.settle(0, e)
	}
	return item, slot, true
}

// untag returns the slot a push tagged t, negative for an ordinary entry.
func untag(t int32) int32 {
	if t < 0 {
		return -2 - t
	}
	return t
}

// Len returns the number of live entries, in the heap and in the buckets.
func (q *Indexed[T]) Len() int { return len(q.a) + q.nb }

// Reset empties the queue, entries still queued included, keeping every
// array's capacity. It costs O(live entries + 64), not O(slots).
func (q *Indexed[T]) Reset() {
	q.forget(q.a)
	q.a = q.a[:0]
	for b := range q.bk {
		q.forget(q.bk[b])
		q.bk[b] = q.bk[b][:0]
	}
	q.last, q.nb, q.full = 0, 0, 0
	clear(q.items) // release references
	q.items = q.items[:0]
	q.pos = q.pos[:0]
	q.bin = q.bin[:0]
	q.tag = q.tag[:0]
	q.free = q.free[:0]
}

// forget releases the slots of the queued entries s.
func (q *Indexed[T]) forget(s []ixEntry) {
	for _, e := range s {
		if slot := untag(q.tag[e.h]); slot >= 0 {
			q.live[slot] = 0
		}
	}
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
