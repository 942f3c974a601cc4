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
// Mehlhorn, Orlin and Tarjan, J. ACM 1990) in front of a 4-ary heap and a
// tie set, split at a key last: the first push into an empty queue sets
// last to its key. An entry keyed below last lives in the heap, one keyed
// exactly last in the tie set, and any other in the unordered bucket
// bits.Len64(key ^ last). Every heap key is below every tie's, and every
// bucketed key above it, so Pop takes the heap's minimum while the heap has
// one, and otherwise the lowest tied handle: the same (key, handle) minimum a
// plain heap would give. When both run dry, Pop takes the lowest non-empty
// bucket, raises last to its minimum key and re-places its entries: that
// key's ties go to the tie set, the rest to lower buckets, so a key is
// re-placed at most 64 times. Keys need not be monotone: an entry pushed
// below last goes to the heap and pops first.
//
// The tie set is a bitmap over handles, one bit per handle and one summary
// bit per 64-handle word, with a cursor at the lowest word that may hold a
// tie, so finding the lowest tie costs O(1) amortised and a tie neither
// enters nor leaves by sifting. On small-integer weights ties were most of
// the heap while they lived in it: on a 128×256 grid with weights 1–100 and
// 2,048 terminals, a mean pop found 122.7 entries in the heap at one rank,
// all of them ties, and 62.4 at two ranks, 47.0 of them ties, each sifted
// through 3–4 levels. The heap now holds only late arrivals below last: a
// peer's offer, or the first push of a BSP superstep.
//
// The heap array and the buckets hold 16-byte (key, handle) entries, so a
// sift moves 16 bytes per level whatever T is. Items, positions, locations
// and slot tags live beside them, indexed by handle, and a free list
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
	last  uint64        // heap keys are below last, ties at it, bucketed keys above it
	nb    int           // entries in buckets
	nt    int           // entries in the tie set
	tlo   uint          // no tie below word tlo of tie while nt > 0
	full  uint64        // bit b-1 set while bucket b is non-empty
	tie   []uint64      // bit h%64 of word h/64 set while entry h is a tie
	tsum  []uint64      // bit w%64 of word w/64 set while tie[w] is non-zero
	items []T           // by handle, for entries that carry one
	pos   []int32       // by handle: the entry's index in a or in its bucket
	bin   []uint8       // by handle: the entry's bucket, 0 for the heap, tied for the tie set
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

// tied is the bin of an entry in the tie set: above every bucket number.
const tied = 65

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
		if h%64 == 0 {
			q.tie = append(q.tie, 0)
			if h%(64*64) == 0 {
				q.tsum = append(q.tsum, 0)
			}
		}
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
	if q.Len() == 0 {
		q.last = key
	}
	q.place(ixEntry{key, h})
	return h, false
}

// move gives the queued entry h the key key: in place while it stays in the
// heap, in the tie set or in its bucket, otherwise out of one and into
// another. A tie moved below last goes to the heap, one moved above it to a
// bucket.
func (q *Indexed[T]) move(h int32, key uint64) {
	i, b := int(q.pos[h]), q.bin[h]
	switch {
	case b == tied:
		if key == q.last {
			return
		}
		q.untie(h)
	case b == 0 && key < q.last:
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

// place puts e, which is in none of the heap, the tie set and the buckets,
// where its key says: the heap for a key below last, the tie set for last
// itself, otherwise its bucket.
func (q *Indexed[T]) place(e ixEntry) {
	if e.key == q.last {
		q.tieOn(e.h)
		return
	}
	if e.key < q.last {
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

// tieOn adds entry h to the tie set.
func (q *Indexed[T]) tieOn(h int32) {
	w := uint(h) / 64
	if q.nt == 0 || w < q.tlo {
		q.tlo = w
	}
	q.bin[h] = tied
	q.tie[w] |= 1 << (uint(h) % 64)
	q.tsum[w/64] |= 1 << (w % 64)
	q.nt++
}

// untie removes entry h from the tie set.
func (q *Indexed[T]) untie(h int32) {
	w := uint(h) / 64
	if q.tie[w] &^= 1 << (uint(h) % 64); q.tie[w] == 0 {
		q.tsum[w/64] &^= 1 << (w % 64)
	}
	q.nt--
}

// lowestTie returns the lowest handle in the non-empty tie set. The search
// starts at the cursor and leaves it at the word it found, so across pops it
// passes each summary word once between two ties that lower the cursor.
func (q *Indexed[T]) lowestTie() int32 {
	w := q.tlo
	if q.tie[w] == 0 {
		i := w / 64
		s := q.tsum[i] &^ (1<<(w%64) - 1)
		for s == 0 {
			i++
			s = q.tsum[i]
		}
		w = i*64 + uint(bits.TrailingZeros64(s))
		q.tlo = w
	}
	return int32(w*64 + uint(bits.TrailingZeros64(q.tie[w])))
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

// refill moves the lowest non-empty bucket out of the way of an empty heap
// and tie set: last becomes the bucket's minimum key, whose entries become
// ties, and every other entry of the bucket goes to a lower one. Higher
// buckets stay as they are, since last does not change at or above their
// bit.
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
	var h int32
	if n := len(q.a) - 1; n >= 0 {
		h = q.a[0].h
		e := q.a[n]
		q.a = q.a[:n]
		if n > 0 {
			q.settle(0, e)
		}
	} else {
		if q.nt == 0 {
			if q.nb == 0 {
				return item, -1, false
			}
			q.refill()
		}
		h = q.lowestTie()
		q.untie(h)
	}
	t := q.tag[h]
	if t < 0 {
		var zero T
		item, q.items[h] = q.items[h], zero // release references
	}
	if slot = untag(t); slot >= 0 {
		q.live[slot] = 0
	}
	q.free = append(q.free, h)
	return item, slot, true
}

// untag returns the slot a push tagged t, negative for an ordinary entry.
func untag(t int32) int32 {
	if t < 0 {
		return -2 - t
	}
	return t
}

// Len returns the number of live entries: in the heap, in the tie set and in
// the buckets.
func (q *Indexed[T]) Len() int { return len(q.a) + q.nt + q.nb }

// Reset empties the queue, entries still queued included, keeping every
// array's capacity. It costs O(live entries + 64 + the summary words the
// search for ties passes), not O(slots): the ties are popped from the
// bitmap, which leaves it all zero for the handles the next traversal
// numbers from 0 again.
func (q *Indexed[T]) Reset() {
	for _, e := range q.a {
		q.forget(e.h)
	}
	q.a = q.a[:0]
	for b := range q.bk {
		for _, e := range q.bk[b] {
			q.forget(e.h)
		}
		q.bk[b] = q.bk[b][:0]
	}
	for q.nt > 0 {
		h := q.lowestTie()
		q.untie(h)
		q.forget(h)
	}
	q.last, q.nb, q.full = 0, 0, 0
	clear(q.items) // release references
	q.items = q.items[:0]
	q.pos = q.pos[:0]
	q.bin = q.bin[:0]
	q.tag = q.tag[:0]
	q.tie = q.tie[:0]
	q.tsum = q.tsum[:0]
	q.free = q.free[:0]
}

// forget releases the slot of the queued entry h.
func (q *Indexed[T]) forget(h int32) {
	if slot := untag(q.tag[h]); slot >= 0 {
		q.live[slot] = 0
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
