package graph

// SortByKey sorts s stably into ascending key order with an LSD radix sort
// over the key's eight bytes. One counting pass histograms every byte at
// once; a byte in which all keys agree is skipped, so the sort costs one
// scatter pass per byte position in which keys differ, and none for equal
// keys. scratch is the ping-pong buffer, grown to len(s) when short and kept
// for the caller's next sort; it must not overlap s. A composite order sorts
// by its least significant field first: stability carries each pass's order
// into the next.
func SortByKey[T any](s []T, scratch *[]T, key func(T) uint64) {
	n := len(s)
	if n < 2 {
		return
	}
	var count [8][256]int
	for _, x := range s {
		k := key(x)
		count[0][byte(k)]++
		count[1][byte(k>>8)]++
		count[2][byte(k>>16)]++
		count[3][byte(k>>24)]++
		count[4][byte(k>>32)]++
		count[5][byte(k>>40)]++
		count[6][byte(k>>48)]++
		count[7][byte(k>>56)]++
	}
	src, dst := s, []T(nil)
	first := key(s[0])
	for b := range count {
		c := &count[b]
		if c[byte(first>>(8*b))] == n {
			continue // every key has this byte
		}
		if dst == nil {
			if cap(*scratch) < n {
				*scratch = make([]T, n)
			}
			dst = (*scratch)[:n]
		}
		sum := 0
		for i, m := range c {
			c[i] = sum
			sum += m
		}
		shift := 8 * b
		for _, x := range src {
			d := byte(key(x) >> shift)
			dst[c[d]] = x
			c[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &s[0] {
		copy(s, src)
	}
}
