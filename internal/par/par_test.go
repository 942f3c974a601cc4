package par

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// TestEachCallsEveryIndexOnceWithinTheCoreBound checks Each visits every
// index exactly once and never runs more calls at once than GOMAXPROCS.
func TestEachCallsEveryIndexOnceWithinTheCoreBound(t *testing.T) {
	for _, procs := range []int{1, 2, 3} {
		prev := runtime.GOMAXPROCS(procs)
		for _, n := range []int{0, 1, 2, 5, 64} {
			calls := make([]atomic.Int32, n)
			var running, peak atomic.Int32
			Each(n, func(i int) {
				now := running.Add(1)
				for p := peak.Load(); now > p && !peak.CompareAndSwap(p, now); p = peak.Load() {
				}
				calls[i].Add(1)
				runtime.Gosched()
				running.Add(-1)
			})
			for i := range calls {
				if c := calls[i].Load(); c != 1 {
					t.Fatalf("GOMAXPROCS %d, n %d: index %d called %d times", procs, n, i, c)
				}
			}
			if p := int(peak.Load()); p > procs {
				t.Fatalf("GOMAXPROCS %d, n %d: %d calls ran at once", procs, n, p)
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}
