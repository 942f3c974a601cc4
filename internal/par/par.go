// Package par runs independent per-rank work side by side without letting
// the fan-out outgrow the machine: a rank's build holds scratch sized by the
// whole graph (a VID-indexed table, a vertex bitmap), so the ranks built at
// once, not the ranks in the session, bound the peak.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Each calls fn(i) once for every i in [0, n) and returns when all calls
// have. The calls run on at most runtime.GOMAXPROCS(0) goroutines, each
// taking the next unclaimed index; with one goroutine's worth of work (n or
// GOMAXPROCS at most 1) they run in order on the caller's. fn must be safe to
// call concurrently for distinct i.
func Each(n int, fn func(i int)) {
	workers := min(n, runtime.GOMAXPROCS(0))
	if workers <= 1 {
		for i := range n {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				fn(i)
			}
		}()
	}
	wg.Wait()
}
