package runtime

import "sync"

// collective implements all blocking collectives (barrier and allreduce)
// with a single serialized reduction round. Like MPI, every rank must call
// collectives in the same program order; a rank that panics poisons the
// communicator so blocked peers abort instead of hanging.
type collective struct {
	mu      sync.Mutex
	n       int
	arrived int
	acc     any
	ch      chan any
	abort   <-chan struct{}
}

func newCollective(n int, abort <-chan struct{}) *collective {
	return &collective{n: n, ch: make(chan any, n-1), abort: abort}
}

// errAborted is the panic payload raised on ranks blocked in a collective
// or traversal when a peer rank panics.
const errAborted = "runtime: communicator poisoned by a peer rank panic"

// poison unblocks every rank waiting on collectives or traversals.
func (c *Comm) poison() {
	c.abortOnce.Do(func() { close(c.abort) })
}

// reduce combines each rank's contribution with an associative,
// commutative combiner and returns the result to every rank.
func (c *collective) reduce(local any, combine func(a, b any) any) any {
	c.mu.Lock()
	if c.arrived == 0 {
		c.acc = local
	} else {
		c.acc = combine(c.acc, local)
	}
	c.arrived++
	if c.arrived == c.n {
		res := c.acc
		ch := c.ch
		c.arrived = 0
		c.acc = nil
		c.ch = make(chan any, c.n-1)
		c.mu.Unlock()
		for i := 0; i < c.n-1; i++ {
			ch <- res
		}
		return res
	}
	ch := c.ch
	c.mu.Unlock()
	select {
	case res := <-ch:
		return res
	case <-c.abort:
		panic(errAborted)
	}
}

// combineOp returns the in-process combiner for an int64 collective.
func combineOp(op CollOp) func(a, b any) any {
	switch op {
	case OpMin:
		return func(a, b any) any {
			if b.(int64) < a.(int64) {
				return b
			}
			return a
		}
	case OpMax:
		return func(a, b any) any {
			if b.(int64) > a.(int64) {
				return b
			}
			return a
		}
	default: // OpSum, OpBarrier (value unused)
		return func(a, b any) any { return a.(int64) + b.(int64) }
	}
}

// leaderTag carries a wire-collective result from the process leader (the
// lowest hosted rank) to its sibling ranks through a second local round.
type leaderTag struct {
	has bool
	val any
}

// pickLeader is the local combiner of the distribution round.
func pickLeader(a, b any) any {
	if a.(leaderTag).has {
		return a
	}
	return b
}

// wireInt64 runs one hierarchical int64 collective: combine the hosted
// ranks' contributions in-process, let the leader exchange the process
// partial with the other processes over the transport, then distribute the
// global result locally. Every hosted rank must call it (same program
// order), like any collective.
func (c *Comm) wireInt64(r *Rank, op CollOp, x int64) int64 {
	local := c.coll.reduce(x, combineOp(op)).(int64)
	var tag leaderTag
	if r.id == c.lo {
		tag = leaderTag{has: true, val: c.trans.AllreduceInt64(op, local)}
	}
	return c.coll.reduce(tag, pickLeader).(leaderTag).val.(int64)
}

// Barrier blocks until every rank reaches it (MPI_Barrier). Across a
// transport it is also a delivery fence: message batches sent by any rank
// before its barrier are in the destination mailboxes afterwards.
func (r *Rank) Barrier() {
	c := r.comm
	if c.trans == nil {
		c.coll.reduce(nil, func(a, _ any) any { return a })
		return
	}
	c.coll.reduce(nil, func(a, _ any) any { return a })
	if r.id == c.lo {
		c.trans.Barrier()
	}
	c.coll.reduce(nil, func(a, _ any) any { return a })
}

// AllreduceSumInt64 returns the sum of every rank's x (MPI_Allreduce SUM).
func (r *Rank) AllreduceSumInt64(x int64) int64 {
	c := r.comm
	if c.trans == nil {
		return c.coll.reduce(x, combineOp(OpSum)).(int64)
	}
	return c.wireInt64(r, OpSum, x)
}

// AllreduceMinInt64 returns the minimum of every rank's x
// (MPI_Allreduce MIN).
func (r *Rank) AllreduceMinInt64(x int64) int64 {
	c := r.comm
	if c.trans == nil {
		return c.coll.reduce(x, combineOp(OpMin)).(int64)
	}
	return c.wireInt64(r, OpMin, x)
}

// AllreduceMaxInt64 returns the maximum of every rank's x
// (MPI_Allreduce MAX).
func (r *Rank) AllreduceMaxInt64(x int64) int64 {
	c := r.comm
	if c.trans == nil {
		return c.coll.reduce(x, combineOp(OpMax)).(int64)
	}
	return c.wireInt64(r, OpMax, x)
}

// Exchange is the one byte collective: every rank contributes routed blobs
// (Dest = a global rank, or -1 for broadcast to all) and receives back
// exactly the blobs addressed to it plus every broadcast blob, its own
// included, in no particular order (callers fold order-insensitively or sort
// by content). A gather is every rank addressing rank 0; an allgather is
// every rank broadcasting. Every rank must call it in the same program
// order, like any collective. Across a transport each process sends every
// peer only the blobs addressed to that peer's ranks plus the broadcasts, so
// a routed blob crosses the wire once, straight to the process hosting its
// destination.
func Exchange(r *Rank, blobs []Blob) []Blob {
	c := r.comm
	all := c.coll.reduce(blobs, func(a, b any) any {
		return append(a.([]Blob), b.([]Blob)...)
	}).([]Blob)
	if c.trans != nil {
		var tag leaderTag
		if r.id == c.lo {
			tag = leaderTag{has: true, val: c.trans.Exchange(all)}
		}
		all = c.coll.reduce(tag, pickLeader).(leaderTag).val.([]Blob)
	}
	// The merged list is shared between hosted ranks: filter into a fresh
	// per-rank slice.
	var out []Blob
	for _, b := range all {
		if b.Dest == r.id || b.Dest == -1 {
			out = append(out, b)
		}
	}
	return out
}
