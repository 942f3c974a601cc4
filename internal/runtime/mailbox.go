package runtime

import "sync"

// mailbox is an unbounded, non-blocking inbound message store. Senders never
// block (avoiding distributed send-cycle deadlock by construction); the
// owning rank drains it between local-queue work. A 1-slot notification
// channel lets the owner sleep when idle without busy polling. The batch
// container ping-pongs between the mailbox and the draining rank (recycle)
// so steady-state delivery does not grow a fresh slice per drain cycle.
type mailbox struct {
	mu      sync.Mutex
	batches [][]Msg
	spare   [][]Msg // drained container awaiting reuse
	note    chan struct{}
}

func newMailbox() *mailbox {
	return &mailbox{note: make(chan struct{}, 1)}
}

// put appends a batch and nudges the owner. The batch is owned by the
// mailbox afterwards.
func (mb *mailbox) put(batch []Msg) {
	if len(batch) == 0 {
		return
	}
	mb.mu.Lock()
	if mb.batches == nil && mb.spare != nil {
		mb.batches, mb.spare = mb.spare, nil
	}
	mb.batches = append(mb.batches, batch)
	mb.mu.Unlock()
	select {
	case mb.note <- struct{}{}:
	default:
	}
}

// takeAll removes and returns all queued batches (nil when empty).
func (mb *mailbox) takeAll() [][]Msg {
	mb.mu.Lock()
	bs := mb.batches
	mb.batches = nil
	mb.mu.Unlock()
	return bs
}

// recycle returns a drained container from takeAll for reuse by put.
func (mb *mailbox) recycle(bs [][]Msg) {
	if cap(bs) == 0 {
		return
	}
	for i := range bs {
		bs[i] = nil // release the batch buffers (now on rank free lists)
	}
	mb.mu.Lock()
	if mb.spare == nil {
		mb.spare = bs[:0]
	}
	mb.mu.Unlock()
}

// len returns the number of queued batches, read under the mailbox lock.
// Comm.HoldToken's termination check depends on it: a process is passive
// only when every hosted mailbox reads empty.
func (mb *mailbox) len() int {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	return len(mb.batches)
}
