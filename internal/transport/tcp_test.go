package transport

import (
	"net"
	"slices"
	"strings"
	"testing"
	"time"

	"dsteiner/internal/graph"
	rt "dsteiner/internal/runtime"
	"dsteiner/internal/wire"
)

// stubHost is a TransportHost with no ranks behind it: enough for a worker
// transport that only runs collectives.
type stubHost struct{}

func (stubHost) Inbound(int, []rt.Msg)                       {}
func (stubHost) BatchBuf() []rt.Msg                          { return nil }
func (stubHost) RecycleBatch([]rt.Msg)                       {}
func (stubHost) HoldToken(q int64, black bool) (int64, bool) { return q, black }
func (stubHost) Poison()                                     {}

// meshWorker is worker 1 of a two-worker, two-rank fleet (worker w hosts
// exactly rank w): a real TCP transport whose mesh link to worker 0 is a
// net.Pipe the test speaks for. peer is worker 0's end of the link, and sent
// carries every frame worker 1 writes on it.
type meshWorker struct {
	tcp  *TCP
	peer net.Conn
	sent chan []byte
}

func newMeshWorker(t *testing.T) *meshWorker {
	t.Helper()
	mesh, peer := net.Pipe()
	coord, coordPeer := net.Pipe() // held open: nothing travels on it
	m := &meshWorker{
		tcp:  NewTCP(1, SplitRanks(2, 2), coord, []net.Conn{mesh, nil}),
		peer: peer,
		sent: make(chan []byte, 16),
	}
	m.tcp.Attach(stubHost{})
	go func() {
		defer close(m.sent)
		for {
			frame, err := wire.ReadFrame(peer, nil)
			if err != nil {
				return
			}
			m.sent <- frame
		}
	}()
	t.Cleanup(func() {
		_ = peer.Close()
		_ = coordPeer.Close()
		_ = m.tcp.Close()
	})
	return m
}

// send writes one frame from worker 0.
func (m *meshWorker) send(t *testing.T, payload []byte) {
	t.Helper()
	_ = m.peer.SetWriteDeadline(time.Now().Add(5 * time.Second))
	if err := wire.WriteFrame(m.peer, payload); err != nil {
		t.Fatalf("fake peer write: %v", err)
	}
}

// collect runs one collective on the worker, as its leader rank would, on
// its own goroutine; the channel yields its result, or nil if the call
// unwound because the session failed.
func (m *meshWorker) collect(call func(tcp *TCP) any) <-chan any {
	out := make(chan any, 1)
	go func() {
		defer func() {
			if recover() != nil {
				out <- nil
			}
		}()
		out <- call(m.tcp)
	}()
	return out
}

// sum runs collective #seq as an OpSum with the worker contributing x and
// worker 0 contributing y, and checks the frame worker 0 received and the
// result.
func (m *meshWorker) sum(t *testing.T, seq uint64, x, y int64) {
	t.Helper()
	res := m.collect(func(tcp *TCP) any { return tcp.AllreduceInt64(rt.OpSum, x) })
	m.send(t, sumColl(seq, y))
	c := m.nextColl(t)
	if got, err := wire.DecodeInt64(c.Payload); c.Seq != seq || c.Op != rt.OpSum || err != nil || got != x {
		t.Fatalf("worker sent collective %d op %d payload %d (%v), want %d op %d payload %d",
			c.Seq, c.Op, got, err, seq, rt.OpSum, x)
	}
	select {
	case got := <-res:
		if got != x+y {
			t.Fatalf("collective %d: sum %v, want %d", seq, got, x+y)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("collective %d never completed", seq)
	}
}

// nextColl returns the next frame worker 0 received, which must be a Coll.
func (m *meshWorker) nextColl(t *testing.T) wire.Coll {
	t.Helper()
	select {
	case frame, ok := <-m.sent:
		if !ok || frame[0] != wire.FrameColl {
			t.Fatalf("want a collective frame, got %v (link open %v)", frame, ok)
		}
		c, err := wire.DecodeColl(frame[1:])
		if err != nil {
			t.Fatalf("decode collective: %v", err)
		}
		return c
	case <-time.After(5 * time.Second):
		t.Fatal("worker sent no collective frame")
	}
	return wire.Coll{}
}

// wantWorkerError requires that the worker failed the session — its worker
// loop gets an abort control, not silence — with a reason containing each
// of parts.
func (m *meshWorker) wantWorkerError(t *testing.T, parts ...string) {
	t.Helper()
	select {
	case ctl := <-m.tcp.Controls():
		if ctl.Kind != ControlAbort {
			t.Fatalf("got control %d, want abort", ctl.Kind)
		}
		for _, part := range parts {
			if !strings.Contains(ctl.Err.Error(), part) {
				t.Fatalf("abort reason %q does not mention %q", ctl.Err, part)
			}
		}
	case <-time.After(5 * time.Second):
		t.Fatal("worker never failed the session")
	}
}

func sumColl(seq uint64, x int64) []byte {
	return wire.EncodeColl(nil, wire.Coll{Seq: seq, Op: rt.OpSum, Payload: wire.EncodeInt64(x)})
}

func exchangeColl(seq uint64, blobs ...rt.Blob) []byte {
	return wire.EncodeColl(nil, wire.Coll{Seq: seq, Op: rt.OpExchange, Payload: wire.AppendBlobs(nil, blobs)})
}

// TestWorkerExchangeSendsEachPeerItsShare pins the exchange's routing on the
// mesh: worker 0 receives only the blobs addressed to its rank plus the
// broadcasts, and the worker's result is its own share plus what worker 0
// sent it.
func TestWorkerExchangeSendsEachPeerItsShare(t *testing.T) {
	m := newMeshWorker(t)
	mine := []rt.Blob{
		{Src: 1, Dest: 0, Blob: []byte("to rank 0")},
		{Src: 1, Dest: 1, Blob: []byte("to myself")},
		{Src: 1, Dest: -1, Blob: []byte("to all")},
	}
	res := m.collect(func(tcp *TCP) any { return tcp.Exchange(mine) })
	m.send(t, exchangeColl(1, rt.Blob{Src: 0, Dest: 1, Blob: []byte("from rank 0")}))
	c := m.nextColl(t)
	got, err := wire.DecodeBlobs(c.Payload)
	if c.Seq != 1 || c.Op != rt.OpExchange || err != nil || len(got) != 2 ||
		string(got[0].Blob) != "to rank 0" || string(got[1].Blob) != "to all" {
		t.Fatalf("worker 0 received collective %d op %d blobs %+v (%v)", c.Seq, c.Op, got, err)
	}
	select {
	case out := <-res:
		blobs, _ := out.([]rt.Blob)
		var names []string
		for _, b := range blobs {
			names = append(names, string(b.Blob))
		}
		if strings.Join(names, ",") != "to myself,to all,from rank 0" {
			t.Fatalf("exchange result %q", names)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("exchange never completed")
	}
}

// TestWorkerRejectsDuplicateContribution pins that a worker counts its
// peers' collectives, not their frames: a peer contributing twice to a
// collective must fail the session naming the peer and the sequence — not
// release the collective, or the next one, without the peer's real
// contribution.
func TestWorkerRejectsDuplicateContribution(t *testing.T) {
	m := newMeshWorker(t)
	for seq := uint64(1); seq <= 6; seq++ {
		m.sum(t, seq, int64(seq), 10)
	}
	m.send(t, sumColl(7, 5))
	m.send(t, sumColl(7, 5))
	m.wantWorkerError(t, "collective 7", "worker 0", "twice")
}

// TestWorkerRejectsForeignCollectiveInput pins that a collective contribution
// the receiving worker cannot account for — an op outside the closed enum, a
// sequence that skips one, a blob sent in the name of a rank the sender does
// not host, a destination that is not one of the receiver's ranks, or a
// payload that does not decode — reaches the session as an error, never a
// hang or a silent sum. Worker w of the two-worker fleet hosts exactly rank
// w; the contributions come from worker 0.
func TestWorkerRejectsForeignCollectiveInput(t *testing.T) {
	for _, tc := range []struct {
		name  string
		frame []byte
		want  string
	}{
		{"unknown op", wire.EncodeColl(nil, wire.Coll{Seq: 1, Op: 77, Payload: wire.EncodeInt64(1)}), "unknown op 77"},
		{"op zero", wire.EncodeColl(nil, wire.Coll{Seq: 1, Op: 0}), "unknown op 0"},
		{"foreign src", exchangeColl(1, rt.Blob{Src: 1, Dest: 0}), "blob 1 -> 0"},
		{"foreign src to this worker", exchangeColl(1, rt.Blob{Src: 1, Dest: 1}), "blob 1 -> 1"},
		{"dest past the ranks", exchangeColl(1, rt.Blob{Src: 0, Dest: 2}), "blob 0 -> 2"},
		{"dest below broadcast", exchangeColl(1, rt.Blob{Src: 0, Dest: -2}), "dest -2"},
		{"dest on another worker", exchangeColl(1, rt.Blob{Src: 0, Dest: 0}), "blob 0 -> 0"},
		{"skipped sequence", sumColl(2, 1), "skipped collective 1"},
		{"undecodable allreduce", wire.EncodeColl(nil, wire.Coll{Seq: 1, Op: rt.OpMax}), "allreduce 1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := newMeshWorker(t)
			m.send(t, tc.frame)
			m.wantWorkerError(t, tc.want, "worker 0")
		})
	}
}

// TestWorkerCollectiveDivergenceIsAnError pins what replaced the per-query
// round-count check: all collectives share one sequence, so a worker that runs
// one more exchange round than its peer meets the peer's next allreduce at the
// same Seq, and the receiving worker fails the session there instead of
// blocking both.
func TestWorkerCollectiveDivergenceIsAnError(t *testing.T) {
	m := newMeshWorker(t)
	for seq := uint64(1); seq <= 3; seq++ {
		m.sum(t, seq, 1, 2)
	}
	res := m.collect(func(tcp *TCP) any { return tcp.AllreduceInt64(rt.OpSum, 9) })
	m.send(t, exchangeColl(4, rt.Blob{Src: 0, Dest: -1, Blob: []byte("one more round")}))
	m.wantWorkerError(t, "collective 4", "op mismatch")
	select {
	case got := <-res:
		if got != nil {
			t.Fatalf("diverged collective returned %v", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("diverged collective never unwound")
	}
}

// offerBatch returns a 64-message batch for rank 0 whose fields vary with
// i, so no two batches encode alike.
func offerBatch(i int) []rt.Msg {
	batch := make([]rt.Msg, 64)
	for j := range batch {
		batch[j] = rt.Msg{Target: graph.VID(i*977 + j*31), From: graph.VID(j), Seed: graph.VID(i), Dist: graph.Dist(i*j + 1)}
	}
	return batch
}

// nextFrame returns the next frame worker 0 received within d, or nil.
func (m *meshWorker) nextFrame(d time.Duration) []byte {
	select {
	case frame := <-m.sent:
		return frame
	case <-time.After(d):
		return nil
	}
}

// TestBatchBelowWriteMarkWaitsForFlush pins the flush rule's quiet side: a
// batch that leaves the peer's buffer under writeMark stays off the wire
// until Flush, and Flush sends it whole.
func TestBatchBelowWriteMarkWaitsForFlush(t *testing.T) {
	m := newMeshWorker(t)
	m.tcp.Deliver(0, offerBatch(1))
	if frame := m.nextFrame(100 * time.Millisecond); frame != nil {
		t.Fatalf("a batch under the write mark went out before Flush: frame type %d", frame[0])
	}
	m.tcp.Flush()
	frame := m.nextFrame(5 * time.Second)
	if frame == nil || frame[0] != wire.FrameMsgBatch2 {
		t.Fatalf("Flush did not send the pending batch: %v", frame)
	}
	if dest, got, err := wire.DecodeMsgBatch2(frame[1:], nil); err != nil || dest != 0 || !slices.Equal(got, offerBatch(1)) {
		t.Fatalf("flushed batch decoded to dest %d, %d messages (%v)", dest, len(got), err)
	}
}

// TestBatchesPastWriteMarkGoWithoutFlush pins the flush rule's busy side: a
// rank that keeps delivering without ever running dry still gets its
// batches written once the peer's buffer passes writeMark.
func TestBatchesPastWriteMarkGoWithoutFlush(t *testing.T) {
	m := newMeshWorker(t)
	size := 0
	for i := 0; size < writeMark; i++ {
		batch := offerBatch(i)
		enc, _ := wire.AppendMsgBatch2(nil, 0, batch)
		size += len(enc) + 4
		m.tcp.Deliver(0, batch)
	}
	frame := m.nextFrame(5 * time.Second)
	if frame == nil || frame[0] != wire.FrameMsgBatch2 {
		t.Fatalf("batches past the write mark were not written without Flush: %v", frame)
	}
}

// TestBatchPrecedesBarrierFrame pins that a collective is still a delivery
// fence: a batch Delivered before a Barrier, held under writeMark, reaches
// the peer ahead of that barrier's FrameColl on the same link.
func TestBatchPrecedesBarrierFrame(t *testing.T) {
	m := newMeshWorker(t)
	m.tcp.Deliver(0, offerBatch(1))
	res := m.collect(func(tcp *TCP) any { tcp.Barrier(); return true })
	if frame := m.nextFrame(5 * time.Second); frame == nil || frame[0] != wire.FrameMsgBatch2 {
		t.Fatalf("first frame after Deliver+Barrier is %v, want the batch", frame)
	}
	if c := m.nextColl(t); c.Seq != 1 || c.Op != rt.OpBarrier {
		t.Fatalf("got collective %d op %d, want barrier 1", c.Seq, c.Op)
	}
	m.send(t, wire.EncodeColl(nil, wire.Coll{Seq: 1, Op: rt.OpBarrier}))
	select {
	case got := <-res:
		if got == nil {
			t.Fatal("barrier unwound")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("barrier never completed")
	}
}
