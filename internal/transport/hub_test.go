package transport

import (
	"strings"
	"testing"

	rt "dsteiner/internal/runtime"
	"dsteiner/internal/wire"
)

// send writes one frame on the fake worker's coordinator link.
func (f *fakeWorker) send(t *testing.T, payload []byte) {
	t.Helper()
	if err := wire.WriteFrame(f.conn, payload); err != nil {
		t.Fatalf("fake worker write: %v", err)
	}
}

// wantSessionError requires that the hub failed the session: the next frame
// every worker gets is an Abort — not a reply, not silence — whose reason
// contains each of parts.
func wantSessionError(t *testing.T, workers []*fakeWorker, parts ...string) {
	t.Helper()
	for w, f := range workers {
		reason := f.abortReason(t)
		for _, part := range parts {
			if !strings.Contains(reason, part) {
				t.Fatalf("worker %d: abort reason %q does not mention %q", w, reason, part)
			}
		}
	}
}

func sumColl(seq uint64, x int64) []byte {
	return wire.EncodeColl(nil, wire.Coll{Seq: seq, Op: rt.OpSum, Payload: wire.EncodeInt64(x)})
}

func exchangeColl(seq uint64, blobs ...rt.Blob) []byte {
	return wire.EncodeColl(nil, wire.Coll{Seq: seq, Op: rt.OpExchange, Payload: wire.AppendBlobs(nil, blobs)})
}

// TestHubRejectsDuplicateContribution pins that the hub counts workers, not
// frames: one worker contributing twice to a collective, or reporting a
// query done twice, must fail the session naming the worker and the
// sequence — not release the collective or the query without its peer.
func TestHubRejectsDuplicateContribution(t *testing.T) {
	t.Run("collective", func(t *testing.T) {
		_, workers := runNegotiation(t, wire.Version, wire.Version)
		workers[0].send(t, sumColl(7, 5))
		workers[0].send(t, sumColl(7, 5))
		wantSessionError(t, workers, "collective 7", "worker 0", "twice")
	})
	t.Run("done", func(t *testing.T) {
		hub, workers := runNegotiation(t, wire.Version, wire.Version)
		go hub.SolveSpec(wire.SolveSpec{QueryID: 3}) // returns when the cleanup closes the hub
		for w, f := range workers {
			if frame, err := wire.ReadFrame(f.conn, nil); err != nil || frame[0] != wire.FrameSolveSpec {
				t.Fatalf("worker %d: want the solve spec, got %v (%v)", w, frame, err)
			}
		}
		done := wire.EncodeWorkerDone(nil, wire.WorkerDone{QueryID: 3, TableLens: []int64{0}, HasResult: true})
		workers[0].send(t, done)
		workers[0].send(t, done)
		wantSessionError(t, workers, "query 3", "worker 0", "twice")
	})
}

// TestHubRejectsForeignCollectiveInput pins that a collective contribution
// the hub cannot account for — an op outside the closed enum, a blob sent in
// the name of a rank the worker does not host, a destination that is no rank
// — reaches the fleet as a session error, never a hang or a silent sum.
// Worker w of the two-worker fleet hosts exactly rank w.
func TestHubRejectsForeignCollectiveInput(t *testing.T) {
	for _, tc := range []struct {
		name  string
		frame []byte
		want  string
	}{
		{"unknown op", wire.EncodeColl(nil, wire.Coll{Seq: 1, Op: 77, Payload: wire.EncodeInt64(1)}), "unknown op 77"},
		{"op zero", wire.EncodeColl(nil, wire.Coll{Seq: 1, Op: 0}), "unknown op 0"},
		{"foreign src", exchangeColl(1, rt.Blob{Src: 1, Dest: 0}), "blob 1 -> 0"},
		{"dest past the ranks", exchangeColl(1, rt.Blob{Src: 0, Dest: 2}), "blob 0 -> 2"},
		{"dest below broadcast", exchangeColl(1, rt.Blob{Src: 0, Dest: -2}), "dest -2"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, workers := runNegotiation(t, wire.Version, wire.Version)
			workers[0].send(t, tc.frame)
			wantSessionError(t, workers, tc.want, "worker 0")
		})
	}
}

// TestHubCollectiveDivergenceIsAnError pins what replaced the per-query
// round-count check: all collectives share one sequence, so a worker that runs
// one more exchange round than its peer meets the peer's next allreduce at the
// same Seq, and the hub fails the session there instead of blocking both.
func TestHubCollectiveDivergenceIsAnError(t *testing.T) {
	_, workers := runNegotiation(t, wire.Version, wire.Version)
	workers[0].send(t, exchangeColl(4, rt.Blob{Src: 0, Dest: -1, Blob: []byte("one more round")}))
	workers[1].send(t, sumColl(4, 9))
	wantSessionError(t, workers, "collective 4", "op mismatch")
}
