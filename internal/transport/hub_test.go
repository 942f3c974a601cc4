package transport

import (
	"strings"
	"testing"

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

// TestHubRejectsDuplicateContribution pins that the hub counts workers, not
// frames: one worker reporting a query done twice must fail the session
// naming the worker and the query — not release the query without its peer.
// The collective case lives on the receiving worker since collectives left
// the hub (TestWorkerRejectsDuplicateContribution).
func TestHubRejectsDuplicateContribution(t *testing.T) {
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

// TestHubRefusesCollectiveFrames pins that collectives no longer pass
// through the coordinator: a Coll frame sent to the hub is an unexpected
// frame that fails the session, not a contribution it folds.
func TestHubRefusesCollectiveFrames(t *testing.T) {
	_, workers := runNegotiation(t, wire.Version, wire.Version)
	workers[0].send(t, sumColl(1, 5))
	wantSessionError(t, workers, "unexpected frame type 7", "worker 0")
}
