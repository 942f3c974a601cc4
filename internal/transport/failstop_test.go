package transport

import (
	"strings"
	"testing"
	"time"

	"dsteiner/internal/wire"
)

// waitHubErr polls the hub's poison state (frames travel through the event
// loop asynchronously) and returns the first non-nil error within the
// deadline.
func waitHubErr(t *testing.T, h *Hub, d time.Duration) error {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if err := h.Err(); err != nil {
			return err
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("hub never poisoned")
	return nil
}

// TestHubKeepsReasonOfTruncatedAbortFrame pins the abort-reason fallback:
// a worker whose Abort frame arrives cut short (the connection died while
// flushing it) must still poison the session with a diagnosable reason —
// naming the worker and the decode failure — instead of silently dropping
// both (the old `ab, _ := DecodeAbort` bug reported an empty reason).
func TestHubKeepsReasonOfTruncatedAbortFrame(t *testing.T) {
	hub, workers := runNegotiation(t, wire.Version)
	full := wire.EncodeAbort(nil, wire.Abort{Reason: "worker disk on fire"})
	if err := wire.WriteFrame(workers[0].conn, full[:len(full)-4]); err != nil {
		t.Fatalf("send truncated abort: %v", err)
	}
	err := waitHubErr(t, hub, 5*time.Second)
	if !strings.Contains(err.Error(), "worker 0 aborted") {
		t.Fatalf("poison reason does not name the worker: %v", err)
	}
	if !strings.Contains(err.Error(), "unreadable abort frame") {
		t.Fatalf("poison reason does not flag the truncated frame: %v", err)
	}
}

// TestHubAbortDelivery pins both directions of session abort: a worker's
// Abort frame (what TCP.SendAbort emits) poisons the hub with the worker's
// reason, and the hub's poison broadcast delivers an Abort carrying that
// reason to every OTHER worker — the mechanism that unsticks a fleet whose
// surviving workers are blocked mid-collective.
func TestHubAbortDelivery(t *testing.T) {
	hub, workers := runNegotiation(t, wire.Version, wire.Version)
	if err := wire.WriteFrame(workers[0].conn,
		wire.EncodeAbort(nil, wire.Abort{Reason: "rank panic: deliberate"})); err != nil {
		t.Fatalf("send abort: %v", err)
	}
	err := waitHubErr(t, hub, 5*time.Second)
	if !strings.Contains(err.Error(), "worker 0 aborted: rank panic: deliberate") {
		t.Fatalf("poison reason: %v", err)
	}
	// Worker 1 must receive the broadcast abort.
	_ = workers[1].conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	frame, rerr := wire.ReadFrame(workers[1].conn, nil)
	if rerr != nil {
		t.Fatalf("worker 1 never got the abort broadcast: %v", rerr)
	}
	if frame[0] != wire.FrameAbort {
		t.Fatalf("worker 1 got frame %d, want abort", frame[0])
	}
	ab, derr := wire.DecodeAbort(frame[1:])
	if derr != nil {
		t.Fatalf("decode broadcast abort: %v", derr)
	}
	if !strings.Contains(ab.Reason, "deliberate") {
		t.Fatalf("broadcast abort reason %q lost the cause", ab.Reason)
	}
}

// TestHandshakeWorkerResetMidHandshake pins the coordinator's failure mode
// when a worker's connection resets between Hello and Ready: the handshake
// returns an error naming the worker instead of hanging.
func TestHandshakeWorkerResetMidHandshake(t *testing.T) {
	hub, err := ListenHub("127.0.0.1:0", 2, 2)
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := hub.Handshake(3*time.Second, func(w int) wire.Setup {
			return wire.Setup{Ranks: 2, NumVertices: 1}
		})
		done <- err
	}()
	good := dialFakeWorker(t, hub.Addr(), wire.Version)
	defer good.conn.Close()
	bad := dialFakeWorker(t, hub.Addr(), wire.Version)
	_ = bad.conn.Close() // reset before reading the setup
	err = <-done
	if err == nil {
		t.Fatal("handshake succeeded with a worker that hung up")
	}
	if !strings.Contains(err.Error(), "worker") {
		t.Fatalf("handshake error does not name a worker: %v", err)
	}
}

// TestHealReadmitsViaRejoin drives one full heal at the frame level: the
// session is poisoned by a dying worker, a Rejoin with the wrong session
// identity is rejected with an Abort (and does not fail the heal), and a
// Rejoin with the right identity is re-admitted — receiving the retained
// Setup again — after which the hub's fault accounting shows one detected
// fault, one rejoin and one heal.
func TestHealReadmitsViaRejoin(t *testing.T) {
	hub, workers := runNegotiation(t, wire.Version)
	w0 := workers[0]
	sid := hub.SessionID()
	if w0.setup.SessionID != sid {
		t.Fatalf("setup carried session %#x, hub has %#x", w0.setup.SessionID, sid)
	}

	// Kill the worker; the hub's reader poisons the session.
	_ = w0.conn.Close()
	waitHubErr(t, hub, 5*time.Second)

	healed := make(chan error, 1)
	go func() {
		_, err := hub.heal()
		healed <- err
	}()

	// An impostor with the wrong session identity is aborted...
	impostor := rejoinFakeWorker(t, hub.Addr(), wire.Version, sid+1)
	defer impostor.conn.Close()
	if reason := impostor.abortReason(t); !strings.Contains(reason, "unknown session") {
		t.Fatalf("impostor abort reason: %q", reason)
	}

	// ...and the real survivor is re-admitted with the retained Setup.
	w0b := rejoinFakeWorker(t, hub.Addr(), wire.Version, sid)
	defer w0b.conn.Close()
	w0b.finishHandshake(t)
	if err := <-healed; err != nil {
		t.Fatalf("heal: %v", err)
	}
	if w0b.setup.NumVertices != 7 || w0b.setup.SessionID != sid {
		t.Fatalf("healed setup lost session state: %+v", w0b.setup)
	}
	if hub.Err() != nil {
		t.Fatalf("healed hub still poisoned: %v", hub.Err())
	}

	fs := hub.FaultStats()
	if fs.Detected < 1 || fs.Rejoins != 1 || fs.Heals != 1 {
		t.Fatalf("fault accounting after heal: %+v", fs)
	}
	if fs.LastError == "" {
		t.Fatal("healed hub forgot the poisoning reason")
	}
}
