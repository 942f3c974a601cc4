package transport

import (
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"dsteiner/internal/wire"
)

// fakeWorker performs just enough of the session handshake to exercise the
// hub: dial, send an opening frame, read the Setup, reply Ready. It never
// meshes or solves.
type fakeWorker struct {
	conn  net.Conn
	setup wire.Setup
}

// openFakeWorker dials the hub and sends one opening frame.
func openFakeWorker(t *testing.T, addr string, opening []byte) *fakeWorker {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial hub: %v", err)
	}
	if err := wire.WriteFrame(conn, opening); err != nil {
		t.Fatalf("opening frame: %v", err)
	}
	return &fakeWorker{conn: conn}
}

// The fakes never mesh, so the peer address they announce is never dialed.
func dialFakeWorker(t *testing.T, addr string, version uint32) *fakeWorker {
	t.Helper()
	return openFakeWorker(t, addr, wire.EncodeHello(nil, wire.Hello{Version: version, PeerAddr: "127.0.0.1:1"}))
}

// rejoinFakeWorker re-handshakes a fake worker into a healing session via
// a Rejoin frame.
func rejoinFakeWorker(t *testing.T, addr string, version uint32, sessionID uint64) *fakeWorker {
	t.Helper()
	return openFakeWorker(t, addr, wire.EncodeRejoin(nil, wire.Rejoin{
		Version: version, PeerAddr: "127.0.0.1:1", SessionID: sessionID,
	}))
}

// abortReason reads the worker's next frame, which must be an Abort, and
// returns its reason.
func (f *fakeWorker) abortReason(t *testing.T) string {
	t.Helper()
	_ = f.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	frame, err := wire.ReadFrame(f.conn, nil)
	if err != nil {
		t.Fatalf("no reply from hub: %v", err)
	}
	if frame[0] != wire.FrameAbort {
		t.Fatalf("got frame %d, want abort", frame[0])
	}
	ab, err := wire.DecodeAbort(frame[1:])
	if err != nil {
		t.Fatalf("decode abort: %v", err)
	}
	return ab.Reason
}

// finishHandshake reads the Setup and answers Ready.
func (f *fakeWorker) finishHandshake(t *testing.T) {
	t.Helper()
	frame, err := wire.ReadFrame(f.conn, nil)
	if err != nil {
		t.Fatalf("read setup: %v", err)
	}
	if frame[0] != wire.FrameSetup {
		t.Fatalf("got frame %d, want setup", frame[0])
	}
	if f.setup, err = wire.DecodeSetup(frame[1:]); err != nil {
		t.Fatalf("decode setup: %v", err)
	}
	if err := wire.WriteFrame(f.conn, wire.EncodeReady(nil, wire.Ready{})); err != nil {
		t.Fatalf("ready: %v", err)
	}
}

// runNegotiation runs a hub handshake (recovery armed) against fake workers
// announcing the given Hello versions and returns the hub plus the workers'
// views.
func runNegotiation(t *testing.T, versions ...uint32) (*Hub, []*fakeWorker) {
	t.Helper()
	hub, err := ListenHub("127.0.0.1:0", len(versions), len(versions))
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	hub.EnableRecovery(5*time.Second, nil)
	workers := make([]*fakeWorker, len(versions))
	done := make(chan error, 1)
	go func() {
		_, err := hub.Handshake(5*time.Second, func(w int) wire.Setup {
			return wire.Setup{Ranks: len(versions), NumVertices: 7}
		})
		done <- err
	}()
	for i, v := range versions {
		workers[i] = dialFakeWorker(t, hub.Addr(), v)
	}
	for _, f := range workers {
		f.finishHandshake(t)
	}
	if err := <-done; err != nil {
		t.Fatalf("handshake: %v", err)
	}
	t.Cleanup(func() {
		for _, f := range workers {
			_ = f.conn.Close()
		}
		hub.Close()
	})
	return hub, workers
}

// namesBothVersions reports whether a refusal names the worker's version
// and the coordinator's.
func namesBothVersions(reason string, worker uint32) bool {
	return strings.Contains(reason, fmt.Sprintf("version %d,", worker)) &&
		strings.Contains(reason, fmt.Sprintf("speaks %d", wire.Version))
}

// TestHandshakeRefusesOtherVersions pins the initial handshake's failure
// mode for a stale or future worker binary: the worker gets an Abort naming
// both versions and the handshake fails with the same reason, before any
// session state is built.
func TestHandshakeRefusesOtherVersions(t *testing.T) {
	for _, v := range []uint32{wire.Version - 1, wire.Version + 1} {
		hub, err := ListenHub("127.0.0.1:0", 1, 1)
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		done := make(chan error, 1)
		go func() {
			_, err := hub.Handshake(5*time.Second, func(w int) wire.Setup { return wire.Setup{} })
			done <- err
		}()
		f := dialFakeWorker(t, hub.Addr(), v)
		if reason := f.abortReason(t); !namesBothVersions(reason, v) {
			t.Fatalf("v%d hello: abort reason %q does not name both versions", v, reason)
		}
		if err := <-done; err == nil || !namesBothVersions(err.Error(), v) {
			t.Fatalf("v%d hello: handshake error %v does not name both versions", v, err)
		}
		_ = f.conn.Close()
	}
}

// TestHealRefusesOtherVersions pins the same check on a healing session,
// for both opening frames: a Hello or Rejoin announcing Version±1 is refused
// with an Abort naming both versions, the heal carries on, and a correct
// worker is still admitted afterwards. A refused dial that queued up while
// the session was healthy neither poisons it nor blocks the next heal.
func TestHealRefusesOtherVersions(t *testing.T) {
	hub, workers := runNegotiation(t, wire.Version)
	sid := hub.SessionID()
	live := workers[0]
	refused := func(f *fakeWorker, v uint32) {
		t.Helper()
		if reason := f.abortReason(t); !namesBothVersions(reason, v) {
			t.Fatalf("v%d: abort reason %q does not name both versions", v, reason)
		}
		_ = f.conn.Close()
	}
	// healWith kills the live worker, starts a heal, lets strays dial into
	// it, then rejoins a correct worker, which the heal must still admit.
	healWith := func(strays func()) {
		t.Helper()
		_ = live.conn.Close()
		waitHubErr(t, hub, 5*time.Second)
		healed := make(chan error, 1)
		go func() {
			_, err := hub.heal()
			healed <- err
		}()
		strays()
		live = rejoinFakeWorker(t, hub.Addr(), wire.Version, sid)
		live.finishHandshake(t)
		if err := <-healed; err != nil {
			t.Fatalf("heal: %v", err)
		}
		if err := hub.Err(); err != nil {
			t.Fatalf("healed hub still poisoned: %v", err)
		}
	}
	healWith(func() {
		for _, v := range []uint32{wire.Version - 1, wire.Version + 1} {
			refused(dialFakeWorker(t, hub.Addr(), v), v)
			refused(rejoinFakeWorker(t, hub.Addr(), v, sid), v)
		}
	})
	// Nobody accepts while a session is healthy, so a stray dialed now waits
	// in the listen backlog; the next heal refuses it and carries on.
	queued := dialFakeWorker(t, hub.Addr(), wire.Version-1)
	if err := hub.Err(); err != nil {
		t.Fatalf("stray dial poisoned the healthy session: %v", err)
	}
	healWith(func() { refused(queued, wire.Version-1) })
	defer live.conn.Close()
	if fs := hub.FaultStats(); fs.Heals != 2 || fs.Rejoins != 2 {
		t.Fatalf("fault accounting: %+v, want 2 heals via 2 rejoins", fs)
	}
}
