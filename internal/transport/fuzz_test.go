package transport

import (
	"bytes"
	"net"
	"testing"
	"time"

	"dsteiner/internal/wire"
)

// scriptConn is a net.Conn whose peer already sent everything it will ever
// send and then half-closed: reads replay the script and end in io.EOF,
// writes are captured. It keeps the fuzz target free of sockets, goroutines
// and deadlines.
type scriptConn struct {
	net.Conn // nil: only the methods admit uses are implemented
	in       *bytes.Reader
	out      bytes.Buffer
	closed   bool
}

func (c *scriptConn) Read(p []byte) (int, error)      { return c.in.Read(p) }
func (c *scriptConn) Write(p []byte) (int, error)     { return c.out.Write(p) }
func (c *scriptConn) Close() error                    { c.closed = true; return nil }
func (c *scriptConn) SetReadDeadline(time.Time) error { return nil }

// FuzzHubOpening feeds arbitrary bytes to the hub as a dialing connection's
// opening frame(s). The contract: admit never panics or hangs; it either
// admits the connection — only for a well-formed Hello or Rejoin at exactly
// wire.Version (and, for a Rejoin, this hub's session) — or closes it,
// having written nothing or exactly one Abort frame.
func FuzzHubOpening(f *testing.F) {
	const session = 0xfeedface
	hello := wire.AppendFrame(nil, wire.EncodeHello(nil, wire.Hello{Version: wire.Version, PeerAddr: "127.0.0.1:9"}))
	f.Add(hello)
	f.Add(wire.AppendFrame(nil, wire.EncodeRejoin(nil, wire.Rejoin{
		Version: wire.Version, PeerAddr: "127.0.0.1:9", SessionID: session, PrevWorker: 1})))
	f.Add(hello[:len(hello)-3])
	f.Add(wire.AppendFrame(nil, wire.EncodeHello(nil, wire.Hello{Version: wire.Version - 1, PeerAddr: "127.0.0.1:9"})))
	f.Add(wire.AppendFrame(nil, []byte{wire.FrameGoodbye}))
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, wire.FrameHello})
	f.Fuzz(func(t *testing.T, data []byte) {
		h := &Hub{sessionID: session}
		conn := &scriptConn{in: bytes.NewReader(data)}
		a, viaRejoin, err := h.admit(conn, time.Time{})
		if err != nil {
			if !conn.closed {
				t.Fatalf("refused (%v) but left the connection open", err)
			}
			if conn.out.Len() == 0 {
				return
			}
			typ, _, rest, derr := wire.DecodeFrame(conn.out.Bytes())
			if derr != nil || typ != wire.FrameAbort || len(rest) != 0 {
				t.Fatalf("refused (%v) with a reply that is not one Abort frame: % x", err, conn.out.Bytes())
			}
			return
		}
		if conn.closed || conn.out.Len() != 0 || a.conn != net.Conn(conn) {
			t.Fatalf("admitted but closed=%v wrote=%d", conn.closed, conn.out.Len())
		}
		typ, body, _, derr := wire.DecodeFrame(data)
		if derr != nil {
			t.Fatalf("admitted an undecodable opening: %v", derr)
		}
		version, sid := uint32(0), uint64(session)
		switch {
		case typ == wire.FrameHello && !viaRejoin:
			hl, _ := wire.DecodeHello(body)
			version = hl.Version
		case typ == wire.FrameRejoin && viaRejoin:
			rj, _ := wire.DecodeRejoin(body)
			version, sid = rj.Version, rj.SessionID
		default:
			t.Fatalf("admitted frame type %d (viaRejoin=%v)", typ, viaRejoin)
		}
		if version != wire.Version || sid != session {
			t.Fatalf("admitted version %d session %#x", version, sid)
		}
	})
}
