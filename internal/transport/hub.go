package transport

import (
	crand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	rt "dsteiner/internal/runtime"
	"dsteiner/internal/wire"
)

// Hub is the coordinator end of the TCP backend: it accepts the rankd
// workers, runs the session handshake (shipping each worker its shard
// slices), roots every collective, drives the Safra-style termination-token
// ring for asynchronous traversals, fans out solve requests and collects
// their outcomes.
//
// The hub outlives its sessions. A hubSession is one generation of the
// worker fleet — its connections, event loop and poison state. Without
// recovery the hub runs exactly one session and a fault is fatal
// (fail-stop). With EnableRecovery the hub retains the handshake payload
// (every worker's Setup, shard slices included) and a session identity;
// when a session is poisoned, the next dispatch heals it:
// workers re-handshake — survivors with a Rejoin frame proving membership,
// respawned replacements with a fresh Hello — the retained Setups ship
// again, and the in-flight query is requeued on the new generation instead
// of failing.
type Hub struct {
	ln      net.Listener
	ranks   int
	workers int
	rankLo  []int64

	solveMu sync.Mutex // one query outstanding at a time

	// cur is the live session generation (nil before Handshake, or between
	// a failure and a successful heal when recovery is on).
	sessMu sync.Mutex
	cur    *hubSession

	// Recovery state (EnableRecovery): the heal window, the worker-lost
	// hook (respawn driver), the session identity workers prove on Rejoin,
	// and the retained per-worker Setups — the PR 5 handshake payload kept
	// alive so a replacement worker can be rebuilt without the coordinator
	// re-cutting shards.
	recov      bool
	rejoinWait time.Duration
	onLost     func(error)
	sessionID  uint64
	setups     []wire.Setup

	// Fault accounting for the /stats faults block.
	detected atomic.Int64 // sessions poisoned
	rejoins  atomic.Int64 // workers re-admitted via Rejoin frames
	heals    atomic.Int64 // successful session rebuilds
	requeued atomic.Int64 // in-flight queries re-broadcast after a heal
	lastMu   sync.Mutex
	lastErr  string // most recent poisoning reason

	readys []wire.Ready

	closing   atomic.Bool
	closeOnce sync.Once
}

// hubSession is one generation of the worker fleet: its peer connections,
// the event loop serializing their frames, and the first-error poison
// state. All session state is owned by the event loop fed by per-connection
// reader goroutines, so no frame ordering is ever racy.
type hubSession struct {
	h *Hub

	peers     []*peer
	peerAddrs []string

	events  chan hubEvent
	loopEnd chan struct{}

	failOnce sync.Once
	failErr  error
	failMu   sync.Mutex
	failCh   chan struct{}
}

// hubEvent is one unit of event-loop input: a decoded frame from a worker,
// a reader error, or a query registration from Solve.
type hubEvent struct {
	worker int
	typ    uint8
	body   []byte // frame body; owned by the event
	err    error
	query  *pendingQuery
}

// pendingQuery accumulates one query's WorkerDone frames.
type pendingQuery struct {
	qid  uint64
	done tally
	out  QueryOutcome
	ch   chan QueryOutcome
}

// QueryOutcome is everything the coordinator learns about one query from
// its workers: the rank-0 worker's encoded Result (or error), per-rank
// cross-cell table sizes, and cluster-wide counter and traffic deltas.
type QueryOutcome struct {
	QueryID   uint64
	Err       string
	Result    *wire.SolveResult
	TableLens []int64 // indexed by global rank
	// Stats is the query's runtime counters record, folded over the
	// workers' WorkerDone frames with rt.Stats.Add.
	Stats rt.Stats
}

// FaultStats is the hub's fault-tolerance accounting: sessions poisoned,
// workers re-admitted through Rejoin, successful heals, queries requeued
// onto a healed generation, and the most recent poisoning reason.
type FaultStats struct {
	Detected  int64
	Rejoins   int64
	Heals     int64
	Requeued  int64
	LastError string
}

// tally records which workers have contributed to one collective, traversal
// start or query, so a repeat is a session error instead of a second vote.
type tally struct {
	seen []bool
	n    int
}

func newTally(workers int) tally { return tally{seen: make([]bool, workers)} }

// add marks worker w and reports whether this is its first contribution.
func (t *tally) add(w int) bool {
	if t.seen[w] {
		return false
	}
	t.seen[w] = true
	t.n++
	return true
}

// full reports whether every worker has contributed.
func (t *tally) full() bool { return t.n == len(t.seen) }

// collAcc accumulates one collective's per-worker contributions.
type collAcc struct {
	op    rt.CollOp
	from  tally
	acc   int64     // the allreduces' running value
	blobs []rt.Blob // OpExchange's routed blobs
}

// tokenSession tracks the termination-token ring of one traversal.
type tokenSession struct {
	began tally // workers whose TraverseBegin arrived
	at    int   // worker currently holding the token (-1: not circulating)
}

// acceptedConn is one admitted worker connection during a handshake or
// heal, before the session is built around it.
type acceptedConn struct {
	conn net.Conn
	addr string
}

// ListenHub opens the coordinator listener for a session of `workers`
// processes hosting `ranks` ranks split into contiguous near-equal ranges.
func ListenHub(addr string, workers, ranks int) (*Hub, error) {
	if workers < 1 || ranks < workers {
		return nil, fmt.Errorf("transport: need 1 <= workers (%d) <= ranks (%d)", workers, ranks)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	h := &Hub{
		ln:      ln,
		ranks:   ranks,
		workers: workers,
		rankLo:  SplitRanks(ranks, workers),
	}
	return h, nil
}

// EnableRecovery arms session healing: the hub retains every worker's
// Setup (shard slices included) so a poisoned session is rebuilt on the
// next dispatch instead of staying dead. rejoinWait bounds how long one
// heal waits for all workers to re-handshake (0 = 30s); onLost, if set, is
// called (on its own goroutine) each time a session is poisoned — the hook
// coordinator-driven respawn plugs into. Call before Handshake.
func (h *Hub) EnableRecovery(rejoinWait time.Duration, onLost func(error)) {
	if rejoinWait <= 0 {
		rejoinWait = 30 * time.Second
	}
	h.recov = true
	h.rejoinWait = rejoinWait
	h.onLost = onLost
}

// SessionID returns the session identity workers prove on Rejoin (valid
// after Handshake).
func (h *Hub) SessionID() uint64 { return h.sessionID }

// FaultStats snapshots the hub's fault accounting.
func (h *Hub) FaultStats() FaultStats {
	h.lastMu.Lock()
	last := h.lastErr
	h.lastMu.Unlock()
	return FaultStats{
		Detected:  h.detected.Load(),
		Rejoins:   h.rejoins.Load(),
		Heals:     h.heals.Load(),
		Requeued:  h.requeued.Load(),
		LastError: last,
	}
}

// SplitRanks returns the contiguous rank ranges of a session: worker w
// hosts ranks [out[w], out[w+1]), ranges differing by at most one rank.
func SplitRanks(ranks, workers int) []int64 {
	out := make([]int64, workers+1)
	base, rem := ranks/workers, ranks%workers
	for w := 0; w < workers; w++ {
		n := base
		if w < rem {
			n++
		}
		out[w+1] = out[w] + int64(n)
	}
	return out
}

// Addr returns the listener's address (for workers to dial).
func (h *Hub) Addr() string { return h.ln.Addr().String() }

// RankRange returns worker w's hosted rank range.
func (h *Hub) RankRange(w int) (lo, hi int) { return int(h.rankLo[w]), int(h.rankLo[w+1]) }

// Workers returns the session's worker count.
func (h *Hub) Workers() int { return h.workers }

// current returns the live session generation, or nil.
func (h *Hub) current() *hubSession {
	h.sessMu.Lock()
	defer h.sessMu.Unlock()
	return h.cur
}

func (h *Hub) setCurrent(s *hubSession) {
	h.sessMu.Lock()
	h.cur = s
	h.sessMu.Unlock()
}

// newSessionID draws a random session identity.
func newSessionID() uint64 {
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		return uint64(time.Now().UnixNano())
	}
	return binary.LittleEndian.Uint64(b[:])
}

// Handshake accepts every worker, exchanges the session setup and waits
// for all workers to report ready (shard + slab built, mesh connected).
// setupFor builds worker w's Setup; the hub fills in the geometry fields
// (WorkerIndex, RankLo, PeerAddrs) and the SessionID. A connection that
// fails admission — wrong wire version, malformed opening frame — fails the
// handshake: a misdeployed worker should stop the launch, not stall it until
// the deadline. On return the hub's event loop is running and SolveSpec may
// be called.
func (h *Hub) Handshake(timeout time.Duration, setupFor func(w int) wire.Setup) ([]wire.Ready, error) {
	h.sessionID = newSessionID()
	conns, _, err := h.admitFleet(time.Now().Add(timeout), true)
	if err != nil {
		_ = h.ln.Close()
		return nil, fmt.Errorf("transport: handshake: %w", err)
	}
	if h.recov {
		h.setups = make([]wire.Setup, h.workers)
	}
	if _, err := h.startSession(conns, setupFor); err != nil {
		_ = h.ln.Close()
		return nil, err
	}
	return h.readys, nil
}

// admitFleet accepts connections until every worker slot is filled by one
// that passes admit, and reports how many of them came back via Rejoin. A
// refused connection fails the call when strict and is skipped otherwise (a
// heal must survive strays and impostors). On error every admitted
// connection is closed.
func (h *Hub) admitFleet(deadline time.Time, strict bool) ([]acceptedConn, int, error) {
	if tl, ok := h.ln.(*net.TCPListener); ok {
		_ = tl.SetDeadline(deadline)
	}
	conns := make([]acceptedConn, 0, h.workers)
	rejoined := 0
	fail := func(err error) ([]acceptedConn, int, error) {
		for _, a := range conns {
			_ = a.conn.Close()
		}
		return nil, 0, err
	}
	for len(conns) < h.workers {
		conn, err := h.ln.Accept()
		if err != nil {
			return fail(fmt.Errorf("waiting for worker %d/%d: %w", len(conns), h.workers, err))
		}
		a, viaRejoin, err := h.admit(conn, deadline)
		if err != nil {
			if strict {
				return fail(fmt.Errorf("worker %d: %w", len(conns), err))
			}
			continue
		}
		if viaRejoin {
			rejoined++
		}
		conns = append(conns, a)
	}
	return conns, rejoined, nil
}

// startSession is the shared tail of Handshake and heal: ship every
// worker's Setup with the generation's geometry filled in, collect the
// Ready acknowledgements (workers mesh among themselves in between), then
// build the session around the connections and start its event loop.
func (h *Hub) startSession(conns []acceptedConn, setupFor func(w int) wire.Setup) (*hubSession, error) {
	fail := func(err error) (*hubSession, error) {
		for _, a := range conns {
			_ = a.conn.Close()
		}
		return nil, err
	}
	peerAddrs := make([]string, h.workers)
	for w, a := range conns {
		peerAddrs[w] = a.addr
	}
	for w, a := range conns {
		setup := setupFor(w)
		setup.WorkerIndex = w
		setup.RankLo = h.rankLo
		setup.PeerAddrs = peerAddrs
		setup.SessionID = h.sessionID
		if h.recov {
			// Retain the filled Setup; a heal re-ships it with only the
			// generation fields (WorkerIndex, PeerAddrs) rewritten.
			h.setups[w] = setup
		}
		if err := wire.WriteFrame(a.conn, wire.EncodeSetup(nil, setup)); err != nil {
			return fail(fmt.Errorf("transport: setup to worker %d: %w", w, err))
		}
	}
	readys := make([]wire.Ready, h.workers)
	for w, a := range conns {
		frame, err := wire.ReadFrame(a.conn, nil)
		if err != nil {
			return fail(fmt.Errorf("transport: ready from worker %d: %w", w, err))
		}
		if frame[0] == wire.FrameAbort {
			return fail(fmt.Errorf("transport: worker %d aborted during setup: %s", w, abortReason(frame[1:])))
		}
		if frame[0] != wire.FrameReady {
			return fail(fmt.Errorf("transport: worker %d sent frame %d before ready", w, frame[0]))
		}
		if readys[w], err = wire.DecodeReady(frame[1:]); err != nil {
			return fail(fmt.Errorf("transport: ready from worker %d: %w", w, err))
		}
		_ = a.conn.SetReadDeadline(time.Time{})
	}
	h.readys = readys
	s := &hubSession{
		h:         h,
		peers:     make([]*peer, h.workers),
		peerAddrs: peerAddrs,
		events:    make(chan hubEvent, 64),
		loopEnd:   make(chan struct{}),
		failCh:    make(chan struct{}),
	}
	for w, a := range conns {
		s.peers[w] = newPeer(a.conn, nil)
	}
	for w := range s.peers {
		go s.readWorker(w)
	}
	go s.run()
	h.setCurrent(s)
	return s, nil
}

// heal rebuilds a poisoned session from the retained Setups: tear the old
// generation down, re-admit W workers — survivors send Rejoin with the
// session identity, respawned replacements a fresh Hello — and run the
// setup/ready exchange again. Worker indices are assigned in accept order;
// the Setup a worker receives fully describes the ranks it now hosts, so
// identity across generations is irrelevant. Callers hold solveMu.
func (h *Hub) heal() (*hubSession, error) {
	if old := h.current(); old != nil {
		old.teardown()
		h.setCurrent(nil)
	}
	if len(h.setups) != h.workers {
		return nil, errors.New("transport: no retained setups to heal from")
	}
	conns, rejoined, err := h.admitFleet(time.Now().Add(h.rejoinWait), false)
	if err != nil {
		return nil, fmt.Errorf("transport: healing session within %v: %w", h.rejoinWait, err)
	}
	s, err := h.startSession(conns, func(w int) wire.Setup { return h.setups[w] })
	if err != nil {
		return nil, fmt.Errorf("transport: healing session: %w", err)
	}
	h.rejoins.Add(int64(rejoined))
	h.heals.Add(1)
	return s, nil
}

// admit reads one connection's opening frame and validates it: the worker
// must announce exactly wire.Version — coordinator and workers are built
// from one tree, so anything else is a stale binary whose frames would be
// mis-decoded — and a Rejoin must carry this hub's session identity. A
// refused connection gets an Abort with the reason and is closed; the error
// carries the same reason.
func (h *Hub) admit(conn net.Conn, deadline time.Time) (a acceptedConn, viaRejoin bool, err error) {
	reject := func(format string, args ...any) (acceptedConn, bool, error) {
		err := fmt.Errorf(format, args...)
		_ = wire.WriteFrame(conn, wire.EncodeAbort(nil, wire.Abort{Reason: "transport: " + err.Error()}))
		_ = conn.Close()
		return acceptedConn{}, false, err
	}
	_ = conn.SetReadDeadline(deadline)
	frame, err := wire.ReadFrame(conn, nil)
	if err != nil {
		_ = conn.Close()
		return acceptedConn{}, false, fmt.Errorf("opening frame: %w", err)
	}
	var version uint32
	var session uint64
	switch frame[0] {
	case wire.FrameRejoin:
		rj, err := wire.DecodeRejoin(frame[1:])
		if err != nil {
			return reject("unreadable rejoin: %v", err)
		}
		version, session, viaRejoin, a.addr = rj.Version, rj.SessionID, true, rj.PeerAddr
	case wire.FrameHello:
		hello, err := wire.DecodeHello(frame[1:])
		if err != nil {
			return reject("unreadable hello: %v", err)
		}
		version, a.addr = hello.Version, hello.PeerAddr
	default:
		return reject("frame %d before hello/rejoin", frame[0])
	}
	if version != wire.Version {
		return reject("worker speaks wire version %d, coordinator speaks %d", version, wire.Version)
	}
	if viaRejoin && session != h.sessionID {
		return reject("rejoin for unknown session %#x", session)
	}
	a.conn = conn
	return a, viaRejoin, nil
}

// readWorker forwards worker w's frames to the event loop. Each frame gets
// a fresh buffer: control traffic is low-rate and the event loop owns the
// bytes afterwards.
func (s *hubSession) readWorker(w int) {
	for {
		frame, err := s.peers[w].readFrame(nil)
		if err != nil {
			s.events <- hubEvent{worker: w, err: err}
			return
		}
		s.events <- hubEvent{worker: w, typ: frame[0], body: frame[1:]}
	}
}

// fail poisons the session: every worker is told to abort, pending waiters
// unblock with the error, and the hub records the fault (driving the
// onLost respawn hook when recovery is armed).
func (s *hubSession) fail(err error) {
	s.failOnce.Do(func() {
		s.failMu.Lock()
		s.failErr = err
		s.failMu.Unlock()
		payload := wire.EncodeAbort(nil, wire.Abort{Reason: err.Error()})
		for _, p := range s.peers {
			_ = p.send(payload)
		}
		close(s.failCh)
		s.h.sessionFailed(err)
	})
}

// Err returns the error that poisoned the session, or nil.
func (s *hubSession) Err() error {
	s.failMu.Lock()
	defer s.failMu.Unlock()
	return s.failErr
}

// sessionFailed records one poisoned generation and fires the respawn
// hook. Clean closes don't come through here (the event loop checks
// closing first).
func (h *Hub) sessionFailed(err error) {
	if h.closing.Load() {
		return
	}
	h.detected.Add(1)
	h.lastMu.Lock()
	h.lastErr = err.Error()
	h.lastMu.Unlock()
	if h.recov && h.onLost != nil {
		go h.onLost(err)
	}
}

// teardown ends a (typically already poisoned) generation: close every
// peer so blocked readers unwind, then wait (bounded) for the event loop
// to drain.
func (s *hubSession) teardown() {
	s.fail(errors.New("transport: session superseded"))
	for _, p := range s.peers {
		p.close()
	}
	select {
	case <-s.loopEnd:
	case <-time.After(5 * time.Second):
	}
}

// Err returns the error that poisoned the current session, or nil. With
// recovery on, a healed hub reports nil again; between failure and heal it
// reports the most recent poisoning reason.
func (h *Hub) Err() error {
	if s := h.current(); s != nil {
		return s.Err()
	}
	h.lastMu.Lock()
	defer h.lastMu.Unlock()
	if h.lastErr == "" {
		return nil
	}
	return errors.New(h.lastErr)
}

// SolveSpec broadcasts one query and blocks until every worker reports done
// (or the session fails). Calls are serialized; spec.QueryID must be unique.
func (h *Hub) SolveSpec(spec wire.SolveSpec) (QueryOutcome, error) {
	return h.dispatch(spec.QueryID, wire.EncodeSolveSpec(nil, spec))
}

// dispatch broadcasts one encoded query frame and blocks until every worker
// reports done. Without recovery a session fault fails the query (and every
// later one). With recovery the fault triggers a heal — tearing down the
// poisoned generation, re-admitting the fleet, re-shipping the retained
// Setups — and the query is requeued on the healed generation, once; the
// solve is deterministic from setup + query, so the retried answer is
// byte-identical to what the lost generation would have produced.
func (h *Hub) dispatch(qid uint64, payload []byte) (QueryOutcome, error) {
	h.solveMu.Lock()
	defer h.solveMu.Unlock()
	retried := false
	for {
		s, err := h.readySession()
		if err != nil {
			return QueryOutcome{}, err
		}
		out, err := s.runQuery(qid, payload)
		if err == nil {
			return out, nil
		}
		if !h.recov || retried || h.closing.Load() {
			return QueryOutcome{}, err
		}
		retried = true
		h.requeued.Add(1)
	}
}

// readySession returns a healthy session to dispatch on, healing a
// poisoned one first when recovery is armed. Callers hold solveMu.
func (h *Hub) readySession() (*hubSession, error) {
	s := h.current()
	if s != nil && s.Err() == nil {
		return s, nil
	}
	if !h.recov {
		if s == nil {
			return nil, errors.New("transport: no active session")
		}
		return nil, s.Err()
	}
	return h.heal()
}

// runQuery registers the pending query, broadcasts the frame and waits for
// every worker's done (or the session's poisoning).
func (s *hubSession) runQuery(qid uint64, payload []byte) (QueryOutcome, error) {
	if err := s.Err(); err != nil {
		return QueryOutcome{}, err
	}
	pq := &pendingQuery{
		qid:  qid,
		done: newTally(s.h.workers),
		out:  QueryOutcome{QueryID: qid, TableLens: make([]int64, s.h.ranks)},
		ch:   make(chan QueryOutcome, 1),
	}
	// Register before broadcasting so no done frame can beat the query.
	select {
	case s.events <- hubEvent{query: pq}:
	case <-s.failCh:
		return QueryOutcome{}, s.Err()
	}
	for w, p := range s.peers {
		if err := p.send(payload); err != nil {
			s.fail(fmt.Errorf("transport: solve to worker %d: %w", w, err))
			return QueryOutcome{}, s.Err()
		}
	}
	select {
	case out := <-pq.ch:
		return out, nil
	case <-s.failCh:
		return QueryOutcome{}, s.Err()
	}
}

// Close ends the hub: the current session's workers get a goodbye, then the
// hub waits (bounded) for them to hang up — their readers draining is the
// signal the goodbye was processed — before tearing the connections and the
// listener down.
func (h *Hub) Close() {
	h.closeOnce.Do(func() {
		h.closing.Store(true)
		if s := h.current(); s != nil {
			s.shutdown()
		}
		_ = h.ln.Close()
	})
}

// shutdown runs a clean session end (Close path).
func (s *hubSession) shutdown() {
	for _, p := range s.peers {
		_ = p.send([]byte{wire.FrameGoodbye})
	}
	select {
	case <-s.loopEnd:
	case <-time.After(5 * time.Second):
	}
	for _, p := range s.peers {
		p.close()
	}
}

// run is the event loop: collectives, termination tokens, query outcomes
// and failures, all serialized here.
func (s *hubSession) run() {
	defer close(s.loopEnd)
	colls := make(map[uint64]*collAcc)
	sessions := make(map[uint64]*tokenSession)
	var pending *pendingQuery
	closedReaders := 0
	for ev := range s.events {
		switch {
		case ev.query != nil:
			pending = ev.query
		case ev.err != nil:
			closedReaders++
			// During a clean Close, workers hanging up is the expected
			// end of the session, not a failure.
			if s.Err() == nil && !s.h.closing.Load() {
				s.fail(fmt.Errorf("transport: worker %d connection: %w", ev.worker, ev.err))
			}
			if closedReaders == s.h.workers {
				return
			}
		default:
			if err := s.handleFrame(ev, colls, sessions, &pending); err != nil {
				s.fail(err)
			}
		}
	}
}

// handleFrame processes one worker frame inside the event loop.
func (s *hubSession) handleFrame(ev hubEvent, colls map[uint64]*collAcc,
	sessions map[uint64]*tokenSession, pending **pendingQuery) error {
	h := s.h
	w := ev.worker
	switch ev.typ {
	case wire.FrameColl:
		coll, err := wire.DecodeColl(ev.body)
		if err != nil {
			return fmt.Errorf("transport: collective from worker %d: %w", w, err)
		}
		return s.handleColl(w, coll, colls)

	case wire.FrameTraverseBegin:
		tb, err := wire.DecodeTraverseBegin(ev.body)
		if err != nil {
			return fmt.Errorf("transport: traverse begin from worker %d: %w", w, err)
		}
		ts := sessions[tb.Seq]
		if ts == nil {
			ts = &tokenSession{began: newTally(h.workers), at: -1}
			sessions[tb.Seq] = ts
		}
		if !ts.began.add(w) {
			return fmt.Errorf("transport: traversal %d: worker %d began twice", tb.Seq, w)
		}
		if ts.began.full() {
			// All processes entered the traversal: start the first token
			// round. Workers reset their color to black at traversal
			// start, so at least two rounds always run.
			ts.at = 0
			return s.sendToken(ts, wire.Token{Seq: tb.Seq, Q: 0, Black: false})
		}
		return nil

	case wire.FrameToken:
		tok, err := wire.DecodeToken(ev.body)
		if err != nil {
			return fmt.Errorf("transport: token from worker %d: %w", w, err)
		}
		ts := sessions[tok.Seq]
		if ts == nil || ts.at != w {
			return fmt.Errorf("transport: unexpected token for traversal %d from worker %d", tok.Seq, w)
		}
		if w+1 < h.workers {
			ts.at = w + 1
			return s.sendToken(ts, tok)
		}
		// Round complete at the last worker.
		if !tok.Black && tok.Q == 0 {
			delete(sessions, tok.Seq)
			payload := wire.EncodeTraverseDone(nil, wire.TraverseDone{Seq: tok.Seq})
			for dw, p := range s.peers {
				if err := p.send(payload); err != nil {
					return fmt.Errorf("transport: traverse done to worker %d: %w", dw, err)
				}
			}
			return nil
		}
		ts.at = 0
		return s.sendToken(ts, wire.Token{Seq: tok.Seq, Q: 0, Black: false})

	case wire.FrameWorkerDone:
		done, err := wire.DecodeWorkerDone(ev.body)
		if err != nil {
			return fmt.Errorf("transport: done from worker %d: %w", w, err)
		}
		pq := *pending
		if pq == nil || pq.qid != done.QueryID {
			return fmt.Errorf("transport: done for unknown query %d from worker %d", done.QueryID, w)
		}
		if !pq.done.add(w) {
			return fmt.Errorf("transport: query %d: worker %d reported done twice", done.QueryID, w)
		}
		lo, hi := h.RankRange(w)
		if len(done.TableLens) != hi-lo {
			return fmt.Errorf("transport: worker %d reported %d table sizes for %d ranks",
				w, len(done.TableLens), hi-lo)
		}
		copy(pq.out.TableLens[lo:hi], done.TableLens)
		pq.out.Stats = pq.out.Stats.Add(done.Stats)
		if done.Err != "" {
			pq.out.Err = done.Err
		}
		if done.HasResult {
			pq.out.Result = &done.Result
		}
		if pq.done.full() {
			*pending = nil
			pq.ch <- pq.out
		}
		return nil

	case wire.FrameAbort:
		return fmt.Errorf("transport: worker %d aborted: %s", w, abortReason(ev.body))

	default:
		return fmt.Errorf("transport: unexpected frame type %d from worker %d", ev.typ, w)
	}
}

// sendToken forwards the termination token to the session's current
// holder (ts.at, set by the caller).
func (s *hubSession) sendToken(ts *tokenSession, tok wire.Token) error {
	if err := s.peers[ts.at].send(wire.EncodeToken(nil, tok)); err != nil {
		return fmt.Errorf("transport: token to worker %d: %w", ts.at, err)
	}
	return nil
}

// handleColl folds one collective contribution and, once every worker has
// contributed, replies: the same payload to all, except for an exchange,
// where each worker gets only the blobs addressed to its rank range plus the
// broadcasts. Consecutive collectives of any op share the sequence, so
// workers whose programs diverge meet here as an op mismatch at the step
// where they part.
func (s *hubSession) handleColl(w int, coll wire.Coll, colls map[uint64]*collAcc) error {
	h := s.h
	if coll.Op < rt.OpBarrier || coll.Op > rt.OpExchange {
		return fmt.Errorf("transport: collective %d: unknown op %d from worker %d", coll.Seq, coll.Op, w)
	}
	acc := colls[coll.Seq]
	if acc == nil {
		acc = &collAcc{op: coll.Op, from: newTally(h.workers)}
		colls[coll.Seq] = acc
	}
	if acc.op != coll.Op {
		return fmt.Errorf("transport: collective %d op mismatch (%d vs %d) from worker %d",
			coll.Seq, acc.op, coll.Op, w)
	}
	if !acc.from.add(w) {
		return fmt.Errorf("transport: collective %d: worker %d contributed twice", coll.Seq, w)
	}
	switch coll.Op {
	case rt.OpBarrier:
	case rt.OpExchange:
		blobs, err := wire.DecodeBlobs(coll.Payload)
		if err != nil {
			return fmt.Errorf("transport: exchange %d from worker %d: %w", coll.Seq, w, err)
		}
		lo, hi := h.RankRange(w)
		for _, b := range blobs {
			if b.Src < lo || b.Src >= hi || b.Dest < -1 || b.Dest >= h.ranks {
				return fmt.Errorf("transport: exchange %d: blob %d -> %d from worker %d hosting ranks [%d,%d) of %d",
					coll.Seq, b.Src, b.Dest, w, lo, hi, h.ranks)
			}
		}
		acc.blobs = append(acc.blobs, blobs...)
	default:
		x, err := wire.DecodeInt64(coll.Payload)
		if err != nil {
			return fmt.Errorf("transport: allreduce %d from worker %d: %w", coll.Seq, w, err)
		}
		switch {
		case acc.from.n == 1:
			acc.acc = x
		case coll.Op == rt.OpMin:
			acc.acc = min(acc.acc, x)
		case coll.Op == rt.OpMax:
			acc.acc = max(acc.acc, x)
		default:
			acc.acc += x
		}
	}
	if !acc.from.full() {
		return nil
	}
	delete(colls, coll.Seq)
	var payload, reply []byte
	if coll.Op != rt.OpBarrier && coll.Op != rt.OpExchange {
		payload = wire.EncodeInt64(acc.acc)
	}
	for dw, p := range s.peers {
		if coll.Op == rt.OpExchange {
			lo, hi := h.RankRange(dw)
			var mine []rt.Blob
			for _, b := range acc.blobs {
				if b.Dest == -1 || (b.Dest >= lo && b.Dest < hi) {
					mine = append(mine, b)
				}
			}
			payload = wire.AppendBlobs(payload[:0], mine)
		}
		if dw == 0 || coll.Op == rt.OpExchange { // send copies, so the buffers are reused
			reply = wire.EncodeCollReply(reply[:0], wire.CollReply{Seq: coll.Seq, Payload: payload})
		}
		if err := p.send(reply); err != nil {
			return fmt.Errorf("transport: collective reply to worker %d: %w", dw, err)
		}
	}
	return nil
}
