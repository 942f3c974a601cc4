package core

import (
	"fmt"
	"net"
	"time"

	"dsteiner/internal/faultpoint"
	"dsteiner/internal/graph"
	"dsteiner/internal/partition"
	rt "dsteiner/internal/runtime"
	"dsteiner/internal/transport"
	"dsteiner/internal/voronoi"
	"dsteiner/internal/wire"
)

// WorkerConfig parameterizes RunWorker and ServeWorker.
type WorkerConfig struct {
	// PeerListen is the address the worker's mesh listener binds
	// (default 127.0.0.1:0). Its bound form is advertised to the
	// coordinator, so on a multi-host deployment it must name a
	// reachable interface.
	PeerListen string
	// DialTimeout bounds the initial coordinator dial and the handshake
	// steps (default 30s).
	DialTimeout time.Duration
	// RejoinWait, when positive, makes ServeWorker treat a session fault
	// as survivable: the worker re-dials the coordinator and re-handshakes
	// with a Rejoin frame carrying the session identity, waiting up to
	// this long for the coordinator's heal to re-admit it. 0 means
	// fail-stop: any fault ends the worker.
	RejoinWait time.Duration
	// Chaos, when set, wraps the session's transport in a fault-injecting
	// shim (chaos testing). It applies to the FIRST session only: a healed
	// session runs clean, so an injected fault cannot re-fire forever.
	Chaos *transport.ChaosConfig
	// Logf, when set, receives progress lines (rankd wires the standard
	// logger here).
	Logf func(format string, args ...any)
}

func (c WorkerConfig) withDefaults() WorkerConfig {
	if c.PeerListen == "" {
		c.PeerListen = "127.0.0.1:0"
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 30 * time.Second
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// RunWorker is one rankd worker session: dial the coordinator, receive
// this process's slice of the shard plan, rebuild the hosted ranks' shards
// and state slabs locally (the full CSR is never materialized here), mesh
// with the peer workers, and serve solve requests until the coordinator
// says goodbye. Blocks for the whole session; returns nil on a clean
// goodbye. Any session fault is terminal (fail-stop) — ServeWorker is the
// rejoining form.
func RunWorker(coordAddr string, cfg WorkerConfig) error {
	_, err := runWorkerSession(coordAddr, cfg.withDefaults(), nil)
	return err
}

// ServeWorker runs worker sessions against one coordinator until a clean
// goodbye. With cfg.RejoinWait set, a session fault — a lost peer or
// coordinator connection, a rank panic, a coordinator abort — does not end
// the worker: it re-dials and re-handshakes with a Rejoin frame proving
// membership in the lost session, and the coordinator's heal hands it a
// fresh Setup (possibly hosting different ranks). Handshake and build
// errors stay terminal: a worker the fleet never admitted has no session
// to rejoin.
func ServeWorker(coordAddr string, cfg WorkerConfig) error {
	cfg = cfg.withDefaults()
	var prev *rejoinTicket
	for {
		ticket, err := runWorkerSession(coordAddr, cfg, prev)
		if err == nil {
			return nil
		}
		if cfg.RejoinWait <= 0 || ticket == nil {
			return err
		}
		cfg.Logf("rankd: session fault: %v; rejoining session %#x within %v",
			err, ticket.sessionID, cfg.RejoinWait)
		prev = ticket
		// Injected faults apply to the first session only: the healed
		// session must run clean, or recovery could never converge.
		cfg.Chaos = nil
	}
}

// rejoinTicket is what a worker keeps from a lost session to prove
// membership on rejoin: the coordinator's session identity plus the slot
// this process held (advisory — heal assigns slots in accept order).
type rejoinTicket struct {
	sessionID  uint64
	prevWorker int
}

// runWorkerSession runs one worker session end to end. A non-nil ticket
// makes the handshake open with a Rejoin frame instead of a Hello (and
// stretches the handshake deadline to cfg.RejoinWait, since the
// coordinator only heals on its next dispatch). The returned ticket is
// non-nil only when a fault ended an established session — the caller may
// rejoin with it; handshake and build errors return a nil ticket.
func runWorkerSession(coordAddr string, cfg WorkerConfig, rejoin *rejoinTicket) (*rejoinTicket, error) {
	window := cfg.DialTimeout
	if rejoin != nil && cfg.RejoinWait > window {
		window = cfg.RejoinWait
	}
	conn, err := net.DialTimeout("tcp", coordAddr, window)
	if err != nil {
		return nil, fmt.Errorf("core: dial coordinator %s: %w", coordAddr, err)
	}
	ln, err := net.Listen("tcp", cfg.PeerListen)
	if err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("core: peer listener %s: %w", cfg.PeerListen, err)
	}
	defer ln.Close()

	var opening []byte
	if rejoin != nil {
		opening = wire.EncodeRejoin(nil, wire.Rejoin{
			Version:    wire.Version,
			PeerAddr:   ln.Addr().String(),
			SessionID:  rejoin.sessionID,
			PrevWorker: int64(rejoin.prevWorker),
		})
	} else {
		opening = wire.EncodeHello(nil, wire.Hello{
			Version:  wire.Version,
			PeerAddr: ln.Addr().String(),
		})
	}
	if err := wire.WriteFrame(conn, opening); err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("core: hello: %w", err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(window))
	frame, err := wire.ReadFrame(conn, nil)
	if err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("core: waiting for setup: %w", err)
	}
	if frame[0] == wire.FrameAbort {
		reason := "unreadable abort frame"
		if ab, err := wire.DecodeAbort(frame[1:]); err == nil {
			reason = ab.Reason
		}
		_ = conn.Close()
		return nil, fmt.Errorf("core: coordinator rejected session: %s", reason)
	}
	if frame[0] != wire.FrameSetup {
		_ = conn.Close()
		return nil, fmt.Errorf("core: coordinator sent frame %d before setup", frame[0])
	}
	setup, err := wire.DecodeSetup(frame[1:])
	if err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("core: setup: %w", err)
	}
	_ = conn.SetReadDeadline(time.Time{})

	w, err := buildWorker(setup, conn, ln, cfg)
	if err != nil {
		// Best effort: tell the coordinator why this worker is bailing.
		_ = wire.WriteFrame(conn, wire.EncodeAbort(nil, wire.Abort{Reason: err.Error()}))
		_ = conn.Close()
		return nil, err
	}
	if err := w.serve(cfg); err != nil {
		// A fault on an established session: hand the caller the rejoin
		// ticket.
		return &rejoinTicket{sessionID: setup.SessionID, prevWorker: setup.WorkerIndex}, err
	}
	return nil, nil
}

// worker is one rankd process's session state: the rank host over its
// hosted range, and beside it the TCP transport the host's communicator
// talks through.
type worker struct {
	n     int // |V| of the session's graph, for validating inbound specs
	host  *rankHost
	trans *transport.TCP

	shardBytes int64
	stateBytes int64
}

// buildWorker reconstructs the rank substrate from the setup frame and
// wires the communicator to the transport.
func buildWorker(setup wire.Setup, coord net.Conn, ln net.Listener, cfg WorkerConfig) (*worker, error) {
	if setup.WorkerIndex < 0 || setup.WorkerIndex+1 >= len(setup.RankLo) ||
		len(setup.PeerAddrs) != len(setup.RankLo)-1 || setup.Ranks <= 0 || setup.NumVertices <= 0 {
		return nil, fmt.Errorf("core: inconsistent setup geometry (worker %d, %d rank bounds, %d peers)",
			setup.WorkerIndex, len(setup.RankLo), len(setup.PeerAddrs))
	}
	lo, hi := int(setup.RankLo[setup.WorkerIndex]), int(setup.RankLo[setup.WorkerIndex+1])
	// A worker hosts at least one rank, all of them inside the session: every
	// per-rank table below is indexed by global rank.
	if lo < 0 || lo >= hi || hi > setup.Ranks {
		return nil, fmt.Errorf("core: inconsistent setup geometry (worker %d hosts ranks [%d,%d) of %d)",
			setup.WorkerIndex, lo, hi, setup.Ranks)
	}
	if len(setup.Shards) != hi-lo {
		return nil, fmt.Errorf("core: setup carries %d shard slices for ranks [%d,%d)", len(setup.Shards), lo, hi)
	}
	part, err := workerPartition(setup)
	if err != nil {
		return nil, err
	}
	// The enum byte comes off the wire: an unknown value is an error, never
	// a default the operator did not ask for.
	if setup.Queue > uint8(rt.QueuePriority) {
		return nil, fmt.Errorf("core: setup enum out of range (queue %d)", setup.Queue)
	}

	w := &worker{n: setup.NumVertices}
	shards := make([]*graph.Shard, 0, hi-lo)
	slabs := make([]*voronoi.StateSlab, 0, hi-lo)
	for i, sl := range setup.Shards {
		if sl.Rank != lo+i {
			return nil, fmt.Errorf("core: shard slice %d is for rank %d, want %d", i, sl.Rank, lo+i)
		}
		vlo, vhi := part.Range(sl.Rank)
		sh, err := graph.NewShardFromSlices(setup.NumVertices, sl.Rank, setup.Ranks, vlo, vhi, sl.Offsets,
			sl.Targets, sl.Weights)
		if err != nil {
			return nil, fmt.Errorf("core: inconsistent setup geometry (rank %d shard slice): %w", sl.Rank, err)
		}
		shards = append(shards, sh)
		slab := voronoi.NewStateSlab(sl.Rank, vlo, vhi, sh)
		slabs = append(slabs, slab)
		w.shardBytes += sh.MemoryBytes()
		w.stateBytes += slab.MemoryBytes()
	}

	cfg.Logf("rankd: worker %d/%d hosting ranks [%d,%d), |V|=%d, shard %d B, slab %d B",
		setup.WorkerIndex, len(setup.PeerAddrs), lo, hi, setup.NumVertices, w.shardBytes, w.stateBytes)

	mesh, err := transport.ConnectMesh(setup.WorkerIndex, setup.PeerAddrs, ln, cfg.DialTimeout)
	if err != nil {
		return nil, err
	}
	w.trans = transport.NewTCP(setup.WorkerIndex, setup.RankLo, coord, mesh)
	// The communicator talks to the transport seam; chaos testing slides
	// its fault-injecting shim in here, so injected faults hit the same
	// sockets and decode paths production traffic uses. The worker keeps
	// the concrete TCP handle for control traffic (ready/abort/done).
	var seam rt.Transport = w.trans
	if cfg.Chaos != nil {
		seam = transport.NewChaos(w.trans, *cfg.Chaos)
	}
	comm, err := rt.New(rt.Config{
		Ranks:     setup.Ranks,
		Queue:     rt.QueueKind(setup.Queue),
		BatchSize: setup.BatchSize,
		HostLo:    lo,
		HostHi:    hi,
		Transport: seam,
	}, part)
	if err != nil {
		return nil, err
	}
	if err := comm.AttachShards(shards); err != nil {
		return nil, err
	}
	w.host = newRankHost(comm, setup.BSP, slabs)
	return w, nil
}

// workerPartition rebuilds the session's vertex partition from its wire
// form, the P+1 range bounds.
func workerPartition(setup wire.Setup) (*partition.Partition, error) {
	part, err := partition.NewFromBounds(setup.Bounds)
	if err == nil && (part.NumRanks() != setup.Ranks || part.NumVertices() != setup.NumVertices) {
		err = fmt.Errorf("bounds describe %d ranks over %d vertices, want %d over %d",
			part.NumRanks(), part.NumVertices(), setup.Ranks, setup.NumVertices)
	}
	if err != nil {
		return nil, fmt.Errorf("core: inconsistent setup geometry (partition): %w", err)
	}
	return part, nil
}

// serve answers coordinator control frames until goodbye or failure.
func (w *worker) serve(cfg WorkerConfig) error {
	w.host.comm.Start()
	defer w.host.comm.Close()
	defer w.trans.Close()
	if err := w.trans.SendReady(wire.Ready{ShardBytes: w.shardBytes, StateBytes: w.stateBytes}); err != nil {
		return fmt.Errorf("core: ready: %w", err)
	}
	for ctl := range w.trans.Controls() {
		switch ctl.Kind {
		case transport.ControlSolve:
			if err := w.solveQuery(ctl.Spec, cfg); err != nil {
				w.trans.SendAbort(err.Error())
				return err
			}
		case transport.ControlGoodbye:
			cfg.Logf("rankd: session over, exiting")
			return nil
		case transport.ControlAbort:
			return fmt.Errorf("core: session aborted: %w", ctl.Err)
		}
	}
	return nil
}

// solveQuery runs the SPMD body for one query on the hosted ranks and
// reports the worker's outcome (including rank 0's Result when hosted).
// The spec comes off the wire, so it goes through the same validation as any
// other query; canonicalization is idempotent, so on the canonical spec the
// coordinator ships it reproduces the coordinator's dense terminal indices.
func (w *worker) solveQuery(q wire.SolveSpec, cfg WorkerConfig) (err error) {
	cq, err := canonSpec(w.n, specFromWire(q))
	if err != nil {
		return fmt.Errorf("core: query %d: invalid spec from coordinator: %w", q.QueryID, err)
	}
	// A rank panic (or transport poison) unwinds through the run; convert it
	// into a session abort instead of crashing the process silently.
	var res *Result
	var solveErr error
	func() {
		defer func() {
			if p := recover(); p != nil {
				if terr := w.trans.Err(); terr != nil {
					err = fmt.Errorf("core: query %d: transport failed: %w", q.QueryID, terr)
				} else {
					err = fmt.Errorf("core: query %d: rank panic: %v", q.QueryID, p)
				}
			}
		}()
		res, solveErr = w.host.run(cq)
	}()
	if err != nil {
		return err
	}

	done := wire.WorkerDone{QueryID: q.QueryID, TableLens: w.host.tableLens(), Stats: res.Stats}
	if lo, _ := w.host.comm.HostRange(); lo == 0 {
		if solveErr != nil {
			done.Err = solveErr.Error()
		} else {
			done.HasResult = true
			done.Result = toWireResult(res)
		}
	}
	faultpoint.Hit("worker.done")
	if err := w.trans.SendWorkerDone(done); err != nil {
		return fmt.Errorf("core: query %d: done: %w", q.QueryID, err)
	}
	return nil
}
