package wire

import (
	"fmt"

	"dsteiner/internal/graph"
)

// Hello is the first frame a worker sends after dialing the coordinator.
type Hello struct {
	// Version is the worker's wire-protocol version; the coordinator
	// rejects anything but its own Version before any session state is
	// built.
	Version uint32
	// PeerAddr is the address of the worker's mesh listener, which other
	// workers dial for direct rank-to-rank message traffic.
	PeerAddr string
}

// EncodeHello appends a FrameHello payload.
func EncodeHello(dst []byte, h Hello) []byte {
	dst = append(dst, FrameHello)
	dst = AppendUvarint(dst, uint64(h.Version))
	dst = AppendString(dst, h.PeerAddr)
	return dst
}

// DecodeHello decodes a FrameHello body.
func DecodeHello(body []byte) (Hello, error) {
	d := NewDec(body)
	h := Hello{Version: uint32(d.Uvarint()), PeerAddr: d.String()}
	return h, d.finish()
}

// ShardSlice is one rank's slice of the partition.ShardPlan, shipped at
// session setup: the adjacency the worker needs to rebuild the rank's
// graph.Shard (the owned CSR slab) without ever holding the full CSR. The
// rank's range follows from the Setup's Bounds. The slices are
// graph.CutShard's raw form:
// the worker resolves the targets into its shard (graph.NewShardFromSlices)
// and keeps no copy of them.
type ShardSlice struct {
	Rank    int
	Offsets []int64 // one CSR row offset per owned vertex, plus the end
	Targets []graph.VID
	Weights []uint32
}

func appendShardSlice(dst []byte, s ShardSlice) []byte {
	dst = AppendUvarint(dst, uint64(s.Rank))
	dst = AppendInt64s(dst, s.Offsets)
	dst = AppendVIDs(dst, s.Targets)
	return AppendUint32s(dst, s.Weights)
}

func decodeShardSlice(d *Dec) ShardSlice {
	return ShardSlice{
		Rank:    d.Int(),
		Offsets: d.Int64s(),
		Targets: d.VIDs(),
		Weights: d.Uint32s(),
	}
}

// Setup is the session handshake the coordinator sends each worker once all
// workers have said Hello. It fixes the communicator geometry (P ranks over
// W workers, contiguous rank ranges), replays the runtime and solver
// configuration, encodes the vertex partition compactly (P+1 range bounds,
// from which workers reconstruct partition.Partition locally), names every
// worker's mesh address, and carries this worker's
// shard slices.
type Setup struct {
	// Geometry.
	Ranks       int
	NumVertices int
	WorkerIndex int
	// RankLo has NumWorkers+1 entries; worker w hosts ranks
	// [RankLo[w], RankLo[w+1]).
	RankLo []int64
	// PeerAddrs lists every worker's mesh listener in worker order.
	PeerAddrs []string

	// Runtime configuration (runtime.Config).
	Queue     uint8
	BatchSize int

	// Solver configuration the per-rank body needs (core.Options subset).
	BSP bool

	// Partition reconstruction.
	Bounds []graph.VID // len P+1; rank r owns [Bounds[r], Bounds[r+1])

	// This worker's shard slices, one per hosted rank.
	Shards []ShardSlice

	// SessionID identifies this handshake's session for fault recovery: a
	// worker that loses the session re-dials and presents it in a Rejoin
	// frame.
	SessionID uint64
}

// EncodeSetup appends a FrameSetup payload.
func EncodeSetup(dst []byte, s Setup) []byte {
	dst = append(dst, FrameSetup)
	dst = AppendUvarint(dst, uint64(s.Ranks))
	dst = AppendUvarint(dst, uint64(s.NumVertices))
	dst = AppendUvarint(dst, uint64(s.WorkerIndex))
	dst = AppendInt64s(dst, s.RankLo)
	dst = AppendUvarint(dst, uint64(len(s.PeerAddrs)))
	for _, a := range s.PeerAddrs {
		dst = AppendString(dst, a)
	}
	dst = append(dst, s.Queue)
	dst = AppendUvarint(dst, uint64(s.BatchSize))
	dst = appendBool(dst, s.BSP)
	dst = AppendVIDs(dst, s.Bounds)
	dst = AppendUvarint(dst, uint64(len(s.Shards)))
	for _, sh := range s.Shards {
		dst = appendShardSlice(dst, sh)
	}
	dst = AppendUvarint(dst, s.SessionID)
	return dst
}

// DecodeSetup decodes a FrameSetup body.
func DecodeSetup(body []byte) (Setup, error) {
	d := NewDec(body)
	var s Setup
	s.Ranks = d.Int()
	s.NumVertices = d.Int()
	s.WorkerIndex = d.Int()
	s.RankLo = d.Int64s()
	nAddrs := d.Int()
	if d.err == nil && nAddrs > d.Len() {
		return s, fmt.Errorf("%w: peer address count", ErrCorrupt)
	}
	for i := 0; i < nAddrs && d.err == nil; i++ {
		s.PeerAddrs = append(s.PeerAddrs, d.String())
	}
	s.Queue = d.Byte()
	s.BatchSize = d.Int()
	s.BSP = d.Bool()
	s.Bounds = d.VIDs()
	nShards := d.Int()
	if d.err == nil && nShards > d.Len() {
		return s, fmt.Errorf("%w: shard slice count", ErrCorrupt)
	}
	for i := 0; i < nShards && d.err == nil; i++ {
		s.Shards = append(s.Shards, decodeShardSlice(d))
	}
	s.SessionID = d.Uvarint()
	return s, d.finish()
}

// Ready is the worker's handshake acknowledgement: shard and state slab
// rebuilt, mesh connections up, resident bytes reported for the
// coordinator's memory accounting (ShardStats / Fig. 8).
type Ready struct {
	ShardBytes int64
	StateBytes int64
}

// EncodeReady appends a FrameReady payload.
func EncodeReady(dst []byte, r Ready) []byte {
	dst = append(dst, FrameReady)
	dst = AppendVarint(dst, r.ShardBytes)
	dst = AppendVarint(dst, r.StateBytes)
	return dst
}

// DecodeReady decodes a FrameReady body.
func DecodeReady(body []byte) (Ready, error) {
	d := NewDec(body)
	r := Ready{ShardBytes: d.Varint(), StateBytes: d.Varint()}
	return r, d.finish()
}

// PeerHello opens a mesh connection between two workers: the dialing
// worker names itself so the acceptor can index the connection.
type PeerHello struct {
	Worker int
}

// EncodePeerHello appends a FramePeerHello payload.
func EncodePeerHello(dst []byte, p PeerHello) []byte {
	dst = append(dst, FramePeerHello)
	return AppendUvarint(dst, uint64(p.Worker))
}

// DecodePeerHello decodes a FramePeerHello body.
func DecodePeerHello(body []byte) (PeerHello, error) {
	d := NewDec(body)
	p := PeerHello{Worker: d.Int()}
	return p, d.finish()
}

// Rejoin is the first frame a worker sends when re-dialing a coordinator
// after losing an established session: like Hello it advertises the
// worker's wire version and mesh listener address, and additionally proves
// session membership with the SessionID from its Setup. PrevWorker is the
// index the worker held before the fault — advisory only; the coordinator
// reassigns indices in accept order when it heals the session.
type Rejoin struct {
	Version    uint32
	PeerAddr   string
	SessionID  uint64
	PrevWorker int64
}

// EncodeRejoin appends a FrameRejoin payload.
func EncodeRejoin(dst []byte, r Rejoin) []byte {
	dst = append(dst, FrameRejoin)
	dst = AppendUvarint(dst, uint64(r.Version))
	dst = AppendString(dst, r.PeerAddr)
	dst = AppendUvarint(dst, r.SessionID)
	dst = AppendVarint(dst, r.PrevWorker)
	return dst
}

// DecodeRejoin decodes a FrameRejoin body.
func DecodeRejoin(body []byte) (Rejoin, error) {
	d := NewDec(body)
	r := Rejoin{
		Version:    uint32(d.Uvarint()),
		PeerAddr:   d.String(),
		SessionID:  d.Uvarint(),
		PrevWorker: d.Varint(),
	}
	return r, d.finish()
}

// Abort carries a session-poisoning reason in either direction.
type Abort struct {
	Reason string
}

// EncodeAbort appends a FrameAbort payload.
func EncodeAbort(dst []byte, a Abort) []byte {
	dst = append(dst, FrameAbort)
	return AppendString(dst, a.Reason)
}

// DecodeAbort decodes a FrameAbort body.
func DecodeAbort(body []byte) (Abort, error) {
	d := NewDec(body)
	a := Abort{Reason: d.String()}
	return a, d.finish()
}

func appendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}
