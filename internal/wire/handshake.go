package wire

import (
	"fmt"

	"dsteiner/internal/graph"
)

// Partition kinds on the wire (mirrors core.PartitionKind; frozen
// independently so the wire format does not drift with the solver enum).
const (
	PartBlock uint8 = 1 + iota
	PartHash
	PartArcBlock
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
// session setup: everything the worker needs to rebuild the rank's
// graph.Shard (owned CSR slab + delegate stripes) and voronoi.StateSlab
// (owned rows + delegate mirror stripe) without ever holding the full CSR.
// The slices are graph.CutShard's raw form: the worker resolves the targets
// into its shard (graph.NewShardFromSlices) and keeps no copy of them.
type ShardSlice struct {
	Rank          int
	Owned         []graph.VID // owned vertices, strictly increasing
	Offsets       []int64     // len(Owned)+1 CSR row offsets into Targets
	Targets       []graph.VID
	Weights       []uint32
	StripeOff     []int64 // len(delegates)+1 offsets into StripeTargets
	StripeTargets []graph.VID
	StripeWeights []uint32
	Mirrored      []graph.VID // delegates this rank does not own (slab mirrors)
}

func appendShardSlice(dst []byte, s ShardSlice) []byte {
	dst = AppendUvarint(dst, uint64(s.Rank))
	dst = AppendVIDs(dst, s.Owned)
	dst = AppendInt64s(dst, s.Offsets)
	dst = AppendVIDs(dst, s.Targets)
	dst = AppendUint32s(dst, s.Weights)
	dst = AppendInt64s(dst, s.StripeOff)
	dst = AppendVIDs(dst, s.StripeTargets)
	dst = AppendUint32s(dst, s.StripeWeights)
	dst = AppendVIDs(dst, s.Mirrored)
	return dst
}

func decodeShardSlice(d *Dec) ShardSlice {
	return ShardSlice{
		Rank:          d.Int(),
		Owned:         d.VIDs(),
		Offsets:       d.Int64s(),
		Targets:       d.VIDs(),
		Weights:       d.Uint32s(),
		StripeOff:     d.Int64s(),
		StripeTargets: d.VIDs(),
		StripeWeights: d.Uint32s(),
		Mirrored:      d.VIDs(),
	}
}

// Setup is the session handshake the coordinator sends each worker once all
// workers have said Hello. It fixes the communicator geometry (P ranks over
// W workers, contiguous rank ranges), replays the runtime and solver
// configuration, encodes the vertex partition compactly (kind + bounds +
// delegate list — workers reconstruct partition.Partition locally), names
// every worker's mesh address, and carries this worker's shard slices.
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
	Queue       uint8
	BucketDelta uint64
	BatchSize   int

	// Solver configuration the per-rank body needs (core.Options subset).
	BSP bool

	// Partition reconstruction.
	PartitionKind uint8
	ArcBounds     []graph.VID // PartArcBlock only: len P+1 range bounds
	Delegates     []graph.VID // delegate vertices (empty = no delegation)

	// This worker's shard slices, one per hosted rank.
	Shards []ShardSlice

	// SessionID identifies this handshake's session for fault recovery: a
	// worker that loses the session re-dials and presents it in a Rejoin
	// frame.
	SessionID uint64

	// Frontier is the operator's REQUESTED bucket-drain mode
	// (core.FrontierMode: 0 = auto, 1 = serial, 2 = parallel). It is
	// shipped unresolved: auto depends on each worker's own GOMAXPROCS, so
	// every worker resolves it locally. FrontierWorkers is
	// the per-process frontier worker budget (0 = the worker's GOMAXPROCS),
	// split across that worker's hosted ranks.
	Frontier        uint8
	FrontierWorkers uint64
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
	dst = AppendUvarint(dst, s.BucketDelta)
	dst = AppendUvarint(dst, uint64(s.BatchSize))
	dst = appendBool(dst, s.BSP)
	dst = append(dst, s.PartitionKind)
	dst = AppendVIDs(dst, s.ArcBounds)
	dst = AppendVIDs(dst, s.Delegates)
	dst = AppendUvarint(dst, uint64(len(s.Shards)))
	for _, sh := range s.Shards {
		dst = appendShardSlice(dst, sh)
	}
	dst = AppendUvarint(dst, s.SessionID)
	dst = append(dst, s.Frontier)
	dst = AppendUvarint(dst, s.FrontierWorkers)
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
	s.BucketDelta = d.Uvarint()
	s.BatchSize = d.Int()
	s.BSP = d.Bool()
	s.PartitionKind = d.Byte()
	s.ArcBounds = d.VIDs()
	s.Delegates = d.VIDs()
	nShards := d.Int()
	if d.err == nil && nShards > d.Len() {
		return s, fmt.Errorf("%w: shard slice count", ErrCorrupt)
	}
	for i := 0; i < nShards && d.err == nil; i++ {
		s.Shards = append(s.Shards, decodeShardSlice(d))
	}
	s.SessionID = d.Uvarint()
	s.Frontier = d.Byte()
	s.FrontierWorkers = d.Uvarint()
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
