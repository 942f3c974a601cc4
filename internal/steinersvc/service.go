// Package steinersvc implements the HTTP query service behind
// cmd/steinersvc: the paper's §I interactive-exploration framework. A
// loaded graph is shared read-only across queries; each request checks a
// solver Engine out of a bounded pool, runs the query on pooled per-query
// state, and streams the resulting tree back as JSON. With a pool of N
// engines, N queries run concurrently on one resident graph; further
// requests queue for the next free engine, keeping memory bounded and
// per-query latency predictable.
//
// On top of the pool sit the multi-tenant serving layers:
//
//   - an LRU solution cache keyed by the canonicalized terminal set, with
//     single-flight coalescing so N concurrent identical queries cost one
//     engine solve (resultCache);
//   - POST /solve/batch, which answers a slice of queries in order, each
//     through the same cached path as /solve, a repeated item once;
//   - POST /solve/async + GET /jobs/{id}, a bounded job queue with explicit
//     429 backpressure so long solves never pin HTTP connections (jobStore);
//   - Shutdown, which drains the job queue and the engine pool so in-flight
//     solves finish cleanly before the engines' rank goroutines are
//     released.
package steinersvc

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"dsteiner/internal/core"
	"dsteiner/internal/faultpoint"
	"dsteiner/internal/graph"
	rt "dsteiner/internal/runtime"
	"dsteiner/internal/seeds"
	"dsteiner/internal/transport"
)

// maxBatchQueries bounds one POST /solve/batch request, so a single request
// body cannot monopolize an engine indefinitely.
const maxBatchQueries = 1024

// Config sizes the service's serving layers.
type Config struct {
	// Engines is the solver pool size (minimum 1): the maximum number of
	// concurrently executing solves. Each engine pins opts.Ranks goroutines
	// and O(|V|) solver state for its lifetime.
	Engines int
	// CacheEntries bounds the LRU solution cache; 0 disables caching and
	// single-flight coalescing.
	CacheEntries int
	// JobQueue bounds the async job queue; 0 disables the /solve/async and
	// /jobs/{id} endpoints.
	JobQueue int
}

// Service is an http.Handler answering Steiner-tree queries on one graph.
type Service struct {
	g    *graph.Graph
	opts core.Options
	mux  *http.ServeMux

	// shard describes the engines' sharded substrate (identical across the
	// pool; captured from the first engine at construction).
	shard core.ShardStats

	// first is the pool's first engine — on the TCP backend, the
	// coordinator whose fault accounting /stats mirrors. Engines cycle
	// through the pool channel, so this standing reference is how stats
	// reach a checked-out engine; FaultStats is safe to read concurrently.
	first *core.Engine

	// engines is the bounded pool: a query blocks here until an engine is
	// free, so at most cap(engines) solves are in flight at once.
	engines chan *core.Engine

	cache *resultCache // nil when disabled
	jobs  *jobStore    // nil when disabled

	workerWG sync.WaitGroup
	shutdown struct {
		once sync.Once
		err  error
	}

	stats serviceStats
}

// serviceStats aggregates pool utilization and per-query phase timings for
// the /stats endpoint.
type serviceStats struct {
	mu            sync.Mutex
	inFlight      int
	maxInFlight   int
	queries       int64
	errors        int64
	batchRequests int64
	batchQueries  int64
	solveSeconds  float64
	phaseSeconds  map[string]float64
	phaseCalls    map[string]int64
	// rt is the runtime counters record folded over every served query
	// (rt.Stats.Add): the broadcasts (suppressed offers) and transport
	// blocks of /stats render from it.
	rt rt.Stats

	// Phase 3–5 MST accounting: exchanged records and payload.
	mstCrossTableBytes int64
	mstFragmentMsgs    int64

	// retriedSolves counts queries this service re-ran after a session
	// fault (the coordinator's internal requeues are counted separately,
	// by the hub).
	retriedSolves int64
}

// New builds a Service over g with per-query solver options. See Config
// for the pool, cache and job-queue sizing. A BackendTCP pool is limited
// to one engine: the engine owns the whole rankd worker fleet, and its
// internal serialization is the fleet's natural concurrency limit.
func New(g *graph.Graph, opts core.Options, cfg Config) (*Service, error) {
	if cfg.Engines < 1 {
		cfg.Engines = 1
	}
	if opts.Backend == core.BackendTCP && cfg.Engines > 1 {
		return nil, fmt.Errorf("steinersvc: -backend tcp supports one engine (a worker fleet), got %d", cfg.Engines)
	}
	s := &Service{
		g:       g,
		opts:    opts,
		mux:     http.NewServeMux(),
		engines: make(chan *core.Engine, cfg.Engines),
		cache:   newResultCache(cfg.CacheEntries),
	}
	s.stats.phaseSeconds = make(map[string]float64, len(core.PhaseNames))
	s.stats.phaseCalls = make(map[string]int64, len(core.PhaseNames))
	// The first engine cuts the shard substrate; the rest are siblings
	// sharing it, so the pool holds one copy of the sharded graph, not
	// cfg.Engines copies.
	var first *core.Engine
	for i := 0; i < cfg.Engines; i++ {
		var e *core.Engine
		var err error
		if first == nil {
			e, err = core.NewEngine(g, opts)
		} else {
			e, err = first.NewSibling()
		}
		if err != nil {
			// Release the engines already built; workers have not started.
			for {
				select {
				case built := <-s.engines:
					built.Close()
				default:
					return nil, fmt.Errorf("steinersvc: engine %d: %w", i, err)
				}
			}
		}
		if first == nil {
			first = e
			s.first = e
			s.shard = e.ShardStats()
		}
		s.engines <- e
	}
	if cfg.JobQueue > 0 {
		s.jobs = newJobStore(cfg.JobQueue)
		// One worker per engine: more could not solve concurrently anyway,
		// and fewer would leave engines idle while jobs queue.
		for i := 0; i < cfg.Engines; i++ {
			s.workerWG.Add(1)
			go s.jobWorker()
		}
		s.mux.HandleFunc("/solve/async", s.handleSolveAsync)
		s.mux.HandleFunc("/jobs/{id}", s.handleJob)
	}
	s.mux.HandleFunc("/info", s.handleInfo)
	s.mux.HandleFunc("/solve", s.handleSolve)
	s.mux.HandleFunc("/v1/solve", s.handleSolveV1)
	s.mux.HandleFunc("/solve/batch", s.handleSolveBatch)
	s.mux.HandleFunc("/stats", s.handleStats)
	return s, nil
}

// MustNew is New that panics on error, for tests and examples with known
// good configurations.
func MustNew(g *graph.Graph, opts core.Options, cfg Config) *Service {
	s, err := New(g, opts, cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// NumEngines returns the engine pool capacity.
func (s *Service) NumEngines() int { return cap(s.engines) }

// workers returns the rankd worker count of a tcp backend, 0 for inproc.
func (s *Service) workers() int {
	if s.opts.Backend != core.BackendTCP {
		return 0
	}
	if s.opts.Workers <= 0 {
		return 1
	}
	return s.opts.Workers
}

// Shutdown drains the service: async intake stops (submissions fail with
// 503), the workers finish the queued backlog, and every pooled engine is
// reclaimed — waiting for in-flight solves — and closed. Call after
// http.Server.Shutdown so no new requests are arriving; a request still
// blocked in the engine queue at that point fails with 503 when its context
// is cancelled. ctx bounds the drain; on expiry the remaining engines are
// left to die with the process. Subsequent calls return the first outcome.
func (s *Service) Shutdown(ctx context.Context) error {
	s.shutdown.once.Do(func() { s.shutdown.err = s.drain(ctx) })
	return s.shutdown.err
}

func (s *Service) drain(ctx context.Context) error {
	if s.jobs != nil {
		s.jobs.close()
		workersDone := make(chan struct{})
		go func() {
			s.workerWG.Wait()
			close(workersDone)
		}()
		select {
		case <-workersDone:
		case <-ctx.Done():
			return fmt.Errorf("steinersvc: shutdown: job drain: %w", ctx.Err())
		}
	}
	for i := 0; i < cap(s.engines); i++ {
		select {
		case e := <-s.engines:
			e.Close()
		case <-ctx.Done():
			return fmt.Errorf("steinersvc: shutdown: engine drain: %w", ctx.Err())
		}
	}
	return nil
}

// Close is Shutdown without a deadline, for tests and defer-style cleanup.
func (s *Service) Close() { _ = s.Shutdown(context.Background()) }

// ServeHTTP dispatches to the API endpoints.
func (s *Service) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// InfoResponse describes the loaded graph and the per-engine shard
// substrate it is served from.
type InfoResponse struct {
	Vertices  int     `json:"vertices"`
	Arcs      int64   `json:"arcs"`
	MaxDegree int     `json:"maxDegree"`
	AvgDegree float64 `json:"avgDegree"`
	MinWeight uint32  `json:"minWeight"`
	MaxWeight uint32  `json:"maxWeight"`
	Engines   int     `json:"engines"`
	Ranks     int     `json:"ranks"`
	// Backend names the rank backend (inproc | tcp); Workers counts the
	// rankd processes of a tcp backend (0 for inproc).
	Backend string `json:"backend"`
	Workers int    `json:"workers,omitempty"`
	// ShardBytes is the total rank-local shard memory — one shard set
	// shared by every engine in the pool.
	ShardBytes int64 `json:"shardBytes"`
	// StateSlabBytes is the total rank-local control-state slab memory of
	// ONE engine; unlike shards, every engine in the pool owns its own
	// slab set, so the pool's total is engines × this value.
	StateSlabBytes int64 `json:"stateSlabBytes"`
}

// SolveRequest is the /solve and /v1/solve request body. Mode selects the
// query kind (default "tree"); the terminal fields it uses are:
//
//   - tree: exactly one of Seeds or K (Strategy defaults to BFS-level when
//     K is used);
//   - forest: Groups, one slice of terminals per group;
//   - prize: Seeds plus one Penalty per seed, parallel by index.
//
// Quality is reserved for future approximation tiers; only "" and "fast"
// (the current solver) are accepted.
type SolveRequest struct {
	Seeds    []int32 `json:"seeds,omitempty"`
	K        int     `json:"k,omitempty"`
	Strategy string  `json:"strategy,omitempty"`
	RNGSeed  int64   `json:"rngSeed,omitempty"`

	Mode      string    `json:"mode,omitempty"`
	Groups    [][]int32 `json:"groups,omitempty"`
	Penalties []int64   `json:"penalties,omitempty"`
	Quality   string    `json:"quality,omitempty"`
}

// TreeEdge is one Steiner tree edge.
type TreeEdge struct {
	U int32  `json:"u"`
	V int32  `json:"v"`
	W uint32 `json:"w"`
}

// PhaseInfo reports one solver phase.
type PhaseInfo struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
	Sent    int64   `json:"sent"`
}

// SolveResponse is the /solve and /v1/solve reply. Cached reports whether
// the answer came from the solution cache (including coalescing onto
// another request's in-flight solve) rather than a dedicated engine solve.
//
// The mode block is present only on non-tree queries, so tree responses —
// including every legacy endpoint's — are byte-identical to the pre-mode
// API. Forest replies carry the canonical Groups and one GroupEdges slice
// per group (partitioning Edges); prize replies carry the Skipped
// terminals, the PaidPenalty total, and Objective = total + paidPenalty.
type SolveResponse struct {
	Seeds           []int32     `json:"seeds"`
	Edges           []TreeEdge  `json:"edges"`
	Total           int64       `json:"total"`
	SteinerVertices int         `json:"steinerVertices"`
	Phases          []PhaseInfo `json:"phases"`
	Cached          bool        `json:"cached,omitempty"`

	Mode        string       `json:"mode,omitempty"`
	Groups      [][]int32    `json:"groups,omitempty"`
	GroupEdges  [][]TreeEdge `json:"groupEdges,omitempty"`
	Skipped     []int32      `json:"skipped,omitempty"`
	PaidPenalty int64        `json:"paidPenalty,omitempty"`
	Objective   *int64       `json:"objective,omitempty"`
}

// ErrorResponse is the structured error body every endpoint returns on
// failure: a stable machine-readable code plus a human-readable message.
type ErrorResponse struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// Error codes. Each maps to exactly one HTTP status (see writeError's
// callers): invalid_argument 400, not_found 404, method_not_allowed 405,
// unsolvable 422, queue_full 429, unavailable 503.
const (
	CodeInvalidArgument  = "invalid_argument"
	CodeNotFound         = "not_found"
	CodeMethodNotAllowed = "method_not_allowed"
	CodeUnsolvable       = "unsolvable"
	CodeQueueFull        = "queue_full"
	CodeUnavailable      = "unavailable"
)

// writeError replies with the structured {code, message} error body.
func writeError(w http.ResponseWriter, status int, code, msg string) {
	writeJSONStatus(w, status, ErrorResponse{Code: code, Message: msg})
}

// solveErrCode maps a solve-path HTTP status (solveErrStatus) to its error
// code.
func solveErrCode(status int) string {
	switch status {
	case http.StatusBadRequest:
		return CodeInvalidArgument
	case http.StatusServiceUnavailable:
		return CodeUnavailable
	default:
		return CodeUnsolvable
	}
}

// BatchRequest is the POST /solve/batch body: a slice of independent
// queries, answered in order.
type BatchRequest struct {
	Queries []SolveRequest `json:"queries"`
}

// BatchItemResponse is one query's outcome within a BatchResponse: exactly
// one of Result or Error is set.
type BatchItemResponse struct {
	Result *SolveResponse `json:"result,omitempty"`
	Error  string         `json:"error,omitempty"`
}

// BatchResponse is the POST /solve/batch reply, item i answering query i.
type BatchResponse struct {
	Results []BatchItemResponse `json:"results"`
}

// JobAccepted is the POST /solve/async reply.
type JobAccepted struct {
	ID       string `json:"id"`
	Location string `json:"location"`
}

// JobResponse is the GET /jobs/{id} reply. State is queued, running, done
// or failed; Result is set once done, Error once failed.
type JobResponse struct {
	ID            string         `json:"id"`
	State         string         `json:"state"`
	QueuedSeconds float64        `json:"queuedSeconds"`
	RunSeconds    float64        `json:"runSeconds,omitempty"`
	Error         string         `json:"error,omitempty"`
	Result        *SolveResponse `json:"result,omitempty"`
}

// PhaseStats aggregates one solver phase across all served queries.
type PhaseStats struct {
	Name         string  `json:"name"`
	Calls        int64   `json:"calls"`
	TotalSeconds float64 `json:"totalSeconds"`
	AvgSeconds   float64 `json:"avgSeconds"`
}

// CacheStats reports the solution cache for /stats. HitRate counts
// coalesced queries as hits: they were answered without a dedicated solve.
type CacheStats struct {
	Capacity  int     `json:"capacity"`
	Size      int     `json:"size"`
	Hits      int64   `json:"hits"`
	Misses    int64   `json:"misses"`
	Coalesced int64   `json:"coalesced"`
	Evictions int64   `json:"evictions"`
	HitRate   float64 `json:"hitRate"`
}

// ShardStats reports the pool's rank-local substrate for /stats: the
// per-rank graph-slab memory (TotalBytes across all ranks, MaxRankBytes
// for the largest single rank) and the per-rank control-state slab memory
// (StateBytes / MaxRankStateBytes, per engine). MaxRankBytes +
// MaxRankStateBytes approximates the per-process footprint a multi-process backend would need for its largest rank. One
// shard set is cut by the pool's first engine and shared by its siblings;
// state slabs are per-engine (pool total = engines × StateBytes).
type ShardStats struct {
	Ranks             int   `json:"ranks"`
	TotalBytes        int64 `json:"totalBytes"`
	MaxRankBytes      int64 `json:"maxRankBytes"`
	StateBytes        int64 `json:"stateBytes"`
	MaxRankStateBytes int64 `json:"maxRankStateBytes"`
}

// TransportStats reports the rank transport's cumulative traffic for
// /stats, summed over every served query: frames and bytes crossing the
// wire plus time spent in the codec. All zero on the in-process backend —
// the block is what makes the loopback-vs-TCP overhead visible.
type TransportStats struct {
	FramesOut     int64   `json:"framesOut"`
	FramesIn      int64   `json:"framesIn"`
	BytesOut      int64   `json:"bytesOut"`
	BytesIn       int64   `json:"bytesIn"`
	EncodeSeconds float64 `json:"encodeSeconds"`
	DecodeSeconds float64 `json:"decodeSeconds"`
	// Flush size histogram: coalesced writer flushes under 4 KiB, between
	// 4 KiB and 256 KiB, and 256 KiB or larger.
	FlushesSmall int64 `json:"flushesSmall"`
	FlushesMid   int64 `json:"flushesMid"`
	FlushesLarge int64 `json:"flushesLarge"`
}

// OfferStats is the /stats accounting of relaxation offers that never
// became messages: Suppressed counts cross-rank offers the sender dropped
// because the best offer it had already sent that vertex (its ghost row)
// beat them. /stats renders it under the key "broadcasts".
type OfferStats struct {
	Suppressed int64 `json:"suppressed"`
}

// MSTStats is the /stats accounting of phases 3–5, which every query runs:
// the cross-table records gathered to rank 0 and chosen records broadcast
// back, and the encoded payload bytes of both, equal on every backend.
type MSTStats struct {
	FragmentMessages int64 `json:"fragmentMessages"`
	CrossTableBytes  int64 `json:"crossTableBytes"`
}

// FaultStats is the /stats fault-tolerance block. Injected counts faults
// this process's chaos instrumentation fired (faultpoint crashes plus
// chaos-transport connection faults — a process-local count: faults
// injected inside external rankd workers show up here as Detected, not
// Injected). Detected/Rejoins/Heals mirror the TCP coordinator's session
// accounting; RetriedSolves counts queries re-run against a healed fleet,
// whether requeued inside the coordinator or retried by this service.
// LastError is the most recent session-poisoning reason ("" if none) —
// it survives even with recovery off, so a dead fleet is diagnosable from
// /stats alone. All zero on the in-process backend.
type FaultStats struct {
	Injected      int64  `json:"injected"`
	Detected      int64  `json:"detected"`
	Rejoins       int64  `json:"rejoins"`
	Heals         int64  `json:"heals"`
	RetriedSolves int64  `json:"retriedSolves"`
	LastError     string `json:"lastError"`
}

// JobStats reports the async job queue for /stats. Completed counts
// successful jobs only; Completed + Failed is everything that finished.
type JobStats struct {
	QueueCapacity int   `json:"queueCapacity"`
	QueueDepth    int   `json:"queueDepth"`
	Running       int   `json:"running"`
	Completed     int64 `json:"completed"`
	Failed        int64 `json:"failed"`
	Rejected      int64 `json:"rejected"`
}

// StatsResponse is the /stats reply: engine-pool utilization, cumulative
// per-phase timings, and the cache/job-queue counters when those layers are
// enabled. Queries counts engine solves; cache hits answer requests without
// one.
type StatsResponse struct {
	Engines         int     `json:"engines"`
	EnginesIdle     int     `json:"enginesIdle"`
	InFlight        int     `json:"inFlight"`
	MaxInFlight     int     `json:"maxInFlight"`
	Queries         int64   `json:"queries"`
	Errors          int64   `json:"errors"`
	BatchRequests   int64   `json:"batchRequests"`
	BatchQueries    int64   `json:"batchQueries"`
	AvgSolveSeconds float64 `json:"avgSolveSeconds"`
	// Backend names the rank backend serving the pool (inproc | tcp).
	Backend string `json:"backend"`
	// Offers counts the relaxation offers suppressed across all served
	// queries.
	Offers OfferStats `json:"broadcasts"`
	// MST reports the phase 3–5 merge's traffic.
	MST       MSTStats       `json:"mst"`
	Transport TransportStats `json:"transport"`
	// Faults is the fault-tolerance block: injected chaos faults, detected
	// session faults, worker rejoins, session heals and retried solves.
	Faults FaultStats   `json:"faults"`
	Phases []PhaseStats `json:"phases"`
	Shard  ShardStats   `json:"shard"`
	Cache  *CacheStats  `json:"cache,omitempty"`
	Jobs   *JobStats    `json:"jobs,omitempty"`
}

func (s *Service) handleInfo(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "GET only")
		return
	}
	minW, maxW := s.g.WeightRange()
	writeJSON(w, InfoResponse{
		Vertices:       s.g.NumVertices(),
		Arcs:           s.g.NumArcs(),
		MaxDegree:      s.g.MaxDegree(),
		AvgDegree:      s.g.AvgDegree(),
		MinWeight:      minW,
		MaxWeight:      maxW,
		Engines:        s.NumEngines(),
		Ranks:          s.shard.Ranks,
		Backend:        s.opts.Backend.String(),
		Workers:        s.workers(),
		ShardBytes:     s.shard.ShardBytes,
		StateSlabBytes: s.shard.StateSlabBytes,
	})
}

func (s *Service) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "GET only")
		return
	}
	st := &s.stats
	st.mu.Lock()
	net := st.rt.Net
	resp := StatsResponse{
		Engines:       s.NumEngines(),
		EnginesIdle:   len(s.engines),
		InFlight:      st.inFlight,
		MaxInFlight:   st.maxInFlight,
		Queries:       st.queries,
		Errors:        st.errors,
		BatchRequests: st.batchRequests,
		BatchQueries:  st.batchQueries,
		Backend:       s.opts.Backend.String(),
		Offers:        OfferStats{Suppressed: st.rt.Suppressed},
		MST: MSTStats{
			FragmentMessages: st.mstFragmentMsgs,
			CrossTableBytes:  st.mstCrossTableBytes,
		},
		Transport: TransportStats{
			FramesOut:     net.FramesOut,
			FramesIn:      net.FramesIn,
			BytesOut:      net.BytesOut,
			BytesIn:       net.BytesIn,
			EncodeSeconds: float64(net.EncodeNs) / 1e9,
			DecodeSeconds: float64(net.DecodeNs) / 1e9,
			FlushesSmall:  net.FlushesSmall,
			FlushesMid:    net.FlushesMid,
			FlushesLarge:  net.FlushesLarge,
		},
	}
	retried := st.retriedSolves
	if st.queries > 0 {
		resp.AvgSolveSeconds = st.solveSeconds / float64(st.queries)
	}
	for _, name := range core.PhaseNames {
		calls := st.phaseCalls[name]
		if calls == 0 {
			continue
		}
		total := st.phaseSeconds[name]
		resp.Phases = append(resp.Phases, PhaseStats{
			Name:         name,
			Calls:        calls,
			TotalSeconds: total,
			AvgSeconds:   total / float64(calls),
		})
	}
	st.mu.Unlock()
	resp.Faults = s.faultStats(retried)
	resp.Shard = ShardStats{
		Ranks:             s.shard.Ranks,
		TotalBytes:        s.shard.ShardBytes,
		MaxRankBytes:      s.shard.MaxShardBytes,
		StateBytes:        s.shard.StateSlabBytes,
		MaxRankStateBytes: s.shard.MaxStateSlabBytes,
	}
	if s.cache != nil {
		cc := s.cache.counters()
		cs := &CacheStats{
			Capacity:  cc.capacity,
			Size:      cc.size,
			Hits:      cc.hits,
			Misses:    cc.misses,
			Coalesced: cc.coalesced,
			Evictions: cc.evicted,
		}
		if lookups := cc.hits + cc.coalesced + cc.misses; lookups > 0 {
			cs.HitRate = float64(cc.hits+cc.coalesced) / float64(lookups)
		}
		resp.Cache = cs
	}
	if s.jobs != nil {
		jc := s.jobs.counters()
		resp.Jobs = &JobStats{
			QueueCapacity: jc.queueCapacity,
			QueueDepth:    jc.queueDepth,
			Running:       jc.running,
			Completed:     jc.completed,
			Failed:        jc.failed,
			Rejected:      jc.rejected,
		}
	}
	writeJSON(w, resp)
}

// faultStats assembles the /stats faults block: this process's injected
// chaos faults, the coordinator engine's session accounting, and the
// retried-solve total (service retries + coordinator requeues).
func (s *Service) faultStats(retried int64) FaultStats {
	var ef core.FaultStats
	if s.first != nil {
		ef = s.first.FaultStats()
	}
	return FaultStats{
		Injected:      faultpoint.Injected() + transport.InjectedFaults(),
		Detected:      ef.Detected,
		Rejoins:       ef.Rejoins,
		Heals:         ef.Heals,
		RetriedSolves: retried + ef.Requeued,
		LastError:     ef.LastError,
	}
}

// acquire checks an engine out of the pool, blocking until one is free or
// ctx is cancelled.
func (s *Service) acquire(ctx context.Context) (*core.Engine, error) {
	select {
	case e := <-s.engines:
		s.stats.mu.Lock()
		s.stats.inFlight++
		if s.stats.inFlight > s.stats.maxInFlight {
			s.stats.maxInFlight = s.stats.inFlight
		}
		s.stats.mu.Unlock()
		return e, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// recordQuery folds one engine solve's outcome into the aggregate
// statistics. Call before returnEngine: once the engine is back on the
// channel a blocked request resumes and increments inFlight, and a stale
// not-yet-decremented count would let maxInFlight exceed the pool size.
func (s *Service) recordQuery(res *core.Result, elapsed time.Duration, err error) {
	st := &s.stats
	st.mu.Lock()
	st.queries++
	st.solveSeconds += elapsed.Seconds()
	if err != nil {
		st.errors++
	} else {
		for _, ph := range res.Phases {
			st.phaseSeconds[ph.Name] += ph.Seconds
			st.phaseCalls[ph.Name]++
		}
		st.rt = st.rt.Add(res.Stats)
		st.mstFragmentMsgs += res.FragmentMsgs
		st.mstCrossTableBytes += res.CrossTableBytes
	}
	st.mu.Unlock()
}

// returnEngine puts an engine back on the pool.
func (s *Service) returnEngine(e *core.Engine) {
	s.stats.mu.Lock()
	s.stats.inFlight--
	s.stats.mu.Unlock()
	s.engines <- e
}

// canonicalRequest is where every query enters the solve path: it checks
// req's field rules (validate), builds its QuerySpec (buildSpec) and
// canonicalizes it (core.CanonicalSpec), returning the canonical spec and
// its solution-cache key. The key covers the full query — mode, sorted
// terminal groups, co-sorted penalties — so a forest query can never
// collide with a tree query over the same vertex set. A request that fails
// the first two steps is wrapped in invalidRequest; one that fails
// canonicalization (out-of-range or duplicate terminals, a malformed shape)
// is counted in /stats as a failed query.
func (s *Service) canonicalRequest(req SolveRequest) (core.QuerySpec, string, error) {
	if err := req.validate(); err != nil {
		return core.QuerySpec{}, "", invalidRequest{err}
	}
	spec, err := s.buildSpec(req)
	if err != nil {
		return core.QuerySpec{}, "", invalidRequest{err}
	}
	canonical, err := core.CanonicalSpec(s.g.NumVertices(), spec)
	if err != nil {
		s.recordQuery(nil, 0, err)
		return core.QuerySpec{}, "", err
	}
	return canonical, specKey(canonical), nil
}

// invalidRequest marks an error in the request's own fields or seed
// selection, found before the query reaches the graph: always HTTP 400.
type invalidRequest struct{ error }

// solveCached is the one query path, shared by /solve, /v1/solve, every
// /solve/batch item and every async job: cache lookup under key,
// single-flight coalescing, and an engine-pool solve on a miss, retried
// once after a session fault when Options.Recover is set. spec and key come
// from canonicalRequest. The returned Result may be cache-shared:
// read-only.
func (s *Service) solveCached(ctx context.Context, spec core.QuerySpec, key string) (*core.Result, bool, error) {
	solve := func() (*core.Result, error) {
		eng, err := s.acquire(ctx)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		res, err := eng.SolveSpec(spec)
		if err != nil && s.opts.Recover && core.IsSessionFault(err) && ctx.Err() == nil {
			// The query was fine; the fleet was not. The coordinator has
			// already requeued once internally, so a fault surfacing here
			// means the heal needed longer (e.g. workers still
			// respawning): give the fleet one more chance before failing
			// a retryable query.
			s.stats.mu.Lock()
			s.stats.retriedSolves++
			s.stats.mu.Unlock()
			res, err = eng.SolveSpec(spec)
		}
		s.recordQuery(res, time.Since(start), err)
		s.returnEngine(eng)
		return res, err
	}
	for {
		res, hit, err := s.cache.Do(ctx, key, solve)
		// A coalesced follower inherits its leader's error — including the
		// leader's own context cancellation, which says nothing about this
		// request (an async job runs on context.Background and must not be
		// failed by some HTTP client disconnecting). While our context is
		// live, retry; the flight is gone, so we lead the next attempt.
		if hit && ctx.Err() == nil &&
			(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
			continue
		}
		return res, hit, err
	}
}

// solveErrStatus maps a solve-path error to its HTTP status: client mistakes
// (an invalid request, a malformed query shape, duplicate terminals,
// penalties past core.MaxPenaltySum) are 400, cancellations and shutdown are
// 503, and everything else — unsolvable but well-formed queries like
// disconnected or out-of-range seeds — is 422.
func solveErrStatus(err error) int {
	switch {
	case errors.As(err, new(invalidRequest)), errors.Is(err, core.ErrQueryShape),
		errors.Is(err, core.ErrDuplicateSeed), errors.Is(err, core.ErrPenaltySum):
		return http.StatusBadRequest
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, errJobsClosed):
		return http.StatusServiceUnavailable
	default:
		return http.StatusUnprocessableEntity
	}
}

// handleSolve serves the legacy /solve endpoint: a thin adapter that builds
// a (tree-mode, unless the body says otherwise) QuerySpec and runs the same
// cached solve path as /v1/solve. Successful tree responses are
// byte-identical to the pre-mode API.
func (s *Service) handleSolve(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "GET or POST only")
		return
	}
	req, err := parseSolveRequest(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidArgument, err.Error())
		return
	}
	s.serveSpec(w, r, req)
}

// handleSolveV1 serves POST /v1/solve, the mode-aware query endpoint:
// {mode, groups|seeds, penalties, quality?} with mode defaulting to "tree".
func (s *Service) handleSolveV1(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "POST only")
		return
	}
	var req SolveRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidArgument, err.Error())
		return
	}
	s.serveSpec(w, r, req)
}

// serveSpec is the shared tail of /solve and /v1/solve: canonicalize the
// request, run the cached solve, reply.
func (s *Service) serveSpec(w http.ResponseWriter, r *http.Request, req SolveRequest) {
	spec, key, err := s.canonicalRequest(req)
	var res *core.Result
	var cached bool
	if err == nil {
		res, cached, err = s.solveCached(r.Context(), spec, key)
	}
	if err != nil {
		status := solveErrStatus(err)
		writeError(w, status, solveErrCode(status), err.Error())
		return
	}
	resp := solveResponse(res)
	resp.Cached = cached
	writeJSON(w, resp)
}

func (s *Service) handleSolveBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "POST only")
		return
	}
	var req BatchRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidArgument, err.Error())
		return
	}
	if len(req.Queries) == 0 {
		writeError(w, http.StatusBadRequest, CodeInvalidArgument, "empty batch")
		return
	}
	if len(req.Queries) > maxBatchQueries {
		writeError(w, http.StatusBadRequest, CodeInvalidArgument,
			fmt.Sprintf("batch of %d exceeds limit %d", len(req.Queries), maxBatchQueries))
		return
	}

	// Items are answered in input order, each through the one cached path;
	// a repeat of an earlier item reuses that item's answer, so a set
	// repeated within the batch solves once even with the cache off. Once
	// the request's context is done, the remaining items fail with its
	// error instead of queueing for engines nobody will read.
	ctx := r.Context()
	resp := BatchResponse{Results: make([]BatchItemResponse, len(req.Queries))}
	firstOf := make(map[string]int, len(req.Queries)) // key -> first item
	for i, q := range req.Queries {
		item := &resp.Results[i]
		if err := ctx.Err(); err != nil {
			item.Error = err.Error()
			continue
		}
		spec, key, err := s.canonicalRequest(q)
		if err != nil {
			item.Error = err.Error()
			continue
		}
		if j, ok := firstOf[key]; ok {
			*item = resp.Results[j]
			continue
		}
		firstOf[key] = i
		res, cached, err := s.solveCached(ctx, spec, key)
		if err != nil {
			item.Error = err.Error()
			continue
		}
		sr := solveResponse(res)
		sr.Cached = cached
		item.Result = &sr
	}

	s.stats.mu.Lock()
	s.stats.batchRequests++
	s.stats.batchQueries += int64(len(req.Queries))
	s.stats.mu.Unlock()
	writeJSON(w, resp)
}

func (s *Service) handleSolveAsync(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "POST only")
		return
	}
	req, err := parseSolveRequest(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidArgument, err.Error())
		return
	}
	// Canonicalize now so a bad query fails at submission, not as a failed
	// job discovered on the first poll, with the same codes as /solve.
	spec, key, err := s.canonicalRequest(req)
	if err != nil {
		status := solveErrStatus(err)
		writeError(w, status, solveErrCode(status), err.Error())
		return
	}
	id, err := s.jobs.submit(spec, key)
	switch {
	case errors.Is(err, ErrJobQueueFull):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, CodeQueueFull, err.Error())
		return
	case err != nil:
		status := solveErrStatus(err)
		writeError(w, status, solveErrCode(status), err.Error())
		return
	}
	writeJSONStatus(w, http.StatusAccepted, JobAccepted{ID: id, Location: "/jobs/" + id})
}

func (s *Service) handleJob(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "GET only")
		return
	}
	snap, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, CodeNotFound, "unknown job")
		return
	}
	resp := JobResponse{
		ID:            snap.ID,
		State:         string(snap.State),
		QueuedSeconds: snap.Queued.Seconds(),
		RunSeconds:    snap.Running.Seconds(),
		Error:         snap.ErrMsg,
	}
	if snap.Res != nil {
		sr := solveResponse(snap.Res)
		sr.Cached = snap.Cached
		resp.Result = &sr
	}
	writeJSON(w, resp)
}

// jobWorker drains the job queue through the cached solve path until the
// queue is closed by Shutdown.
func (s *Service) jobWorker() {
	defer s.workerWG.Done()
	for j := range s.jobs.queue {
		s.jobs.markRunning(j)
		res, cached, err := s.solveCached(context.Background(), j.spec, j.key)
		s.jobs.markFinished(j, res, cached, err)
	}
}

// solveResponse converts a solver Result into the wire form. The mode
// block is emitted only for non-tree results, keeping tree responses
// byte-identical to the pre-mode API.
func solveResponse(res *core.Result) SolveResponse {
	resp := SolveResponse{
		Total:           int64(res.TotalDistance),
		SteinerVertices: res.SteinerVertices,
	}
	for _, sd := range res.Seeds {
		resp.Seeds = append(resp.Seeds, int32(sd))
	}
	for _, e := range res.Tree {
		resp.Edges = append(resp.Edges, TreeEdge{U: int32(e.U), V: int32(e.V), W: e.W})
	}
	for _, ph := range res.Phases {
		resp.Phases = append(resp.Phases, PhaseInfo{Name: ph.Name, Seconds: ph.Seconds, Sent: ph.Sent})
	}
	if res.Mode == core.ModeTree {
		return resp
	}
	resp.Mode = res.Mode.String()
	obj := int64(res.Objective)
	resp.Objective = &obj
	switch res.Mode {
	case core.ModeForest:
		for _, grp := range res.Groups {
			g32 := make([]int32, len(grp))
			for i, v := range grp {
				g32[i] = int32(v)
			}
			resp.Groups = append(resp.Groups, g32)
		}
		for _, sub := range res.GroupTrees {
			edges := make([]TreeEdge, len(sub))
			for i, e := range sub {
				edges[i] = TreeEdge{U: int32(e.U), V: int32(e.V), W: e.W}
			}
			resp.GroupEdges = append(resp.GroupEdges, edges)
		}
	case core.ModePrize:
		for _, v := range res.Skipped {
			resp.Skipped = append(resp.Skipped, int32(v))
		}
		resp.PaidPenalty = int64(res.PaidPenalty)
	}
	return resp
}

// validate checks the request's field rules for its query mode.
func (req SolveRequest) validate() error {
	mode, err := core.ParseMode(req.Mode)
	if err != nil {
		return err
	}
	switch req.Quality {
	case "", "fast":
	default:
		return fmt.Errorf("unknown quality %q (only \"fast\" is available)", req.Quality)
	}
	switch mode {
	case core.ModeForest:
		if len(req.Groups) == 0 {
			return fmt.Errorf("forest mode needs groups")
		}
		if len(req.Seeds) > 0 || req.K > 0 || len(req.Penalties) > 0 {
			return fmt.Errorf("forest mode takes groups, not seeds, k or penalties")
		}
	case core.ModePrize:
		if len(req.Seeds) == 0 {
			return fmt.Errorf("prize mode needs explicit seeds")
		}
		if req.K > 0 || len(req.Groups) > 0 {
			return fmt.Errorf("prize mode takes seeds and penalties, not k or groups")
		}
		if len(req.Penalties) != len(req.Seeds) {
			return fmt.Errorf("prize mode needs one penalty per seed (%d penalties for %d seeds)",
				len(req.Penalties), len(req.Seeds))
		}
		for i, p := range req.Penalties {
			if p < 0 {
				return fmt.Errorf("negative penalty %d for seed %d", p, req.Seeds[i])
			}
		}
	default: // tree
		if len(req.Groups) > 0 || len(req.Penalties) > 0 {
			return fmt.Errorf("tree mode takes seeds or k, not groups or penalties")
		}
		if len(req.Seeds) == 0 && req.K <= 0 {
			return fmt.Errorf("need seeds or k")
		}
		if len(req.Seeds) > 0 && req.K > 0 {
			return fmt.Errorf("use either seeds or k, not both")
		}
	}
	return nil
}

// buildSpec turns a validated request into a core.QuerySpec, resolving
// k-based seed selection for tree mode.
func (s *Service) buildSpec(req SolveRequest) (core.QuerySpec, error) {
	mode, err := core.ParseMode(req.Mode)
	if err != nil {
		return core.QuerySpec{}, err
	}
	switch mode {
	case core.ModeForest:
		spec := core.QuerySpec{Mode: core.ModeForest, Groups: make([][]graph.VID, len(req.Groups))}
		for gi, grp := range req.Groups {
			spec.Groups[gi] = make([]graph.VID, len(grp))
			for i, id := range grp {
				spec.Groups[gi][i] = graph.VID(id)
			}
		}
		return spec, nil
	case core.ModePrize:
		spec := core.QuerySpec{
			Mode:      core.ModePrize,
			Seeds:     make([]graph.VID, len(req.Seeds)),
			Penalties: make([]graph.Dist, len(req.Penalties)),
		}
		for i, id := range req.Seeds {
			spec.Seeds[i] = graph.VID(id)
		}
		for i, p := range req.Penalties {
			spec.Penalties[i] = graph.Dist(p)
		}
		return spec, nil
	default:
		seedSet, err := s.resolveSeeds(req)
		if err != nil {
			return core.QuerySpec{}, err
		}
		return core.TreeSpec(seedSet), nil
	}
}

// parseSolveRequest reads a query from a POST body or, for any other
// method (the handlers admit only GET besides POST), the URL's seeds, k and
// strategy parameters.
func parseSolveRequest(r *http.Request) (SolveRequest, error) {
	var req SolveRequest
	switch r.Method {
	case http.MethodPost:
		if err := decodeJSON(r, &req); err != nil {
			return req, err
		}
	default:
		if q := r.URL.Query().Get("seeds"); q != "" {
			for _, part := range strings.Split(q, ",") {
				id, err := strconv.ParseInt(strings.TrimSpace(part), 10, 32)
				if err != nil {
					return req, fmt.Errorf("bad seed %q", part)
				}
				req.Seeds = append(req.Seeds, int32(id))
			}
		}
		if q := r.URL.Query().Get("k"); q != "" {
			k, err := strconv.Atoi(q)
			if err != nil {
				return req, fmt.Errorf("bad k %q", q)
			}
			req.K = k
		}
		req.Strategy = r.URL.Query().Get("strategy")
	}
	return req, nil
}

// decodeJSON decodes r's body into v, which must be the body's only JSON
// value: anything but whitespace after it is an error.
func decodeJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad JSON body: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("bad JSON body: data after the JSON value")
	}
	return nil
}

func (s *Service) resolveSeeds(req SolveRequest) ([]graph.VID, error) {
	if len(req.Seeds) > 0 {
		out := make([]graph.VID, len(req.Seeds))
		for i, id := range req.Seeds {
			out[i] = graph.VID(id)
		}
		return out, nil
	}
	if req.K > s.g.NumVertices() {
		return nil, fmt.Errorf("k=%d exceeds graph size %d", req.K, s.g.NumVertices())
	}
	strat := seeds.BFSLevel
	switch strings.ToLower(req.Strategy) {
	case "", "bfs-level":
	case "uniform":
		strat = seeds.UniformRandom
	case "eccentric":
		strat = seeds.Eccentric
	case "proximate":
		strat = seeds.Proximate
	default:
		return nil, fmt.Errorf("unknown strategy %q", req.Strategy)
	}
	return seeds.Select(s.g, req.K, strat, req.RNGSeed)
}

// writeJSON marshals v before touching the ResponseWriter, so an encoding
// failure surfaces as a 500 instead of a silently truncated 200. Errors
// writing the marshaled bytes to a departed client are unrecoverable and
// intentionally dropped.
func writeJSON(w http.ResponseWriter, v any) { writeJSONStatus(w, http.StatusOK, v) }

func writeJSONStatus(w http.ResponseWriter, status int, v any) {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, fmt.Sprintf("encoding response: %v", err), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(append(buf, '\n'))
}
