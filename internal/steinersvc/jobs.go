package steinersvc

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"dsteiner/internal/core"
)

// The async job API decouples long solves from HTTP connections: POST
// /solve/async enqueues the query on a bounded queue and returns a job id
// immediately; worker goroutines drain the queue through the same cached
// solve path as /solve, and GET /jobs/{id} polls the outcome. A full queue
// rejects the submission outright (HTTP 429) — explicit backpressure instead
// of unbounded buffering or pinned connections.

// ErrJobQueueFull is returned by submit when the bounded job queue is at
// capacity; the service maps it to HTTP 429.
var ErrJobQueueFull = errors.New("steinersvc: job queue full")

// errJobsClosed is returned by submit once shutdown has begun.
var errJobsClosed = errors.New("steinersvc: service shutting down")

type jobState string

const (
	jobQueued  jobState = "queued"
	jobRunning jobState = "running"
	jobDone    jobState = "done"
	jobFailed  jobState = "failed"
)

// job is one async query. Fields past the identity block are guarded by the
// owning jobStore's mutex.
type job struct {
	id   string
	spec core.QuerySpec // canonical (Service.canonicalRequest)
	key  string         // spec's solution-cache key

	state     jobState
	res       *core.Result
	errMsg    string
	cached    bool
	submitted time.Time
	started   time.Time
	finished  time.Time
}

// jobSnapshot is an immutable copy of a job's observable state for the HTTP
// layer.
type jobSnapshot struct {
	ID      string
	State   jobState
	Res     *core.Result
	ErrMsg  string
	Cached  bool
	Queued  time.Duration // submit → start (or now while queued)
	Running time.Duration // start → finish (or now while running)
}

// jobStore owns the bounded queue and the finished-job retention window.
type jobStore struct {
	queue chan *job

	mu        sync.Mutex
	jobs      map[string]*job
	order     []string // submission order, for retention eviction
	retain    int      // max jobs kept in the map
	nextID    int64
	running   int
	completed int64 // jobs that finished successfully (excludes failed)
	failed    int64
	rejected  int64
	closed    bool
}

// newJobStore builds a store whose queue holds at most capacity pending
// jobs. Finished jobs are retained for polling until the store exceeds its
// retention window (a small multiple of the queue bound), then evicted
// oldest-first.
func newJobStore(capacity int) *jobStore {
	retain := 8*capacity + 64
	return &jobStore{
		queue:  make(chan *job, capacity),
		jobs:   make(map[string]*job),
		retain: retain,
	}
}

// submit registers a job for the canonical query spec and its cache key and
// enqueues it, or reports ErrJobQueueFull / errJobsClosed without
// registering anything.
func (js *jobStore) submit(spec core.QuerySpec, key string) (string, error) {
	js.mu.Lock()
	defer js.mu.Unlock()
	if js.closed {
		return "", errJobsClosed
	}
	js.nextID++
	j := &job{
		id:        fmt.Sprintf("j%06d", js.nextID),
		spec:      spec,
		key:       key,
		state:     jobQueued,
		submitted: time.Now(),
	}
	select {
	case js.queue <- j:
	default:
		js.nextID-- // id not consumed
		js.rejected++
		return "", ErrJobQueueFull
	}
	js.jobs[j.id] = j
	js.order = append(js.order, j.id)
	js.evictFinishedLocked()
	return j.id, nil
}

// evictFinishedLocked drops the oldest finished jobs while the store exceeds
// its retention window. Queued and running jobs are never evicted, so a job
// id stays pollable at least until it completes.
func (js *jobStore) evictFinishedLocked() {
	over := len(js.order) - js.retain
	if over <= 0 {
		return
	}
	kept := js.order[:0]
	for _, id := range js.order {
		j := js.jobs[id]
		if over > 0 && (j.state == jobDone || j.state == jobFailed) {
			delete(js.jobs, id)
			over--
			continue
		}
		kept = append(kept, id)
	}
	js.order = kept
}

// get returns a snapshot of the job, or false if unknown (never submitted or
// already evicted).
func (js *jobStore) get(id string) (jobSnapshot, bool) {
	js.mu.Lock()
	defer js.mu.Unlock()
	j, ok := js.jobs[id]
	if !ok {
		return jobSnapshot{}, false
	}
	snap := jobSnapshot{ID: j.id, State: j.state, Res: j.res, ErrMsg: j.errMsg, Cached: j.cached}
	now := time.Now()
	switch j.state {
	case jobQueued:
		snap.Queued = now.Sub(j.submitted)
	case jobRunning:
		snap.Queued = j.started.Sub(j.submitted)
		snap.Running = now.Sub(j.started)
	default:
		snap.Queued = j.started.Sub(j.submitted)
		snap.Running = j.finished.Sub(j.started)
	}
	return snap, true
}

// markRunning transitions a dequeued job to running.
func (js *jobStore) markRunning(j *job) {
	js.mu.Lock()
	defer js.mu.Unlock()
	j.state = jobRunning
	j.started = time.Now()
	js.running++
}

// markFinished records a job's outcome. res is a cache-owned or solver-owned
// Result treated read-only from here on.
func (js *jobStore) markFinished(j *job, res *core.Result, cached bool, err error) {
	js.mu.Lock()
	defer js.mu.Unlock()
	j.finished = time.Now()
	j.cached = cached
	js.running--
	if err != nil {
		j.state = jobFailed
		j.errMsg = err.Error()
		js.failed++
	} else {
		j.state = jobDone
		j.res = res
		js.completed++
	}
}

// close stops intake: later submits fail with errJobsClosed and the queue is
// closed so workers drain the backlog and exit. Safe to call more than once.
func (js *jobStore) close() {
	js.mu.Lock()
	defer js.mu.Unlock()
	if js.closed {
		return
	}
	js.closed = true
	close(js.queue)
}

// jobCounters is a consistent snapshot for /stats.
type jobCounters struct {
	queueCapacity, queueDepth, running int
	completed, failed, rejected        int64
}

func (js *jobStore) counters() jobCounters {
	js.mu.Lock()
	defer js.mu.Unlock()
	return jobCounters{
		queueCapacity: cap(js.queue),
		queueDepth:    len(js.queue),
		running:       js.running,
		completed:     js.completed,
		failed:        js.failed,
		rejected:      js.rejected,
	}
}
