package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"dsteiner/internal/core"
	"dsteiner/internal/graph"
	"dsteiner/internal/steinersvc"
)

// system is a system under test, reached at its outermost public call.
type system interface {
	// solve sends one request and returns whatever came back, undecoded:
	// checking happens outside the timed region.
	solve(q *query) reply
	close() error
}

// reply is a raw response: a Result from an engine, or a status and body
// from the HTTP service.
type reply struct {
	err    error
	res    *core.Result
	status int
	body   []byte
}

// answer is a reply reduced to what the checker and the tracer read.
type answer struct {
	mode      core.Mode
	tree      []graph.Edge
	skipped   []graph.VID
	objective graph.Dist
	cached    bool
	phases    []phase
}

type phase struct {
	name    string
	seconds float64
}

func newSystem(backend string, g *graph.Graph) (system, error) {
	switch backend {
	case "inproc":
		e, err := core.NewEngine(g, core.Default(ranks))
		if err != nil {
			return nil, err
		}
		return &engineSystem{e: e}, nil
	case "tcp":
		return newTCPSystem(g)
	case "http":
		return newHTTPSystem(g)
	}
	return nil, fmt.Errorf("unknown backend %q", backend)
}

// engineSystem is a resident core.Engine, in-process or over TCP workers.
type engineSystem struct {
	e       *core.Engine
	workers sync.WaitGroup // TCP worker sessions, empty for inproc
	mu      sync.Mutex
	wErr    error
}

// newTCPSystem is Default(2) with the ranks in two core.RunWorker sessions
// of this process, meshed over real 127.0.0.1 sockets.
func newTCPSystem(g *graph.Graph) (*engineSystem, error) {
	s := &engineSystem{}
	opts := core.Default(ranks)
	opts.Backend = core.BackendTCP
	opts.Workers = ranks
	opts.ListenAddr = "127.0.0.1:0"
	opts.OnListen = func(addr string) {
		for i := 0; i < opts.Workers; i++ {
			s.workers.Add(1)
			go func() {
				defer s.workers.Done()
				if err := core.RunWorker(addr, core.WorkerConfig{}); err != nil {
					s.mu.Lock()
					s.wErr = err
					s.mu.Unlock()
				}
			}()
		}
	}
	e, err := core.NewEngine(g, opts)
	if err != nil {
		s.workers.Wait()
		return nil, err
	}
	s.e = e
	return s, nil
}

func (s *engineSystem) solve(q *query) reply {
	res, err := s.e.SolveSpec(q.spec)
	return reply{res: res, err: err}
}

func (s *engineSystem) close() error {
	s.e.Close()
	s.workers.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.wErr
}

// httpSystem is steinersvc behind a real listener, one engine, a 256-entry
// cache, and keep-alive client connections.
type httpSystem struct {
	svc    *steinersvc.Service
	srv    *http.Server
	served chan error
	client *http.Client
	base   string
}

func newHTTPSystem(g *graph.Graph) (*httpSystem, error) {
	svc, err := steinersvc.New(g, core.Default(ranks), steinersvc.Config{Engines: 1, CacheEntries: 256})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, err
	}
	s := &httpSystem{
		svc:    svc,
		srv:    &http.Server{Handler: svc},
		served: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}},
		base:   "http://" + ln.Addr().String(),
	}
	go func() { s.served <- s.srv.Serve(ln) }()
	return s, nil
}

func (s *httpSystem) solve(q *query) reply {
	resp, err := s.client.Post(s.base+"/v1/solve", "application/json", bytes.NewReader(q.body))
	if err != nil {
		return reply{err: err}
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return reply{status: resp.StatusCode, body: body, err: err}
}

// cacheCounters reads the solution cache's counters from /stats.
func (s *httpSystem) cacheCounters() (hits, coalesced int64, err error) {
	resp, err := s.client.Get(s.base + "/stats")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	var st steinersvc.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil || st.Cache == nil {
		return 0, 0, fmt.Errorf("reading /stats: cache block missing (%v)", err)
	}
	return st.Cache.Hits, st.Cache.Coalesced, nil
}

func (s *httpSystem) close() error {
	s.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.served; err == nil && serr != http.ErrServerClosed {
		err = serr
	}
	s.svc.Close()
	return err
}

// decode turns a reply into an answer, or says why it is not one.
func (r reply) decode() (answer, error) {
	if r.err != nil {
		return answer{}, r.err
	}
	if r.res != nil {
		a := answer{mode: r.res.Mode, tree: r.res.Tree, skipped: r.res.Skipped, objective: r.res.Objective}
		for _, p := range r.res.Phases {
			a.phases = append(a.phases, phase{p.Name, p.Seconds})
		}
		return a, nil
	}
	if r.status != http.StatusOK {
		return answer{}, fmt.Errorf("HTTP %d: %s", r.status, bytes.TrimSpace(r.body))
	}
	var sr steinersvc.SolveResponse
	if err := json.Unmarshal(r.body, &sr); err != nil {
		return answer{}, fmt.Errorf("bad response body: %w", err)
	}
	mode, err := core.ParseMode(sr.Mode)
	if err != nil {
		return answer{}, err
	}
	a := answer{mode: mode, objective: graph.Dist(sr.Total), cached: sr.Cached}
	if sr.Objective != nil {
		a.objective = graph.Dist(*sr.Objective)
	}
	for _, e := range sr.Edges {
		a.tree = append(a.tree, graph.Edge{U: graph.VID(e.U), V: graph.VID(e.V), W: e.W})
	}
	for _, v := range sr.Skipped {
		a.skipped = append(a.skipped, graph.VID(v))
	}
	for _, p := range sr.Phases {
		a.phases = append(a.phases, phase{p.Name, p.Seconds})
	}
	return a, nil
}
