// Command steinersvc serves Steiner-tree queries over HTTP — the
// interactive exploration framework the paper motivates in §I: "an
// interactive framework is highly desired for exploring data
// relationships... this framework needs to be scalable and efficient enough
// to provide palatable interactivity." The graph is loaded (or generated)
// once and held in memory; each query solves for a user-supplied seed set
// and returns the tree as JSON.
//
// Usage:
//
//	steinersvc -dataset LVJ -addr :8080
//	steinersvc -graph web.bin -ranks 8 -engines 4 -cache 512 -jobs 128
//	steinersvc -dataset LVJ -backend tcp -workers 4 -rank-listen 127.0.0.1:7600
//
// The engines cut the graph into equal-vertex rank-local shards; /info and
// /stats report their memory.
//
// -backend selects where the ranks run. The default inproc backend runs
// them as goroutines over in-memory mailboxes. -backend tcp turns this
// process into a session coordinator: it listens on -rank-listen, waits
// (up to -worker-wait) for -workers rankd processes to dial in, ships each
// its slice of the shard plan, and every query then executes in the worker
// fleet with messages, collectives and termination tokens crossing real
// TCP. /stats exposes the wire traffic (frames, bytes, codec time) per
// pool, so the loopback-vs-TCP overhead is measurable.
//
// -recover arms fault tolerance for the TCP session: when a worker dies or
// a connection drops, the coordinator retains the shard handshake, waits up
// to -rejoin-wait for the fleet to re-handshake (survivors rejoin via the
// Rejoin frame when started with rankd -rejoin; replacements send a fresh
// Hello), and requeues the interrupted query on the healed fleet —
// the answer is byte-identical to an undisturbed run. -respawn-cmd names a
// shell command the coordinator fires on each fault to start replacement
// workers. /stats reports the fault accounting under "faults".
//
// -engines N keeps a pool of N resident solver engines, so up to N queries
// run concurrently on the shared graph; further requests queue for the next
// free engine. -cache N keeps the N most recently used solutions, keyed by
// the canonical (sorted) terminal set, with single-flight coalescing of
// concurrent identical queries. -jobs N bounds the async job queue; a full
// queue answers 429.
//
// API:
//
//	GET  /info                            graph characteristics
//	GET  /stats                           pool/cache/job utilization + phase timings
//	POST /solve {"seeds":[1,2,3]}         solve for explicit seeds
//	POST /solve {"k":100}                 solve for k BFS-level seeds
//	GET  /solve?seeds=1,2,3               convenience form
//	POST /solve/batch {"queries":[...]}   many queries, answered in order
//	POST /solve/async {"seeds":[...]}     enqueue job, returns {"id":...}
//	GET  /jobs/{id}                       poll an async job
//
// Response: {"seeds":[...], "edges":[{"u":..,"v":..,"w":..}], "total":...,
// "steinerVertices":..., "phases":[{"name":..,"seconds":..,"sent":..}]}.
//
// On SIGINT/SIGTERM the server stops accepting requests, finishes in-flight
// and queued work, and releases the engine pool before exiting.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/exec"
	"os/signal"
	"syscall"
	"time"

	"dsteiner"
	"dsteiner/internal/steinersvc"
)

func main() {
	defaults := dsteiner.Defaults(1)
	var (
		graphFile  = flag.String("graph", "", "binary CSR graph file")
		dataset    = flag.String("dataset", "", "Table III stand-in name")
		scale      = flag.Float64("scale", 1.0, "dataset scale factor")
		addr       = flag.String("addr", ":8080", "listen address")
		ranks      = flag.Int("ranks", 4, "rank count per query")
		backend    = flag.String("backend", "inproc", "rank backend: inproc | tcp (external rankd workers)")
		workers    = flag.Int("workers", 4, "rankd worker processes for -backend tcp")
		rankAddr   = flag.String("rank-listen", "127.0.0.1:7600", "coordinator listen address for -backend tcp (rankd dials this)")
		workerWait = flag.Duration("worker-wait", 60*time.Second, "how long to wait for rankd workers to dial in")
		recoverOn  = flag.Bool("recover", false, "heal a poisoned tcp session: re-admit rejoining/respawned workers and requeue the in-flight query")
		rejoinWait = flag.Duration("rejoin-wait", 30*time.Second, "how long one session heal waits for all workers to re-handshake (with -recover)")
		respawnCmd = flag.String("respawn-cmd", "", "shell command run (async, via sh -c) each time the tcp session loses a worker — e.g. a script starting one replacement rankd")
		queueKind  = flag.String("queue", defaults.Queue.String(), "message queue discipline: fifo | priority")
		engines    = flag.Int("engines", 1, "resident solver engines (max concurrent queries; must be 1 with -backend tcp)")
		cache      = flag.Int("cache", 256, "LRU solution cache entries (0 disables)")
		jobs       = flag.Int("jobs", 64, "async job queue bound (0 disables /solve/async)")
		drainWait  = flag.Duration("drain", 30*time.Second, "graceful shutdown budget")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060; empty = off)")
	)
	flag.Parse()

	if *pprofAddr != "" {
		// The profiling listener is separate from the API server so it can
		// stay bound to localhost while the API faces the network; handlers
		// come from net/http/pprof's DefaultServeMux registration.
		go func() {
			log.Printf("steinersvc: pprof on http://%s/debug/pprof/", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("steinersvc: pprof listener: %v", err)
			}
		}()
	}

	g, err := loadGraph(*graphFile, *dataset, *scale)
	if err != nil {
		fmt.Fprintf(os.Stderr, "steinersvc: %v\n", err)
		os.Exit(1)
	}
	opts := dsteiner.Defaults(*ranks)
	opts.Queue, err = dsteiner.ParseQueue(*queueKind)
	if err != nil {
		fmt.Fprintf(os.Stderr, "steinersvc: %v\n", err)
		os.Exit(1)
	}
	opts.Backend, err = dsteiner.ParseBackend(*backend)
	if err != nil {
		fmt.Fprintf(os.Stderr, "steinersvc: %v\n", err)
		os.Exit(1)
	}
	if opts.Backend == dsteiner.BackendTCP {
		opts.Workers = *workers
		opts.ListenAddr = *rankAddr
		opts.WorkerWait = *workerWait
		opts.OnListen = func(a string) {
			log.Printf("steinersvc: waiting up to %v for %d rankd worker(s) on %s "+
				"(start them with: rankd -coordinator %s)", *workerWait, *workers, a, a)
		}
		if *recoverOn {
			opts.Recover = true
			opts.RejoinWait = *rejoinWait
			cmd := *respawnCmd
			opts.OnWorkerLost = func(err error) {
				log.Printf("steinersvc: session fault: %v (healing on next solve)", err)
				if cmd == "" {
					return
				}
				// Coordinator-driven respawn: fire the operator's command
				// (asynchronously — OnWorkerLost must not block the heal)
				// so a replacement worker can dial in. Survivors rejoin on
				// their own with rankd -rejoin.
				c := exec.Command("sh", "-c", cmd)
				c.Stdout = os.Stderr
				c.Stderr = os.Stderr
				if err := c.Start(); err != nil {
					log.Printf("steinersvc: respawn-cmd: %v", err)
					return
				}
				go func() {
					if err := c.Wait(); err != nil {
						log.Printf("steinersvc: respawn-cmd exited: %v", err)
					}
				}()
			}
		}
	}
	svc, err := steinersvc.New(g, opts, steinersvc.Config{
		Engines:      *engines,
		CacheEntries: *cache,
		JobQueue:     *jobs,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "steinersvc: %v\n", err)
		os.Exit(1)
	}
	log.Printf("steinersvc: serving |V|=%d 2|E|=%d on %s with %d engine(s) x %d ranks over %s backend, cache=%d, jobs=%d",
		g.NumVertices(), g.NumArcs(), *addr, svc.NumEngines(), *ranks, *backend, *cache, *jobs)

	srv := &http.Server{Addr: *addr, Handler: svc}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	httpDone := make(chan error, 1)
	go func() { httpDone <- srv.ListenAndServe() }()

	select {
	case err := <-httpDone:
		// Listener failed before any signal (port in use, ...).
		log.Fatalf("steinersvc: %v", err)
	case <-ctx.Done():
	}
	stop()
	log.Printf("steinersvc: shutting down (up to %v)", *drainWait)
	sctx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	// Stop accepting HTTP first so no new queries race the engine drain,
	// then finish the async backlog and reclaim the engine pool.
	if err := srv.Shutdown(sctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("steinersvc: http shutdown: %v", err)
	}
	if err := svc.Shutdown(sctx); err != nil {
		log.Printf("steinersvc: %v", err)
		os.Exit(1)
	}
	log.Printf("steinersvc: drained cleanly")
}

func loadGraph(file, dataset string, scale float64) (*dsteiner.Graph, error) {
	switch {
	case file != "":
		return dsteiner.LoadGraphFile(file)
	case dataset != "":
		cfg, err := dsteiner.Dataset(dataset)
		if err != nil {
			return nil, err
		}
		if scale > 0 && scale < 1 {
			cfg.N = int(float64(cfg.N) * scale)
			if cfg.N < 64 {
				cfg.N = 64
			}
		}
		return cfg.Build()
	default:
		return nil, fmt.Errorf("need -graph FILE or -dataset NAME")
	}
}
