package core

import (
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"dsteiner/internal/faultpoint"
	"dsteiner/internal/graph"
	rt "dsteiner/internal/runtime"
	"dsteiner/internal/transport"
)

// chaosSolveDeadline bounds every solve of the chaos suite: a matrix cell
// that neither answers nor errors within it is a hang, which is itself a
// failure of the fault-tolerance contract.
const chaosSolveDeadline = 45 * time.Second

// startChaosFleet builds a BackendTCP engine over a fleet of workers that
// run as goroutines in this process but speak the real wire protocol over
// localhost TCP: each runs ServeWorker, the loop cmd/rankd executes, with
// its own config from cfgFor, so a cell can arm a Chaos shim on one worker
// and rejoin behavior on all of them (cfgFor nil: WorkerConfig{}, one
// session each, as RunWorker). The returned shutdown closes the engine and
// then joins the worker goroutines under a deadline — a worker that never
// exits is a hang, not a slow test — and with wantClean requires every
// worker to have exited without error.
func startChaosFleet(t testing.TB, g *graph.Graph, opts Options, workers int,
	cfgFor func(w int) WorkerConfig) (*Engine, func(wantClean bool)) {
	t.Helper()
	opts.Backend = BackendTCP
	opts.Workers = workers
	opts.ListenAddr = "127.0.0.1:0"
	var wg sync.WaitGroup
	errs := make([]error, workers)
	opts.OnListen = func(addr string) {
		for i := 0; i < workers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				var cfg WorkerConfig
				if cfgFor != nil {
					cfg = cfgFor(i)
				}
				errs[i] = ServeWorker(addr, cfg)
			}(i)
		}
	}
	e, err := NewEngine(g, opts)
	if err != nil {
		t.Fatalf("chaos fleet: %v", err)
	}
	return e, func(wantClean bool) {
		e.Close()
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatal("workers still running 30s after engine close")
		}
		for i, err := range errs {
			if wantClean && err != nil {
				t.Errorf("worker %d exited with: %v", i, err)
			}
		}
	}
}

// chaosOnWorker0 is a cfgFor for startChaosFleet: every worker rejoins a
// faulted session within rejoin (0: it exits instead), and worker 0 alone
// runs the chaos shim.
func chaosOnWorker0(rejoin time.Duration, chaos *transport.ChaosConfig) func(w int) WorkerConfig {
	return func(w int) WorkerConfig {
		cfg := WorkerConfig{RejoinWait: rejoin}
		if w == 0 {
			cfg.Chaos = chaos
		}
		return cfg
	}
}

// solveWithDeadline runs one Solve under the chaos watchdog.
func solveWithDeadline(t *testing.T, name string, e *Engine, seeds []graph.VID) (*Result, error) {
	t.Helper()
	type outcome struct {
		res *Result
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		res, err := e.Solve(seeds)
		ch <- outcome{res, err}
	}()
	select {
	case o := <-ch:
		return o.res, o.err
	case <-time.After(chaosSolveDeadline):
		t.Fatalf("%s: solve neither answered nor errored within %v (hang)", name, chaosSolveDeadline)
		return nil, nil
	}
}

// chaosOpts is the one engine shape every chaos cell uses.
func chaosOpts() Options {
	return Options{Ranks: 4, Queue: rt.QueuePriority}
}

// probeChaosOps measures how many transport operations one worker's Chaos
// shim observes, by running a fleet whose shim injects nothing (Kind "").
// ops spans session start plus one solve; fault cells place their After
// triggers inside it, which is what puts every fault kind at every tested
// position of a real solve. floor spans session start plus the two solves a
// matrix cell runs, deliveries left out: how many flood batches a solve
// flushes moves with batch timing, and fewer under load, while the
// collectives and traversal starts are the same every run, so a cell's shim
// can never observe fewer operations than floor.
func probeChaosOps(t *testing.T, g *graph.Graph, seeds []graph.VID) (ops, floor int64) {
	t.Helper()
	before, beforeDelivers := transport.ChaosOpsTotal(), transport.ChaosDeliversTotal()
	opts := chaosOpts()
	opts.Recover = true
	opts.RejoinWait = 10 * time.Second
	e, shutdown := startChaosFleet(t, g, opts, 2, chaosOnWorker0(10*time.Second, &transport.ChaosConfig{Seed: 1}))
	if _, err := solveWithDeadline(t, "probe", e, seeds); err != nil {
		t.Fatalf("probe solve: %v", err)
	}
	ops = transport.ChaosOpsTotal() - before
	if _, err := solveWithDeadline(t, "probe/again", e, seeds); err != nil {
		t.Fatalf("second probe solve: %v", err)
	}
	shutdown(true)
	floor = transport.ChaosOpsTotal() - before - (transport.ChaosDeliversTotal() - beforeDelivers)
	if ops < 4 {
		t.Fatalf("probe observed only %d transport ops; chaos shim is not on the solve path", ops)
	}
	return ops, floor
}

// TestTreeSolveSynchronizations pins how often a tree solve synchronizes
// its ranks: the transport operations other than deliveries that one worker
// of a 2-worker fleet runs for one warm tree solve with one Borůvka round.
// They are the 13 collectives that move data or detect quiescence — the
// halo, routing, two proposal rounds (the second finds none) and tree
// gather Exchanges; the two corrupt-blob agreements; three barriers in each
// of the two traversals — plus the two traversal starts. A barrier or
// allreduce that only carried accounting adds to the count and fails here.
func TestTreeSolveSynchronizations(t *testing.T) {
	const want = 13 + 2
	g := engineTestGraph(17, 320)
	seeds := []graph.VID{5, 300} // two terminals: one Borůvka round
	e, shutdown := startChaosFleet(t, g, chaosOpts(), 2, chaosOnWorker0(0, &transport.ChaosConfig{Seed: 1}))
	defer shutdown(true)
	if _, err := solveWithDeadline(t, "warm-up", e, seeds); err != nil {
		t.Fatal(err)
	}
	ops, delivers := transport.ChaosOpsTotal(), transport.ChaosDeliversTotal()
	res, err := solveWithDeadline(t, "counted", e, seeds)
	if err != nil {
		t.Fatal(err)
	}
	if res.MSTRounds != 1 {
		t.Fatalf("the query took %d Borůvka rounds, want 1", res.MSTRounds)
	}
	if got := transport.ChaosOpsTotal() - ops - (transport.ChaosDeliversTotal() - delivers); got != want {
		t.Fatalf("one tree solve ran %d transport operations besides deliveries, want %d", got, want)
	}
}

// TestChaosMatrix is the chaos-equivalence acceptance suite: fault kinds ×
// injection positions × seeds, each cell injecting one deterministic fault
// into a recovering 2-worker fleet and requiring the answer to stay
// byte-identical to referenceSolve's — first on the faulted solve
// (healed and requeued under the covers), then again on the healed fleet —
// with every worker exiting cleanly at goodbye. The fault lands in the
// faulted solve as a rule, but a late position (after=30) can fire in the
// healed solve instead when a loaded run batches its deliveries more
// coarsely; the cell then logs which solve it fired in, and its assertions
// hold either way.
func TestChaosMatrix(t *testing.T) {
	g := engineTestGraph(17, 320)
	rng := rand.New(rand.NewSource(91))
	seeds := pickEngineSeeds(rng, g.NumVertices(), 8)

	want, _ := referenceSolve(t, g, TreeSpec(seeds))

	// Injection positions in transport ops: early, middle and late in a
	// solve. They are constants, not fractions of the probed count, because
	// that count moves with batch timing (39–65 over six probes of this
	// workload, fewer under load) and a cell whose name moves with it cannot
	// be re-run by name. The probe checks that the latest position lands
	// inside the span a cell's shim observes whatever the batch timing:
	// floor counts the operations that do not depend on it (16 for session
	// start plus one solve, where deliveries add another 23–49 unloaded). A
	// fault that has not fired when the faulted solve ends fires in the
	// healed one. A runtime change that runs fewer collectives must shrink
	// the positions.
	afters := []int64{6, 19, 30}
	chaosSeeds := []int64{1, 2, 3}
	kinds := []string{transport.ChaosPeerDrop, transport.ChaosCoordDrop, transport.ChaosTruncate}
	if testing.Short() {
		afters = []int64{19}
		chaosSeeds = []int64{1}
	}
	if _, floor := probeChaosOps(t, g, seeds); floor <= 30 {
		t.Fatalf("a cell's two solves take only %d transport ops besides deliveries: a fault armed after 30 might never fire", floor)
	}

	runCell := func(t *testing.T, label string, chaos *transport.ChaosConfig, wantFault bool) {
		opts := chaosOpts()
		opts.Recover = true
		opts.RejoinWait = 15 * time.Second
		e, shutdown := startChaosFleet(t, g, opts, 2, chaosOnWorker0(15*time.Second, chaos))
		got, err := solveWithDeadline(t, label+"/faulted", e, seeds)
		if err != nil {
			t.Fatalf("faulted solve not recovered: %v", err)
		}
		assertMatchesReference(t, e, got, want)
		if wantFault && e.FaultStats().Detected == 0 {
			t.Logf("%s: no fault detected by the end of the faulted solve; the healed solve takes it", label)
		}
		// The second solve proves the healed fleet is a working fleet, and
		// flushes a fault that fired after the first answer was delivered
		// through a heal before the goodbye.
		again, err := solveWithDeadline(t, label+"/healed", e, seeds)
		if err != nil {
			t.Fatalf("solve on healed fleet: %v", err)
		}
		assertMatchesReference(t, e, again, want)
		fs := e.FaultStats()
		shutdown(true)
		if wantFault {
			if fs.Detected < 1 {
				t.Fatalf("injected a %s fault but the hub detected none: %+v", chaos.Kind, fs)
			}
			if fs.Heals < 1 || fs.Rejoins < 2 {
				t.Fatalf("fault detected but the session never healed: %+v", fs)
			}
			if fs.LastError == "" {
				t.Fatalf("fault detected with no recorded reason: %+v", fs)
			}
		} else if fs.Detected != 0 {
			t.Fatalf("delay-only cell detected a fault: %+v (last: %s)", fs.Detected, fs.LastError)
		}
	}

	for _, kind := range kinds {
		for _, after := range afters {
			for _, seed := range chaosSeeds {
				label := fmt.Sprintf("%s/after=%d/seed=%d", kind, after, seed)
				t.Run(label, func(t *testing.T) {
					runCell(t, label, &transport.ChaosConfig{Kind: kind, Seed: seed, After: after}, true)
				})
			}
		}
	}

	// Delay is the timing-perturbation control: seeded sleeps on every
	// operation, zero faults, and the answer must not wobble.
	for _, seed := range chaosSeeds {
		label := fmt.Sprintf("delay/seed=%d", seed)
		t.Run(label, func(t *testing.T) {
			runCell(t, label, &transport.ChaosConfig{Kind: transport.ChaosDelay, Seed: seed}, false)
		})
	}
}

// TestChaosCrashAtPhase is the fifth fault kind of the matrix: a rank
// crashes (faultpoint panic — the in-process stand-in for rankd's
// FAULTPOINTS=...:exit) at the start of solver phases 2, 4 and 6, and the
// recovering fleet still answers as referenceSolve does. The faultpoint
// registry is process-global and the workers are goroutines here, so the
// points are reset on cleanup.
func TestChaosCrashAtPhase(t *testing.T) {
	g := engineTestGraph(17, 120)
	rng := rand.New(rand.NewSource(92))
	seeds := pickEngineSeeds(rng, g.NumVertices(), 5)

	want, _ := referenceSolve(t, g, TreeSpec(seeds))

	for _, phase := range []string{"solve.phase2", "solve.phase4", "solve.phase6"} {
		t.Run(phase, func(t *testing.T) {
			t.Cleanup(faultpoint.Reset)
			opts := chaosOpts()
			opts.Recover = true
			opts.RejoinWait = 15 * time.Second
			e, shutdown := startChaosFleet(t, g, opts, 2, chaosOnWorker0(15*time.Second, nil))
			// Arm after the handshake so the crash lands mid-solve, not in
			// session build. Once-semantics: exactly one rank crashes once;
			// the requeued run is clean.
			faultpoint.Arm(phase, faultpoint.ActPanic)
			got, err := solveWithDeadline(t, phase, e, seeds)
			if err != nil {
				t.Fatalf("crash at %s not recovered: %v", phase, err)
			}
			assertMatchesReference(t, e, got, want)
			fs := e.FaultStats()
			shutdown(true)
			if fs.Detected < 1 || fs.Heals < 1 || fs.Requeued < 1 {
				t.Fatalf("crash cell fault accounting: %+v", fs)
			}
			if !strings.Contains(fs.LastError, "panic") {
				t.Fatalf("crash cell recorded reason %q, want a rank panic", fs.LastError)
			}
			if faultpoint.Injected() < 1 {
				t.Fatal("faultpoint never fired")
			}
		})
	}
}

// TestChaosFailStopWithoutRecovery pins the legacy contract the chaos
// matrix must not erode: without Options.Recover a mid-solve fault poisons
// the session — Solve returns a session-fault error (IsSessionFault, so
// serving layers know a retry needs a new fleet), a second Solve errors
// promptly instead of hanging, and the workers exit with errors.
func TestChaosFailStopWithoutRecovery(t *testing.T) {
	g := engineTestGraph(17, 120)
	rng := rand.New(rand.NewSource(93))
	seeds := pickEngineSeeds(rng, g.NumVertices(), 5)
	probe, _ := probeChaosOps(t, g, seeds)

	cells := []struct {
		name  string
		chaos *transport.ChaosConfig
		arm   string
	}{
		{"coord-drop", &transport.ChaosConfig{Kind: transport.ChaosCoordDrop, Seed: 7, After: probe / 2}, ""},
		{"peer-drop", &transport.ChaosConfig{Kind: transport.ChaosPeerDrop, Seed: 7, After: probe / 2}, ""},
		{"rank-panic", nil, "solve.phase3"},
	}
	for _, cell := range cells {
		t.Run(cell.name, func(t *testing.T) {
			e, shutdown := startChaosFleet(t, g, chaosOpts(), 2, chaosOnWorker0(0, cell.chaos))
			if cell.arm != "" {
				t.Cleanup(faultpoint.Reset)
				faultpoint.Arm(cell.arm, faultpoint.ActPanic)
			}
			_, err := solveWithDeadline(t, cell.name, e, seeds)
			if err == nil {
				t.Fatal("faulted fail-stop solve succeeded")
			}
			if !IsSessionFault(err) {
				t.Fatalf("fault surfaced as a query error, not a session fault: %v", err)
			}
			// The poisoned session must refuse further work immediately.
			if _, err := solveWithDeadline(t, cell.name+"/again", e, seeds); err == nil {
				t.Fatal("poisoned session answered a second query")
			}
			shutdown(false)
		})
	}
}

// TestWorkerHandshakeCoordinatorReset pins the worker-side failure mode
// when the coordinator's connection resets between Hello and Setup: the
// worker errors out instead of hanging, and reports the handshake step.
func TestWorkerHandshakeCoordinatorReset(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		_ = conn.Close() // reset before sending the setup
	}()
	err = RunWorker(ln.Addr().String(), WorkerConfig{DialTimeout: 3 * time.Second})
	if err == nil {
		t.Fatal("worker survived a coordinator that hung up mid-handshake")
	}
	// Depending on when the reset lands, either the Hello write or the
	// Setup read observes it; both must name their handshake step.
	if !strings.Contains(err.Error(), "waiting for setup") && !strings.Contains(err.Error(), "hello") {
		t.Fatalf("worker error does not name the handshake step: %v", err)
	}
}
