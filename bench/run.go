package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"time"

	"dsteiner/internal/core"
	"dsteiner/internal/graph"
)

// runOptions is one workload run as the command line asked for it.
type runOptions struct {
	workload *workload
	seed     int64
	seconds  float64
	trace    bool
	tiny     bool   // smoke-test sizes; numbers are never reported
	detail   string // where to write the detailed JSON, "" for nowhere
	outDir   string // where a traced run writes its trace file
}

// minInstances is the floor on system instances per run. An in-process
// engine lives in one of two modes, decided when it is built: the same
// queries take about 650 ms on one engine and 900 ms on the next, built
// seconds later in the same process, and repeat within 3% on either. A run
// therefore samples instances, not rounds on one instance, and reports the
// mean over them: of a two-humped distribution the median is the least
// steady statistic there is, and a user gets the modes in proportion anyway.
const minInstances = 4

// instanceSample is the raw measurement of one system instance: its set-up,
// then one chunk through it, then the same chunk through the yardstick.
type instanceSample struct {
	SetupS    float64   `json:"setup_s"`
	SysWallS  float64   `json:"sys_wall_s"`
	SysCPUS   float64   `json:"sys_cpu_s"`
	YardWallS float64   `json:"yard_wall_s"`
	YardCPUS  float64   `json:"yard_cpu_s"`
	RSSMB     float64   `json:"rss_mb"`  // resident set after the chunk, the instance still open
	LatMS     []float64 `json:"lat_ms"`  // per request, in chunk order
	YardMS    []float64 `json:"yard_ms"` // the same request through the yardstick
}

// bench is the state of one workload run.
type bench struct {
	opt  runOptions
	g    *graph.Graph
	yard *yardstick

	prime []*query
	next  func() []*query

	genBuildS float64

	attempted, failed int
	failures          []string // the first few, for the report
	distinct          []*query // every query asked at least once, in order
}

// prepare builds the workload's graph and draws its requests. Every random
// choice comes from the seed; the system only ever sees the graph and the
// requests.
func prepare(opt runOptions) (*bench, error) {
	b := &bench{opt: opt}
	t0 := time.Now()
	g, err := opt.workload.graph(opt.seed, opt.tiny).Build()
	if err != nil {
		return nil, err
	}
	b.genBuildS = time.Since(t0).Seconds()
	b.g = g
	b.yard = newYardstick(g)
	rng := rand.New(rand.NewSource(opt.seed*7919 + 17))
	b.prime, b.next = opt.workload.plan(g, rng, opt.tiny)
	for _, q := range b.prime {
		b.yardOne(q)
	}
	return b, nil
}

// yardOne solves q on the yardstick and returns the time it took.
func (b *bench) yardOne(q *query) time.Duration {
	t0 := time.Now()
	w, _, err := b.yard.Solve(q.terms)
	d := time.Since(t0)
	if err != nil {
		// A workload whose terminals are disconnected is a bug in the generator.
		panic(err)
	}
	q.yardWeight = w
	return d
}

// open is set-up as a user pays it: from the built graph to the first
// correct reply. The rest of the prime requests follow, untimed; they are the
// instance's warm-up (a second pass over a chunk runs no faster than the
// first once the cold query has sized the engine's buffers) and, on the
// service, what fills the cache with the hot set.
func (b *bench) open() (system, float64, error) {
	t0 := time.Now()
	sys, err := newSystem(b.opt.workload.backend, b.g)
	if err != nil {
		return nil, 0, fmt.Errorf("setting up system: %w", err)
	}
	cold := sys.solve(b.prime[0])
	setupS := time.Since(t0).Seconds()
	b.check(b.prime[0], cold)
	for _, q := range b.prime[1:] {
		b.check(q, sys.solve(q))
	}
	return sys, setupS, nil
}

// check counts one answer and records why it failed, if it did.
func (b *bench) check(q *query, rep reply) (answer, bool) {
	b.attempted++
	if !q.asked {
		q.asked = true
		b.distinct = append(b.distinct, q)
	}
	a, err := rep.decode()
	if err == nil {
		err = checkAnswer(b.g, q, a)
	}
	if err != nil {
		b.failed++
		if len(b.failures) < 5 {
			b.failures = append(b.failures, err.Error())
		}
		return a, false
	}
	return a, true
}

// round sends chunk through sys with the workload's closed-loop clients
// (client c takes requests c, c+clients, ...), then through the yardstick on
// this goroutine, and only then checks the answers and, when tracing, turns
// the recorded times into spans: the timed loop is the same traced or not.
func (b *bench) round(sys system, chunk []*query, tr *tracer) (instanceSample, []reply, []answer) {
	s := instanceSample{LatMS: make([]float64, len(chunk)), YardMS: make([]float64, len(chunk))}
	replies := make([]reply, len(chunk))
	starts := make([]time.Time, len(chunk))
	clients := b.opt.workload.clients
	cpu0, t0 := cpuTime(), time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; i < len(chunk); i += clients {
				starts[i] = time.Now()
				replies[i] = sys.solve(chunk[i])
				s.LatMS[i] = ms(time.Since(starts[i]))
			}
		}()
	}
	wg.Wait()
	s.SysWallS = time.Since(t0).Seconds()
	cpu1 := cpuTime()
	s.SysCPUS = (cpu1 - cpu0).Seconds()

	t1 := time.Now()
	for i, q := range chunk {
		start := time.Now()
		d := b.yardOne(q)
		s.YardMS[i] = ms(d)
		tr.add("yardstick.solve", clients, i, start, start.Add(d), -1)
	}
	s.YardWallS = time.Since(t1).Seconds()
	s.YardCPUS = (cpuTime() - cpu1).Seconds()
	s.RSSMB = statusMB("VmRSS")

	answers := make([]answer, len(chunk))
	for i, q := range chunk {
		answers[i], _ = b.check(q, replies[i])
		end := starts[i].Add(time.Duration(s.LatMS[i] * float64(time.Millisecond)))
		tr.request(b.opt.workload.backend, i%clients, i, starts[i], end, answers[i])
	}
	return s, replies, answers
}

// crossCheck solves queries once more on a fresh in-process engine and
// compares digests: a TCP fleet must answer byte-identically to the loopback
// ranks.
func (b *bench) crossCheck(queries []*query) error {
	ref, err := newSystem("inproc", b.g)
	if err != nil {
		return err
	}
	for _, q := range queries {
		b.check(q, ref.solve(q))
	}
	return ref.close()
}

// measure is an untraced run: system instances one after another, each set
// up, sent one chunk and closed, until the clock runs out.
func measure(opt runOptions) (*report, error) {
	env := startEnvironment()
	b, err := prepare(opt)
	if err != nil {
		return nil, err
	}
	var samples []instanceSample
	var firstChunk []*query
	var floor int // distinct queries asked by the instances every run has
	t0 := time.Now()
	for i := 0; i < minInstances || time.Since(t0).Seconds() < opt.seconds; i++ {
		sys, setupS, err := b.open()
		if err != nil {
			return nil, err
		}
		chunk := b.next()
		s, _, _ := b.round(sys, chunk, nil)
		s.SetupS = setupS
		samples = append(samples, s)
		if err := sys.close(); err != nil {
			return nil, fmt.Errorf("closing system: %w", err)
		}
		// Collect the closed instance before building the next, or
		// rss_mb measures how many dead engines the collector happened
		// to leave lying around.
		runtime.GC()
		if i == 0 {
			firstChunk = chunk
		}
		if i < minInstances {
			floor = len(b.distinct)
		}
	}
	if opt.workload.backend == "tcp" {
		if err := b.crossCheck(slices.Concat(b.prime, firstChunk)); err != nil {
			return nil, err
		}
	}
	rep := b.newReport(samples)
	rep.fillEndToEnd(b, samples, b.distinct[:floor])
	rep.finish(b, firstChunk, env)
	return rep, nil
}

// fillEndToEnd computes the end-to-end metrics, each a mean over the
// instances of the run (set-up: the median), and the informational ones that
// proved too unsteady on a shared box to carry a bound.
//
// cpu_vs_seq, the slowdown pairing on process CPU, is one of the latter: a
// rank waiting for its peer spins before it parks, so when a neighbour takes
// a core the ranks are descheduled where they would have spun and the ratio
// falls by a third (12.5 to 8.9 on grid-manyterm-modes with one core kept
// busy) while slowdown_vs_seq moves by a tenth. It measures the box.
//
// objective_vs_seq is taken over the tree queries of the first minInstances
// instances only. Tree queries, because there the system and the yardstick
// approximate the same optimum (a forest is far lighter than the tree over
// all its terminals, by an amount that depends on the draw); the first
// instances, because how many more a run gets to depends on the clock and
// this metric is meant to repeat exactly for a seed.
func (rep *report) fillEndToEnd(b *bench, samples []instanceSample, fixed []*query) {
	var setup, slow, cpu, p50, rss, ratios, lats []float64
	var sysWall float64
	for _, s := range samples {
		setup = append(setup, s.SetupS)
		slow = append(slow, s.SysWallS/s.YardWallS)
		cpu = append(cpu, s.SysCPUS/s.YardCPUS)
		rss = append(rss, s.RSSMB)
		sysWall += s.SysWallS
		own := make([]float64, len(s.LatMS))
		for i, l := range s.LatMS {
			own[i] = l / s.YardMS[i]
		}
		p50 = append(p50, median(own))
		ratios = append(ratios, own...)
		lats = append(lats, s.LatMS...)
	}
	var objective, yardWeight float64
	for _, q := range fixed {
		if q.spec.Mode == core.ModeTree {
			objective += float64(q.objective)
			yardWeight += float64(q.yardWeight)
		}
	}
	rep.set("setup_s", median(setup))
	rep.set("slowdown_vs_seq", mean(slow))
	rep.set("lat_vs_seq_p50", mean(p50))
	rep.set("objective_vs_seq", objective/yardWeight)
	rep.set("rss_mb", median(rss))
	rep.Series = map[string][]float64{"setup_s": setup, "slowdown_vs_seq": slow, "cpu_vs_seq": cpu, "lat_vs_seq_p50": p50}
	rep.Info = []infoMetric{
		{"cpu_vs_seq", mean(cpu), "ratio"},
		{"lat_vs_seq_p90", percentile(ratios, 0.9), "ratio"},
		{"lat_ms_p25", percentile(lats, 0.25), "ms"},
		{"lat_ms_p50", median(lats), "ms"},
		{"lat_ms_p75", percentile(lats, 0.75), "ms"},
		{"queries_per_s", float64(len(lats)) / sysWall, "1/s"},
		{"peak_rss_mb", statusMB("VmHWM"), "MB"},
		{"samples", float64(len(lats)), "count"},
		{"failed_frac", float64(b.failed) / float64(b.attempted), "fraction"},
	}
}
