package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"time"

	"dsteiner/internal/baseline"
	"dsteiner/internal/graph"
	"dsteiner/internal/mst"
	"dsteiner/internal/partition"
	"dsteiner/internal/pq"
	rt "dsteiner/internal/runtime"
	"dsteiner/internal/seeds"
	"dsteiner/internal/sssp"
	"dsteiner/internal/voronoi"
	"dsteiner/internal/wire"
)

// ladderReps is how often each seam-ladder rung runs; the rung is the median.
const ladderReps = 3

// rung is one step of the seam ladder: the same query through one more layer.
type rung struct {
	Name string  `json:"name"`
	MS   float64 `json:"ms"`
}

// traced is the per-layer run. It measures nothing end to end: one system
// instance is sent an untraced and then a traced chunk, which give the
// tracing overhead and the request spans; the traced chunk then goes through
// a plain in-process engine (rung 4, where every core.* number comes from),
// one query climbs the seam ladder, and the layers with no query-shaped seam
// are timed on inputs of this workload's size.
func traced(opt runOptions) (*report, error) {
	env := startEnvironment()
	b, err := prepare(opt)
	if err != nil {
		return nil, err
	}
	sys, setupS, err := b.open()
	if err != nil {
		return nil, err
	}
	tr := &tracer{}
	plain, _, _ := b.round(sys, b.next(), nil)
	plain.SetupS = setupS

	chunk := b.next()
	hs, isHTTP := sys.(*httpSystem)
	var hits0, coalesced0 int64
	if isHTTP {
		hits0, coalesced0, err = hs.cacheCounters()
		if err != nil {
			return nil, err
		}
	}
	sample, replies, answers := b.round(sys, chunk, tr)

	rep := b.newReport([]instanceSample{plain, sample})
	for _, name := range perLayerNames {
		rep.set(name, 0)
	}
	rep.set("gen.build_s", b.genBuildS)
	rep.set("trace.overhead_frac", median(sample.LatMS)/median(plain.LatMS)-1)

	// Rung 4: the traced chunk through a fresh in-process engine.
	var ref system
	newEngine := tr.time("core.newengine", func() { ref, err = newSystem("inproc", b.g) })
	if err != nil {
		return nil, err
	}
	rep.set("core.newengine_ms", ms(newEngine))
	ref.solve(chunk[0]) // a cold engine's first query sizes its buffers
	engineMS := rep.coreLayer(b, tr, ref, chunk)

	switch {
	case opt.workload.backend == "tcp":
		if err := rep.transportLayer(b, tr, sample, replies, newEngine); err != nil {
			return nil, err
		}
	case isHTTP:
		hits1, coalesced1, err := hs.cacheCounters()
		if err != nil {
			return nil, err
		}
		rep.serviceLayer(sample, replies, answers, engineMS)
		rep.set("steinersvc.hit_frac", float64(hits1-hits0+coalesced1-coalesced0)/float64(len(chunk)))
		rep.set("steinersvc.coalesced", float64(coalesced1-coalesced0))
	}

	// The ladder query is the first traced request as a tree query, one
	// terminal short so that no cache has seen it.
	terms := chunk[0].terms[:len(chunk[0].terms)-1]
	if err := rep.ladder(b, tr, ref, sys, treeQuery(terms)); err != nil {
		return nil, err
	}
	if err := ref.close(); err != nil {
		return nil, err
	}
	if err := sys.close(); err != nil {
		return nil, fmt.Errorf("closing system: %w", err)
	}
	rep.microLayers(b, tr, terms)

	rep.finish(b, chunk, env)
	rep.set("env.steal_frac", rep.Env.StealFrac)
	rep.TraceFile = filepath.Join(opt.outDir, "trace-"+opt.workload.name+".json")
	if err := tr.writeChrome(rep.TraceFile); err != nil {
		return nil, err
	}
	return rep, nil
}

// coreLayer sends chunk through the in-process engine ref and reports the
// engine's own accounting: wall time per SolveSpec, the six phase times from
// Result.Phases and what is left over (dispatch, canonicalisation, reset,
// result assembly, validation). Times are means, so that self + phases adds
// up to solve exactly. It returns each request's wall time in ms.
func (rep *report) coreLayer(b *bench, tr *tracer, ref system, chunk []*query) []float64 {
	var wall, self, imbalance []float64
	var phaseMS, phaseSent [6][]float64
	var edges, rounds, fragMsgs []float64
	var m0, m1 runtime.MemStats
	replies := make([]reply, len(chunk))
	starts := make([]time.Time, len(chunk))
	runtime.ReadMemStats(&m0)
	for i, q := range chunk {
		starts[i] = time.Now()
		replies[i] = ref.solve(q)
		wall = append(wall, ms(time.Since(starts[i])))
	}
	runtime.ReadMemStats(&m1)
	for i, q := range chunk {
		a, ok := b.check(q, replies[i])
		if !ok {
			continue
		}
		tr.request("inproc", ladderLane, i, starts[i], starts[i].Add(time.Duration(wall[i]*float64(time.Millisecond))), a)
		res := replies[i].res
		rest := wall[i]
		for p, ph := range res.Phases {
			phaseMS[p] = append(phaseMS[p], ph.Seconds*1e3)
			phaseSent[p] = append(phaseSent[p], float64(ph.Sent))
			rest -= ph.Seconds * 1e3
		}
		self = append(self, rest)
		if p1 := res.Phases[0]; p1.Processed > 0 {
			imbalance = append(imbalance, float64(ranks)*float64(p1.MaxRankWork)/float64(p1.Processed))
		}
		edges = append(edges, float64(res.DistGraphEdges))
		rounds = append(rounds, float64(res.MSTRounds))
		fragMsgs = append(fragMsgs, float64(res.FragmentMsgs))
	}
	if len(self) == len(wall) {
		rep.set("core.solve_ms", mean(wall))
		rep.set("core.self_ms", mean(self))
		for p := range phaseMS {
			rep.set(fmt.Sprintf("core.phase%d_ms", p+1), mean(phaseMS[p]))
		}
	}
	rep.set("core.phase1_sent", mean(phaseSent[0]))
	rep.set("core.phase2_sent", mean(phaseSent[1]))
	rep.set("core.phase6_sent", mean(phaseSent[5]))
	rep.set("core.phase1_imbalance", mean(imbalance))
	rep.set("core.distgraph_edges", mean(edges))
	rep.set("core.mst_rounds", mean(rounds))
	rep.set("core.fragment_msgs", mean(fragMsgs))
	rep.set("core.alloc_kb_per_query", float64(m1.TotalAlloc-m0.TotalAlloc)/1024/float64(len(chunk)))
	return wall
}

// transportLayer reports what the TCP hop added to the traced round:
// Result.Net is the traffic of one query summed over the worker sessions.
func (rep *report) transportLayer(b *bench, tr *tracer, s instanceSample, replies []reply, newEngine time.Duration) error {
	var bytes, frames, codec, small, flushes float64
	for _, r := range replies {
		if r.res == nil {
			continue
		}
		n := r.res.Net
		bytes += float64(n.BytesOut)
		frames += float64(n.FramesOut)
		codec += float64(n.EncodeNs+n.DecodeNs) / 1e6
		small += float64(n.FlushesSmall)
		flushes += float64(n.FlushesSmall + n.FlushesMid + n.FlushesLarge)
	}
	q := float64(len(replies))
	rep.set("transport.solve_ms", mean(s.LatMS))
	rep.set("transport.tax", mean(s.LatMS)/rep.Metrics["core.solve_ms"].Value)
	rep.set("transport.bytes_per_query", bytes/q)
	rep.set("transport.frames_per_query", frames/q)
	rep.set("transport.codec_ms", codec/q)
	rep.set("transport.small_flush_frac", small/flushes)

	// Hub listen, worker dial-in, handshake and shard shipping: a TCP
	// engine's construction beyond what an in-process one costs.
	var sys system
	var err error
	d := tr.time("core.newengine.tcp", func() { sys, err = newTCPSystem(b.g) })
	if err != nil {
		return err
	}
	rep.set("transport.handshake_ms", ms(d-newEngine))
	return sys.close()
}

// serviceLayer splits the traced round's HTTP round trips into cache misses
// and hits. overhead is what a miss costs beyond the engine solving the same
// spec directly: HTTP, JSON, canonicalisation, cache, engine checkout and
// waiting for the one engine behind the other client.
func (rep *report) serviceLayer(s instanceSample, replies []reply, answers []answer, engineMS []float64) {
	var miss, hit, overhead, kb []float64
	for i, a := range answers {
		kb = append(kb, float64(len(replies[i].body))/1024)
		if a.cached {
			hit = append(hit, s.LatMS[i])
			continue
		}
		miss = append(miss, s.LatMS[i])
		overhead = append(overhead, s.LatMS[i]-engineMS[i])
	}
	rep.set("steinersvc.miss_ms", median(miss))
	rep.set("steinersvc.hit_ms", median(hit))
	rep.set("steinersvc.overhead_ms", median(overhead))
	rep.set("steinersvc.response_kb", mean(kb))
}

// ladder walks one tree query up the seams: the repo's sequential solvers,
// the visitor runtime on one rank (queue and visitor dispatch), on two
// (mailbox, outbox, termination), the engine, and then whichever of TCP and
// HTTP this workload's system is. Each rung is the median of ladderReps runs.
func (rep *report) ladder(b *bench, tr *tracer, ref, sys system, q *query) error {
	g := b.g
	terms := q.terms
	rep.rung(tr, "yardstick.solve", func() { b.yardOne(q) })
	rep.rung(tr, "baseline.mehlhorn", func() { _, _ = baseline.Mehlhorn(g, terms) })
	rep.rung(tr, "sssp.multisource", func() { sssp.MultiSource(g, terms) })
	rep.rung(tr, "voronoi.sequential", func() { voronoi.Sequential(g, terms) })

	var stats [2]rt.Stats
	for p := 1; p <= ranks; p++ {
		part, err := partition.NewArcBlock(g, p)
		if err != nil {
			return err
		}
		c, err := rt.New(rt.Config{Ranks: p, Queue: rt.QueuePriority}, part)
		if err != nil {
			return err
		}
		c.Start()
		voronoi.Compute(c, g, terms) // builds and attaches shards and slabs
		rep.rung(tr, fmt.Sprintf("runtime.p%d_voronoi", p), func() {
			stats[0] = c.Stats()
			voronoi.Compute(c, g, terms)
			stats[1] = c.Stats()
		})
		c.Close()
	}
	sent := stats[1].Sent - stats[0].Sent
	processed := stats[1].Processed - stats[0].Processed
	rep.set("runtime.msgs_sent", float64(sent))
	rep.set("runtime.msgs_processed", float64(processed))
	rep.set("runtime.batches", float64(stats[1].Batches-stats[0].Batches))
	rep.set("runtime.relax_per_arc", float64(processed)/float64(g.NumArcs()))

	var bad error
	through := func(name string, sys system) {
		rep.rung(tr, name, func() {
			if _, ok := b.check(q, sys.solve(q)); !ok {
				bad = fmt.Errorf("ladder rung %s: wrong answer", name)
			}
		})
	}
	through("core.solvespec", ref)
	switch b.opt.workload.backend {
	case "tcp":
		through("core.solvespec.tcp", sys)
	case "http":
		// One shot: a second request would be a cache hit.
		t0 := time.Now()
		r := sys.solve(q)
		t1 := time.Now()
		a, ok := b.check(q, r)
		if !ok {
			bad = fmt.Errorf("ladder rung http.roundtrip: wrong answer")
		}
		tr.request("http", ladderLane, -1, t0, t1, a)
		rep.Ladder = append(rep.Ladder, rung{"http.roundtrip", ms(t1.Sub(t0))})
	}
	return bad
}

// rung times fn ladderReps times and appends the median to the ladder. The
// sequential rungs are also per-layer metrics of their own.
func (rep *report) rung(tr *tracer, name string, fn func()) {
	var runs []float64
	for i := 0; i < ladderReps; i++ {
		runs = append(runs, ms(tr.time(name, fn)))
	}
	rep.Ladder = append(rep.Ladder, rung{name, median(runs)})
	if _, ok := units[name+"_ms"]; ok {
		rep.set(name+"_ms", median(runs))
	}
}

// microLayers times the layers that have no query-shaped seam, on inputs of
// the size this workload gives them: the shard substrate every engine cuts at
// setup, the rank queue, the phase-4 MST and (for a TCP system) the codec.
func (rep *report) microLayers(b *bench, tr *tracer, terms []graph.VID) {
	g := b.g
	rng := rand.New(rand.NewSource(b.opt.seed))

	var plan *partition.ShardPlan
	var shards []*graph.Shard
	d := tr.time("partition.shardplan", func() {
		part, err := partition.NewArcBlock(g, ranks)
		if err != nil {
			panic(err) // the engines above were built from the same call
		}
		if plan, err = partition.NewShardPlan(part, g); err != nil {
			panic(err)
		}
		shards = plan.BuildShards(g)
	})
	rep.set("partition.shardplan_ms", ms(d))
	d = tr.time("voronoi.buildslabs", func() { voronoi.BuildSlabs(plan, shards) })
	rep.set("voronoi.buildslabs_ms", ms(d))

	d = tr.time("seeds.select", func() { _, _ = seeds.Select(g, len(terms), seeds.UniformRandom, b.opt.seed) })
	rep.set("seeds.select_ms", ms(d))

	// The rank queue: as many keys as a two-rank traversal processed
	// messages, drawn from the distances this graph's weights produce.
	n := int(rep.Metrics["runtime.msgs_processed"].Value)
	_, maxW := g.WeightRange()
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(rng.Int63n(16 * int64(maxW)))
	}
	h := pq.NewHeap[int32](n)
	d = tr.time("pq.heap", func() {
		for i, k := range keys {
			h.Push(int32(i), k)
		}
		for h.Len() > 0 {
			h.Pop()
		}
	})
	if n > 0 {
		rep.set("pq.heap_ns_per_op", float64(d.Nanoseconds())/float64(2*n))
	}

	// Phase 4's sequential floor: Kruskal on as many terminals and as many
	// distance-graph edges as the engine saw.
	k := len(terms)
	wedges := make([]mst.WEdge, int(rep.Metrics["core.distgraph_edges"].Value))
	for i := range wedges {
		wedges[i] = mst.WEdge{U: int32(rng.Intn(k)), V: int32(rng.Intn(k)), W: graph.Dist(rng.Int63n(16 * int64(maxW)))}
	}
	d = tr.time("mst.kruskal", func() { mst.Kruskal(k, wedges) })
	rep.set("mst.kruskal_ms", ms(d))

	if b.opt.workload.backend == "tcp" {
		rep.wireLayer(tr, g, terms, rng)
	}
}

// wireLayer times the v2 batch codec on 512-message batches that look like
// phase-1 traffic: relaxation offers from random vertices to their neighbours.
func (rep *report) wireLayer(tr *tracer, g *graph.Graph, terms []graph.VID, rng *rand.Rand) {
	const batches, size = 256, 512
	_, maxW := g.WeightRange()
	msgs := make([][]rt.Msg, batches)
	for i := range msgs {
		for len(msgs[i]) < size {
			v := graph.VID(rng.Intn(g.NumVertices()))
			seed := terms[rng.Intn(len(terms))]
			base := graph.Dist(rng.Int63n(16 * int64(maxW)))
			ts, ws := g.Adj(v)
			for j, u := range ts {
				if len(msgs[i]) < size {
					msgs[i] = append(msgs[i], rt.Msg{Target: u, From: v, Seed: seed, Dist: base + graph.Dist(ws[j])})
				}
			}
		}
	}
	frames := make([][]byte, batches)
	var kept, bytes int
	enc := tr.time("wire.encode", func() {
		for i, m := range msgs {
			var elided int
			frames[i], elided = wire.AppendMsgBatch2(nil, 1, m)
			kept += len(m) - elided
			bytes += len(frames[i])
		}
	})
	var buf []rt.Msg
	dec := tr.time("wire.decode", func() {
		for _, f := range frames {
			var err error
			if _, buf, err = wire.DecodeMsgBatch2(f[1:], buf[:0]); err != nil { // past the frame-type byte
				panic(err) // decoding what was just encoded
			}
		}
	})
	rep.set("wire.encode_ns_per_msg", float64(enc.Nanoseconds())/float64(batches*size))
	rep.set("wire.decode_ns_per_msg", float64(dec.Nanoseconds())/float64(kept))
	rep.set("wire.bytes_per_msg", float64(bytes)/float64(kept))
}
