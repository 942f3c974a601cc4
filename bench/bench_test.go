package main

import (
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"

	"dsteiner/internal/graph"
)

// declared is the shape of ../BENCHMARK.json.
type declared struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

func tinyRun(t *testing.T, name string, seed int64, trace bool) *report {
	t.Helper()
	rep, err := run(runOptions{workload: findWorkload(name), seed: seed, seconds: 0.1, trace: trace, tiny: true, outDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
		t.Fatalf("%s: %d of %d answers wrong: %v", name, rep.Failed, rep.Attempted, rep.Failures)
	}
	return rep
}

// Every workload runs end to end and traced, and reports exactly the metrics
// BENCHMARK.json declares, each with its declared unit.
func TestSmokeEmitsDeclaredMetrics(t *testing.T) {
	d := readDeclared(t)
	okName := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(d.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if dw := d.Workloads[i]; dw.Name != w.name || dw.Why != w.why || len(w.why) > 200 {
			t.Errorf("workload %d is %q (%q) in BENCHMARK.json, %q (%q) here", i, dw.Name, dw.Why, w.name, w.why)
		}
		e2e := tinyRun(t, w.name, 1, false)
		if len(e2e.Metrics) != len(d.EndToEnd) {
			t.Errorf("%s: %d end-to-end metrics emitted, %d declared", w.name, len(e2e.Metrics), len(d.EndToEnd))
		}
		for _, m := range d.EndToEnd {
			got, ok := e2e.Metrics[m.Name]
			if !ok || got.Unit != m.Unit || !okName.MatchString(m.Name) {
				t.Errorf("%s: end-to-end metric %q: emitted %v as %+v, declared unit %q", w.name, m.Name, ok, got, m.Unit)
			}
			if got.Value <= 0 {
				t.Errorf("%s: end-to-end metric %q reads %v", w.name, m.Name, got.Value)
			}
		}
		layers := tinyRun(t, w.name, 1, true)
		if len(layers.Metrics) != len(d.PerLayer) {
			t.Errorf("%s: %d per-layer metrics emitted, %d declared", w.name, len(layers.Metrics), len(d.PerLayer))
		}
		for _, m := range d.PerLayer {
			got, ok := layers.Metrics[m.Name]
			if !ok || got.Unit != m.Unit || !okName.MatchString(m.Name) {
				t.Errorf("%s: per-layer metric %q: emitted %v as %+v, declared unit %q", w.name, m.Name, ok, got, m.Unit)
			}
		}
		checkAttribution(t, w, layers)
	}
	for i, m := range endToEnd {
		dm := d.EndToEnd[i]
		better := map[bool]string{true: "higher", false: "lower"}[m.higherBetter]
		if dm.Name != m.name || dm.Unit != m.unit || dm.Better != better || dm.Bound != m.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, compare.go has %+v", i, dm, m)
		}
	}
}

// checkAttribution holds the traced run to its promises: engine time adds
// up, and the layers a workload does not touch read zero.
func checkAttribution(t *testing.T, w *workload, rep *report) {
	t.Helper()
	v := func(name string) float64 { return rep.Metrics[name].Value }
	sum := v("core.self_ms")
	for _, p := range []string{"1", "2", "3", "4", "5", "6"} {
		sum += v("core.phase" + p + "_ms")
	}
	if solve := v("core.solve_ms"); solve <= 0 || sum < 0.99*solve || sum > 1.01*solve {
		t.Errorf("%s: self + phases = %v ms, core.solve_ms = %v", w.name, sum, solve)
	}
	for name := range rep.Metrics {
		layer, _, _ := strings.Cut(name, ".")
		zero := (layer == "transport" || layer == "wire") && w.backend != "tcp" ||
			layer == "steinersvc" && w.backend != "http"
		if zero && v(name) != 0 {
			t.Errorf("%s: %s = %v on a workload that bypasses %s", w.name, name, v(name), layer)
		}
	}
	if w.backend == "tcp" && (v("transport.bytes_per_query") <= 0 || v("wire.bytes_per_msg") <= 0) {
		t.Errorf("%s: no transport traffic recorded", w.name)
	}
	if w.backend == "http" && (v("steinersvc.hit_frac") < 0.25 || v("steinersvc.hit_frac") > 0.35) {
		t.Errorf("%s: hit fraction %v, want 0.25-0.35", w.name, v("steinersvc.hit_frac"))
	}
	if len(rep.Ladder) < 7 {
		t.Errorf("%s: seam ladder has %d rungs", w.name, len(rep.Ladder))
	}
}

// The seed alone decides the requests.
func TestSeedDecidesQueries(t *testing.T) {
	a := tinyRun(t, "service-http", 5, false)
	b := tinyRun(t, "service-http", 5, false)
	c := tinyRun(t, "service-http", 6, false)
	if a.QueryDigest != b.QueryDigest || a.AnswerDigest != b.AnswerDigest {
		t.Errorf("seed 5 twice: queries %s / %s, answers %s / %s", a.QueryDigest, b.QueryDigest, a.AnswerDigest, b.AnswerDigest)
	}
	if a.QueryDigest == c.QueryDigest {
		t.Errorf("seeds 5 and 6 drew the same queries (%s)", a.QueryDigest)
	}
}

// A wrong answer of each kind is counted as failed.
func TestCorruptedAnswersAreCounted(t *testing.T) {
	b, err := prepare(runOptions{workload: findWorkload("grid-manyterm-modes"), seed: 3, tiny: true})
	if err != nil {
		t.Fatal(err)
	}
	sys, _, err := b.open()
	if err != nil {
		t.Fatal(err)
	}
	defer sys.close()
	chunk := b.next()
	b.round(sys, chunk, nil)
	if b.failed != 0 {
		t.Fatalf("clean answers failed: %v", b.failures)
	}
	tree, forest, prize := chunk[0], chunk[1], chunk[4]
	corrupt := func(name string, q *query, change func(a *reply)) {
		t.Helper()
		rep := sys.solve(q)
		cp := *rep.res
		rep.res = &cp
		change(&rep)
		before := b.failed
		if _, ok := b.check(q, rep); ok || b.failed != before+1 {
			t.Errorf("%s went uncounted", name)
		}
	}
	corrupt("a dropped tree edge", tree, func(r *reply) {
		r.res.Tree = r.res.Tree[1:]
		r.res.Objective -= graph.Dist(r.res.Tree[0].W)
	})
	joined := sys.solve(treeQuery(forest.terms)) // one tree through every group
	corrupt("an edge between forest groups", forest, func(r *reply) {
		r.res.Tree, r.res.Objective = joined.res.Tree, joined.res.Objective
	})
	corrupt("a wrong prize objective", prize, func(r *reply) { r.res.Objective++ })
	corrupt("an answer that changed between rounds", tree, func(r *reply) {
		r.res = sys.solve(chunk[2]).res
	})
	if frac := float64(b.failed) / float64(b.attempted); frac <= 0 {
		t.Errorf("failed fraction %v after four wrong answers", frac)
	}
}

// A TCP fleet whose answer is not the loopback answer is caught.
func TestCrossCheckCatchesDigestMismatch(t *testing.T) {
	b, err := prepare(runOptions{workload: findWorkload("traverse-tcp"), seed: 3, tiny: true})
	if err != nil {
		t.Fatal(err)
	}
	sys, _, err := b.open()
	if err != nil {
		t.Fatal(err)
	}
	defer sys.close()
	chunk := b.next()
	b.round(sys, chunk, nil)
	if err := b.crossCheck(chunk); err != nil || b.failed != 0 {
		t.Fatalf("TCP and in-process answers differ on a clean run: %v %v", err, b.failures)
	}
	chunk[1].firstDigest = "what a broken fleet might have said"
	if err := b.crossCheck(chunk); err != nil || b.failed != 1 {
		t.Fatalf("mismatch went unnoticed: err %v, %d failed", err, b.failed)
	}
	if d := crossDigest([]*report{{Workload: "traverse-inproc", AnswerDigest: "a"}, {Workload: "traverse-tcp", AnswerDigest: "b"}}); d == "" {
		t.Error("crossDigest accepted two different digests")
	}
}

func TestCompareVerdicts(t *testing.T) {
	mk := func(slowdown []float64, failed int) side {
		s := side{}
		for _, w := range workloads {
			for _, v := range slowdown {
				m := map[string]metric{}
				for _, e := range endToEnd {
					m[e.name] = metric{10, e.unit}
				}
				m["slowdown_vs_seq"] = metric{v, "ratio"}
				s[w.name] = append(s[w.name], &report{Workload: w.name, Metrics: m, Attempted: 100, Failed: failed})
			}
		}
		return s
	}
	base := mk([]float64{10, 10.1, 10.2}, 0)
	cases := []struct {
		name string
		b    side
		want string
		code int
	}{
		{"same", mk([]float64{10.1, 10.2, 10.3}, 0), "unchanged", 0},
		{"slower", mk([]float64{13, 13.1, 13.2}, 0), "worse", 1},
		{"faster", mk([]float64{7, 7.1, 7.2}, 0), "better", 0},
		{"noisy", mk([]float64{7, 10, 14}, 0), "unresolved", 0},
		{"failing", mk([]float64{10, 10.1, 10.2}, 1), "unchanged", 1},
	}
	for _, c := range cases {
		var out strings.Builder
		code := compareSides(base, c.b, &out)
		row := regexp.MustCompile(`traverse-inproc +slowdown_vs_seq .* (\w+)\n`).FindStringSubmatch(out.String())
		if row == nil || row[1] != c.want || code != c.code {
			t.Errorf("%s: verdict %v exit %d, want %s exit %d\n%s", c.name, row, code, c.want, c.code, out.String())
		}
	}
}
