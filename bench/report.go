package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

// perLayerNames is BENCHMARK.json's per_layer list in print order and units
// the unit of every declared metric, end-to-end ones included. An untraced
// run reports exactly the endToEnd table, a traced run exactly perLayerNames;
// the smoke test holds both to the file.
var perLayerNames, units = func() ([]string, map[string]string) {
	var names []string
	units := map[string]string{}
	for _, row := range strings.Split(strings.TrimSpace(perLayerTable), "\n") {
		f := strings.Fields(row)
		names = append(names, f[0])
		units[f[0]] = f[1]
	}
	for _, m := range endToEnd {
		units[m.name] = m.unit
	}
	return names, units
}()

// perLayerTable is name and unit of every per-layer metric; the layer is the
// module name before the dot.
const perLayerTable = `
partition.shardplan_ms ms
voronoi.buildslabs_ms ms
core.newengine_ms ms
transport.handshake_ms ms
yardstick.solve_ms ms
baseline.mehlhorn_ms ms
sssp.multisource_ms ms
voronoi.sequential_ms ms
runtime.p1_voronoi_ms ms
runtime.p2_voronoi_ms ms
runtime.msgs_sent count
runtime.msgs_processed count
runtime.batches count
runtime.relax_per_arc ratio
pq.heap_ns_per_op ns
core.solve_ms ms
core.phase1_ms ms
core.phase2_ms ms
core.phase3_ms ms
core.phase4_ms ms
core.phase5_ms ms
core.phase6_ms ms
core.self_ms ms
core.phase1_sent count
core.phase2_sent count
core.phase6_sent count
core.phase1_imbalance ratio
core.distgraph_edges count
core.mst_rounds count
core.fragment_msgs count
core.alloc_kb_per_query KB
mst.kruskal_ms ms
wire.encode_ns_per_msg ns
wire.decode_ns_per_msg ns
wire.bytes_per_msg B
transport.solve_ms ms
transport.tax ratio
transport.bytes_per_query B
transport.frames_per_query count
transport.codec_ms ms
transport.small_flush_frac fraction
steinersvc.miss_ms ms
steinersvc.overhead_ms ms
steinersvc.hit_ms ms
steinersvc.hit_frac fraction
steinersvc.coalesced count
steinersvc.response_kb KB
gen.build_s s
seeds.select_ms ms
trace.overhead_frac fraction
env.steal_frac fraction
`

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// environment is where a run happened, so that a noisy run is recognisable
// after the fact.
type environment struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	WallS      float64 `json:"wall_s"`
	StealFrac  float64 `json:"steal_frac"`

	start        time.Time
	total, steal float64 // /proc/stat ticks at start
}

// startEnvironment notes where and when a run starts; finish closes it.
func startEnvironment() environment {
	total, steal := cpuTicks()
	return environment{
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		start:      time.Now(),
		total:      total,
		steal:      steal,
	}
}

// report is everything one workload run has to say. The last line it prints
// is the contract's result object; the rest goes to the -detail file.
type report struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	Tiny     bool    `json:"tiny,omitempty"`

	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`

	Metrics map[string]metric `json:"metrics"`
	order   []string

	// Info is the informational block of an untraced run: what a user
	// would also look at but what carries no bound, because on a shared
	// box it does not repeat within one.
	Info []infoMetric `json:"info,omitempty"`
	// Series holds, per end-to-end metric taken over system instances, the
	// per-instance values: the two modes of an in-process engine show here.
	Series    map[string][]float64 `json:"series,omitempty"`
	Instances []instanceSample     `json:"instances"`

	Ladder    []rung `json:"ladder,omitempty"`
	TraceFile string `json:"trace_file,omitempty"`

	// QueryDigest fingerprints the generated requests (prime and the
	// first instance's chunk), AnswerDigest the system's answers to them.
	QueryDigest  string      `json:"query_digest"`
	AnswerDigest string      `json:"answer_digest"`
	Env          environment `json:"env"`
}

// infoMetric is one line of the informational block.
type infoMetric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (b *bench) newReport(samples []instanceSample) *report {
	return &report{
		Workload:  b.opt.workload.name,
		Seed:      b.opt.seed,
		Seconds:   b.opt.seconds,
		Trace:     b.opt.trace,
		Tiny:      b.opt.tiny,
		Metrics:   map[string]metric{},
		Instances: samples,
	}
}

// finish records the verdict once every answer has been checked, and how
// long the run took on how disturbed a box.
func (rep *report) finish(b *bench, firstChunk []*query, env environment) {
	env.Commit = b.commit()
	env.WallS = time.Since(env.start).Seconds()
	if total, steal := cpuTicks(); total > env.total {
		env.StealFrac = (steal - env.steal) / (total - env.total)
	}
	rep.Env = env
	rep.Correct = b.failed == 0
	rep.Attempted, rep.Failed, rep.Failures = b.attempted, b.failed, b.failures
	qh, ah := sha256.New(), sha256.New()
	for _, q := range slices.Concat(b.prime, firstChunk) {
		qh.Write(q.body)
		io.WriteString(ah, q.firstDigest)
	}
	rep.QueryDigest = hex.EncodeToString(qh.Sum(nil)[:12])
	rep.AnswerDigest = hex.EncodeToString(ah.Sum(nil)[:12])
}

// set records a declared metric. A ratio whose denominator was zero reads 0.
func (rep *report) set(name string, value float64) {
	unit, ok := units[name]
	if !ok {
		panic("undeclared metric " + name)
	}
	if math.IsNaN(value) || math.IsInf(value, 0) {
		value = 0
	}
	if _, ok := rep.Metrics[name]; !ok {
		rep.order = append(rep.order, name)
	}
	rep.Metrics[name] = metric{value, unit}
}

// commit is the checked-out commit, or "unknown" outside a git checkout.
// Only a run that keeps a detail file asks git.
func (b *bench) commit() string {
	if b.opt.detail == "" {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// print writes every metric by name with its unit, the seam ladder of a
// traced run, and last the one-line result object.
func (rep *report) print(w io.Writer) {
	fmt.Fprintf(w, "# %s seed=%d trace=%v instances=%d wall=%.1fs steal=%.3f\n",
		rep.Workload, rep.Seed, rep.Trace, len(rep.Instances), rep.Env.WallS, rep.Env.StealFrac)
	for _, name := range rep.order {
		m := rep.Metrics[name]
		fmt.Fprintf(w, "%-28s %14.6g %s\n", name, m.Value, m.Unit)
	}
	if len(rep.Info) > 0 {
		fmt.Fprintf(w, "# informational (no bound)\n")
		for _, m := range rep.Info {
			fmt.Fprintf(w, "%-28s %14.6g %s\n", m.Name, m.Value, m.Unit)
		}
	}
	if len(rep.Ladder) > 0 {
		fmt.Fprintf(w, "# seam ladder (one tree query, ms, step from the rung above)\n")
		for i, r := range rep.Ladder {
			step := ""
			if i > 0 {
				step = fmt.Sprintf("%+12.3f", r.MS-rep.Ladder[i-1].MS)
			}
			fmt.Fprintf(w, "%-28s %14.3f %s\n", r.Name, r.MS, step)
		}
	}
	for _, f := range rep.Failures {
		fmt.Fprintf(w, "# FAILED: %s\n", f)
	}
	last, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, rep.Metrics})
	if err != nil {
		panic(err) // numbers and strings
	}
	fmt.Fprintf(w, "%s\n", last)
}

// writeDetail saves the whole report, raw samples included.
func (rep *report) writeDetail(path string) error {
	out, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, out, 0o644)
}
