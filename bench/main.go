// Command bench is the repository's benchmark: four Steiner-query workloads,
// each timed against a frozen sequential yardstick run right after it, and a
// traced run that attributes the time to layers. See README.md.
//
//	bench -workload W -seed N -seconds S -trace 0|1   one workload, one result line
//	bench [-seed N] [-seconds S]                       all workloads, untraced then traced
//	bench compare A.json[,A2.json...] B.json[,...]     verdict per workload and metric
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"time"
)

// outDir is where results and traces go, relative to the repository root
// the benchmark is run from. It carries its own .gitignore.
const outDir = "bench/out"

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	name := flag.String("workload", "", "run only this workload and print its result line (default: all, each in a child process)")
	seed := flag.Int64("seed", 1, "drives every random choice: graphs, terminals, groups, penalties, request order")
	seconds := flag.Float64("seconds", 25, "how long a workload keeps measuring system instances")
	trace := flag.Int("trace", 0, "1: the traced per-layer run instead of the end-to-end one")
	scale := flag.String("scale", "", "\"tiny\" shrinks every graph for the smoke test; its numbers mean nothing")
	detail := flag.String("detail", "", "also write the full report of a -workload run, raw samples included, to this file")
	out := flag.String("out", "", "results file of an all-workloads run (default bench/out/results-<unix time>.json)")
	flag.Parse()
	if flag.NArg() > 0 || (*scale != "" && *scale != "tiny") || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	if *name == "" {
		os.Exit(runAll(*seed, *seconds, *scale, *out))
	}
	w := findWorkload(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	opt := runOptions{workload: w, seed: *seed, seconds: *seconds, trace: *trace == 1, tiny: *scale == "tiny",
		detail: *detail, outDir: outDir}
	rep, err := run(opt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	rep.print(os.Stdout)
	if !rep.Correct {
		os.Exit(1)
	}
}

// run is one workload run, traced or not, with its detail file if asked for.
func run(opt runOptions) (*report, error) {
	do := measure
	if opt.trace {
		do = traced
	}
	rep, err := do(opt)
	if err != nil {
		return nil, err
	}
	if opt.detail != "" {
		if err := rep.writeDetail(opt.detail); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// results is the file an all-workloads run leaves behind and compare reads.
type results struct {
	Seed    int64     `json:"seed"`
	Seconds float64   `json:"seconds"`
	Started string    `json:"started"`
	Runs    []*report `json:"runs"`
}

// runAll runs every workload untraced and then traced, each run in a child
// process of its own so that set-up time, garbage-collector state and peak
// memory belong to one workload, and gathers the children's reports.
func runAll(seed int64, seconds float64, scale, out string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	res := results{Seed: seed, Seconds: seconds, Started: time.Now().UTC().Format(time.RFC3339)}
	if out == "" {
		out = filepath.Join(outDir, fmt.Sprintf("results-%d.json", time.Now().Unix()))
	}
	tmp := out + ".part"
	defer os.Remove(tmp)
	code := 0
	for trace := 0; trace <= 1; trace++ {
		for _, w := range workloads {
			cmd := exec.Command(self, "-workload", w.name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
				"-trace", fmt.Sprint(trace), "-scale", scale, "-detail", tmp)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s (trace %d): %v\n", w.name, trace, err)
				code = 1
			}
			var rep report
			if b, err := os.ReadFile(tmp); err == nil && json.Unmarshal(b, &rep) == nil {
				res.Runs = append(res.Runs, &rep)
			}
			os.Remove(tmp)
		}
	}
	if d := crossDigest(res.Runs); d != "" {
		fmt.Fprintln(os.Stderr, "bench:", d)
		code = 1
	}
	b, err := json.MarshalIndent(res, "", " ")
	if err == nil {
		err = os.WriteFile(out, b, 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Printf("# results written to %s\n", out)
	return code
}

// crossDigest holds the two traverse workloads to one another: same seed,
// same graph, same queries, so the answers must be the same bytes.
func crossDigest(runs []*report) string {
	digests := map[string]string{}
	for _, r := range runs {
		if !r.Trace {
			digests[r.Workload] = r.AnswerDigest
		}
	}
	a, b := digests["traverse-inproc"], digests["traverse-tcp"]
	if a != "" && b != "" && a != b {
		return fmt.Sprintf("traverse-tcp answers (%s) differ from traverse-inproc's (%s)", b, a)
	}
	return ""
}
