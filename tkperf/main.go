// Command tkperf is the repository's benchmark: one driver that times the
// simulator and the service end to end, attributes the time to layers in
// a separate traced run, and checks every output it measures.
//
// Three workloads exercise different layers:
//
//	sweep    tkexp figures fig1, fig13 and fig19 over all 26 benchmarks
//	sampled  exact versus fixed-period sampled runs of the tkbench set
//	serve    a two-node tkserve fleet, cold start, restart, replay
//
// Usage (run.sh builds the driver, tkserve, tkexp and tksim, then execs
// this):
//
//	bash tkperf/run.sh --workload sweep --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are every end-to-end metric, measured on the workload with no
// spans recorded; with --trace 1 they are every per-layer metric, from a
// traced run of the workload followed by smoke-scale traced runs of the
// other workloads for the layers it does not exercise. Diagnostics go to
// standard error. The exit code is 1 when any output check fails and 2
// when the driver cannot run at all. See README.md for every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// config is what every workload receives.
type config struct {
	seed    uint64
	seconds float64
	smoke   bool // seconds-long reduced scale, for the driver's own tests

	root   string // repository checkout (testdata/golden lives here)
	binDir string // tkserve, tkexp and tksim built from the checkout
	work   string // scratch directory for stores, logs and spans
}

// report collects one run's counts, metrics and failures.
type report struct {
	attempted int
	failed    int
	e2e       map[string]float64
	layer     map[string]float64
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// fail counts one failed run, request or check and says why on stderr.
func (r *report) fail(format string, args ...any) {
	r.failed++
	fmt.Fprintf(os.Stderr, "tkperf: FAIL: "+format+"\n", args...)
}

// workloads maps each workload name to its driver. A driver returns an
// error only when it cannot run at all; failed runs and checks go into
// the report.
var workloads = map[string]func(config, *tracer) (*report, error){
	"sweep":   runSweep,
	"sampled": runSampled,
	"serve":   runServe,
}

func main() { os.Exit(run()) }

func run() int {
	var (
		name    = flag.String("workload", "", "workload: sweep | sampled | serve")
		seed    = flag.Uint64("seed", 1, "benchmark seed: fixes simulation seeds and request order")
		seconds = flag.Float64("seconds", 10, "minimum measured time per run")
		traced  = flag.Int("trace", 0, "0: end-to-end metrics, no spans; 1: per-layer metrics from a traced run")
		root    = flag.String("root", ".", "repository checkout")
		binDir  = flag.String("bin", "", "directory holding the tkserve, tkexp and tksim binaries")
		work    = flag.String("work", "", "scratch directory inside the checkout")
	)
	flag.Parse()
	if os.Getenv("TK_AUDIT") != "" {
		// Audit mode silently forces the reference engine on every run,
		// so the numbers would not describe the program users run.
		fmt.Fprintln(os.Stderr, "tkperf: refusing to run with TK_AUDIT set")
		return 2
	}
	drive, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "tkperf: unknown -workload %q (want sweep, sampled or serve)\n", *name)
		return 2
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintf(os.Stderr, "tkperf: -trace must be 0 or 1, got %d\n", *traced)
		return 2
	}
	if *work == "" {
		*work = filepath.Join(*root, ".bench_build", "work")
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "tkperf: %v\n", err)
		return 2
	}
	cfg := config{seed: *seed, seconds: *seconds, root: *root, binDir: *binDir, work: *work}

	var tr *tracer
	if *traced == 1 {
		tr = newTracer()
	}
	rep, err := drive(cfg, tr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tkperf: %s: %v\n", *name, err)
		return 2
	}
	if tr != nil {
		path := filepath.Join(*work, fmt.Sprintf("spans-%s-seed%d.jsonl", *name, *seed))
		if err := tr.write(path); err != nil {
			fmt.Fprintf(os.Stderr, "tkperf: writing spans: %v\n", err)
			return 2
		}
		fmt.Fprintf(os.Stderr, "tkperf: %d spans written to %s\n", len(tr.spans), path)
		tr.printSelfTimes(os.Stderr)
		// The traced run's end-to-end numbers, for the tracing overhead
		// (traced minus untraced); they are not part of the result line.
		printMetrics(os.Stderr, "end-to-end (traced run)", rep.e2e)
		if err := fillLayers(cfg, *name, rep); err != nil {
			fmt.Fprintf(os.Stderr, "tkperf: %v\n", err)
			return 2
		}
	}

	metrics, want := rep.e2e, endToEnd
	if tr != nil {
		metrics, want = rep.layer, perLayer
	}
	out := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{rep.failed == 0, rep.attempted, rep.failed, map[string]metricValue{}}
	for k, u := range want {
		v, ok := metrics[k]
		if !ok {
			fmt.Fprintf(os.Stderr, "tkperf: %s measured no metric %q\n", *name, k)
			return 2
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			// Only failed runs leave a metric without samples.
			fmt.Fprintf(os.Stderr, "tkperf: FAIL: metric %q is %v\n", k, v)
			out.Correct, out.Failed = false, out.Failed+1
			continue
		}
		out.Metrics[k] = metricValue{v, u}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tkperf: %v\n", err)
		return 2
	}
	fmt.Println(string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

// workloadOrder is the order in which fillLayers runs the other
// workloads.
var workloadOrder = []string{"sweep", "sampled", "serve"}

// fillLayers runs every workload but name at smoke scale, traced, and
// adds to rep each per-layer metric rep lacks, with their attempts and
// failures: a traced run reports every per-layer metric, and the layers
// a workload does not exercise are measured on the workload that does.
// Their spans are not written; the span file describes name alone.
func fillLayers(cfg config, name string, rep *report) error {
	smoke := cfg
	smoke.smoke = true
	for _, other := range workloadOrder {
		if other == name {
			continue
		}
		r, err := workloads[other](smoke, newTracer())
		if err != nil {
			return fmt.Errorf("%s at smoke scale: %w", other, err)
		}
		rep.attempted += r.attempted
		rep.failed += r.failed
		for k, v := range r.layer {
			if _, ok := rep.layer[k]; !ok {
				rep.layer[k] = v
			}
		}
	}
	return nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printMetrics(f *os.File, title string, m map[string]float64) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(f, "tkperf: %s\n", title)
	for _, k := range names {
		fmt.Fprintf(f, "  %-28s %14.6g %s\n", k, m[k], unitOf(k))
	}
}

// unitOf is the unit of any metric the driver prints.
func unitOf(name string) string {
	if u, ok := endToEnd[name]; ok {
		return u
	}
	return perLayer[name]
}
