// Command perfbench is the repository's benchmark. It drives the shipped
// compressor and daemon only through their public functions, checks every
// timed operation for correctness, and prints one JSON result line.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload nek-st4 --seed 1 --seconds 35 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics of
// BENCHMARK.json, measured with tracing off. With --trace 1 it carries the
// per-layer metrics: the run traces every second operation or request, with
// one root span each and a child span around every layer call, writes the
// spans as a Chrome trace under .bench_build/run/, and prints a per-layer
// self-time table. A human-readable report goes to standard error.
// The exit code is 1 when any check failed. See README.md for the workloads
// and the metric map.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"
)

// config is one invocation's settings.
type config struct {
	seed    int64
	measure time.Duration
	trace   bool
	outDir  string // run artifacts: server spool, Chrome traces
}

// workload runs one benchmark workload into rep. layers are the layers
// (metric name prefixes) its traced run measures; it bypasses the others,
// whose per-layer metrics read 0.
type workload struct {
	name   string
	run    func(cfg config, rep *report) error
	layers []string
}

var workloads = []workload{
	{"nek-st4", nekST4.run, nekST4.layers},
	{"hurricane-nospec", hurricaneNoSpec.run, hurricaneNoSpec.layers},
	{"ocean-serve", runOceanServe, serveLayers},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: nek-st4, hurricane-nospec or ocean-serve")
	seed := fs.Int64("seed", 1, "input seed: crop origin (kernel workloads) or request order (ocean-serve)")
	seconds := fs.Int("seconds", 20, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s), --seconds >= 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	spec, err := readSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	cfg := config{seed: *seed, measure: time.Duration(*seconds) * time.Second, trace: *trace == 1,
		outDir: filepath.Join(".bench_build", "run")}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}

	rep := newReport()
	if err := w.run(cfg, rep); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	rep.set("error_rate", float64(rep.failed)/float64(max(rep.attempted, 1)))
	want := spec.EndToEnd
	if cfg.trace {
		want = spec.PerLayer
		for _, m := range want {
			layer, _, _ := strings.Cut(m.Name, ".")
			if _, ok := rep.metrics[m.Name]; !ok && !slices.Contains(w.layers, layer) {
				rep.set(m.Name, 0)
			}
		}
	}
	line, err := rep.result(want)
	rep.print(stderr, w.name, cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, line)
	if len(rep.problems) > 0 || rep.failed > 0 {
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// metricSpec is one metric entry of BENCHMARK.json.
type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// readSpec loads the metric names and units the result line must carry.
// BENCHMARK.json is their single source, so the benchmark cannot print a
// metric the file does not declare, or skip one it does.
func readSpec(path string) (benchSpec, error) {
	var s benchSpec
	b, err := os.ReadFile(path)
	if err != nil {
		return s, fmt.Errorf("read metric list (run from the repository root): %w", err)
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("parse %s: %w", path, err)
	}
	return s, nil
}

// metric is one measured value. Sampled metrics keep their quartiles and
// sample count for the report; exact counts have n == 1.
type metric struct {
	value, q1, q3 float64
	n             int
}

// report collects one run's metrics and check outcomes.
type report struct {
	metrics   map[string]metric
	attempted int      // checked operations
	failed    int      // operations that failed a check
	problems  []string // run-level check failures and the first failed operations
	selfTable string   // traced runs: per-layer self-time table
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

// set records an exact or single-shot value.
func (r *report) set(name string, v float64) { r.setValue(name, v, 1) }

// setValue records a value computed from n samples, such as a high
// percentile, which has no quartiles of its own.
func (r *report) setValue(name string, v float64, n int) {
	r.metrics[name] = metric{value: v, q1: v, q3: v, n: n}
}

// setSample records the median of s, with its quartiles.
func (r *report) setSample(name string, s sample) {
	r.metrics[name] = metric{value: s.median(), q1: s.quantile(0.25), q3: s.quantile(0.75), n: len(s)}
}

// check counts one checked operation; a non-nil err fails it. The first
// few failures are kept verbatim for the report.
func (r *report) check(err error) {
	r.attempted++
	if err == nil {
		return
	}
	r.failed++
	if r.failed <= 5 {
		r.problems = append(r.problems, err.Error())
	}
}

// problem records a run-level check failure (accounting, health, output).
func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// result renders the JSON result line with exactly the metrics in want.
func (r *report) result(want []metricSpec) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: r.failed == 0 && len(r.problems) == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: map[string]value{}}
	var missing []string
	for _, m := range want {
		got, ok := r.metrics[m.Name]
		if !ok {
			missing = append(missing, m.Name)
			continue
		}
		out.Metrics[m.Name] = value{got.value, m.Unit}
	}
	if len(missing) > 0 {
		return "", fmt.Errorf("metrics declared in BENCHMARK.json but not measured: %s", strings.Join(missing, ", "))
	}
	if out.Attempted == 0 {
		return "", errors.New("no operation was attempted")
	}
	b, err := json.Marshal(out)
	return string(b), err
}

// print writes the human-readable report: every measured metric with its
// quartiles and sample count, the checks, and the self-time table.
func (r *report) print(w io.Writer, name string, cfg config) {
	mode := "untraced"
	if cfg.trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%.0f %s\n", name, cfg.seed, cfg.measure.Seconds(), mode)
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "  %-28s %14s %14s %14s %5s\n", "metric", "median", "q1", "q3", "n")
	for _, n := range names {
		m := r.metrics[n]
		fmt.Fprintf(w, "  %-28s %14.6g %14.6g %14.6g %5d\n", n, m.value, m.q1, m.q3, m.n)
	}
	fmt.Fprintf(w, "  checked operations: %d, failed: %d\n", r.attempted, r.failed)
	for _, p := range r.problems {
		fmt.Fprintf(w, "  CHECK FAILED: %s\n", p)
	}
	if r.selfTable != "" {
		fmt.Fprint(w, r.selfTable)
	}
}
