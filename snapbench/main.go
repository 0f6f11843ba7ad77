// Command snapbench is SNAP's benchmark: it runs one named workload from a
// seed for a fixed time, checks the program's outputs, and prints every
// metric by name with its unit. The last line of standard output is one
// JSON object {"correct", "attempted", "failed", "metrics"}.
//
//	snapbench --workload sim-svm60 --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// reports the per-layer metrics from a traced run (see layers.json). The
// repeat and compare subcommands (see repeat.go) run it many times.
//
// A failed output check makes the command exit non-zero.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// workloads lists the workloads BENCHMARK.json names, in its order.
var workloads = []string{"sim-svm60", "tcp-mlp3"}

// unlisted are workloads that run by name but are not in BENCHMARK.json.
// tcp-svm-serve (a trained-while-serving edge node) is one: on a shared
// 2-vCPU host its round_p95_ms spread between sets of runs of the same
// code by as much as its bound.
var unlisted = []string{"tcp-svm-serve"}

type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a --trace 0 run reports, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"time_to_target_s", "s"},
	{"rounds_to_target", "rounds"},
	{"bytes_to_target", "bytes"},
	{"samples_per_s", "1/s"},
	{"round_p50_ms", "ms"},
	{"round_p95_ms", "ms"},
	{"accuracy", "ratio"},
	{"predict_p50_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

type metricVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the final JSON line.
type report struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricVal `json:"metrics"`
}

// collector gathers a run's metrics, operation counts and failed checks.
type collector struct {
	metrics   map[string]metricVal
	attempted int64
	failed    int64
	late      int64 // operations that succeeded but over their latency limit
	problems  []string
}

func newCollector() *collector { return &collector{metrics: map[string]metricVal{}} }

func (c *collector) set(name, unit string, v float64) {
	c.metrics[name] = metricVal{Value: v, Unit: unit}
}

// check records a failed output check unless ok.
func (c *collector) check(ok bool, format string, args ...any) {
	if !ok {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
}

// finish validates the metric set against defs and renders the report.
func (c *collector) finish(defs []metricDef) report {
	for _, d := range defs {
		m, ok := c.metrics[d.name]
		c.check(ok, "metric %s not measured", d.name)
		if ok {
			c.check(m.Unit == d.unit, "metric %s has unit %q, want %q", d.name, m.Unit, d.unit)
			c.check(isFinite(m.Value), "metric %s is %v", d.name, m.Value)
		}
	}
	out := map[string]metricVal{}
	for _, d := range defs {
		if m, ok := c.metrics[d.name]; ok && isFinite(m.Value) {
			out[d.name] = m
		}
	}
	if c.attempted < 1 {
		c.attempted = 1
		c.problems = append(c.problems, "no operation attempted")
	}
	return report{Correct: len(c.problems) == 0, Attempted: c.attempted, Failed: c.failed, Metrics: out}
}

func main() {
	if len(os.Args) > 1 && !strings.HasPrefix(os.Args[1], "-") {
		os.Exit(subcommand(os.Args[1], os.Args[2:]))
	}
	os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
}

func runMain(args []string, stdout, stderr io.Writer) int {
	cfg, err := parseRunFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "snapbench:", err)
		return 2
	}
	c := newCollector()
	if err := run(cfg, c); err != nil {
		fmt.Fprintf(stderr, "snapbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	rep := c.finish(defs)
	printTable(stdout, cfg, defs, rep, c.late)
	for _, p := range c.problems {
		fmt.Fprintln(stderr, "snapbench: check failed:", p)
	}
	if !rep.Correct {
		return 1
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "snapbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func parseRunFlags(args []string, stderr io.Writer) (runConfig, error) {
	fs := flag.NewFlagSet("snapbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	all := append(append([]string(nil), workloads...), unlisted...)
	workload := fs.String("workload", "", "workload name: "+strings.Join(all, ", "))
	seed := fs.Int64("seed", 1, "seed every input of the run derives from")
	seconds := fs.Float64("seconds", 20, "how long the run measures")
	traceOn := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return runConfig{}, err
	}
	if fs.NArg() > 0 {
		return runConfig{}, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	known := false
	for _, w := range all {
		known = known || w == *workload
	}
	if !known {
		return runConfig{}, fmt.Errorf("unknown workload %q (want one of %s)", *workload, strings.Join(all, ", "))
	}
	if *seconds <= 0 {
		return runConfig{}, errors.New("--seconds must be positive")
	}
	if *traceOn != 0 && *traceOn != 1 {
		return runConfig{}, errors.New("--trace must be 0 or 1")
	}
	return runConfig{workload: *workload, seed: *seed, seconds: *seconds, trace: *traceOn == 1}, nil
}

// run dispatches to the workload.
func run(cfg runConfig, c *collector) error {
	switch {
	case cfg.workload == "sim-svm60" && cfg.trace:
		return traceSim(cfg, c)
	case cfg.workload == "sim-svm60":
		return runSim(cfg, c)
	case cfg.trace:
		return traceTCP(cfg, c)
	default:
		return runTCP(cfg, c)
	}
}

func specFor(workload string) tcpSpec {
	if workload == "tcp-mlp3" {
		return specMLP3
	}
	return specServe
}

func printTable(w io.Writer, cfg runConfig, defs []metricDef, rep report, late int64) {
	mode := "end-to-end"
	if cfg.trace {
		mode = "per-layer (traced)"
	}
	fmt.Fprintf(w, "# snapbench %s seed=%d seconds=%g: %s metrics\n", cfg.workload, cfg.seed, cfg.seconds, mode)
	names := make([]string, 0, len(defs))
	for _, d := range defs {
		names = append(names, d.name)
	}
	if !cfg.trace {
		sort.Strings(names)
	}
	for _, n := range names {
		if m, ok := rep.Metrics[n]; ok {
			fmt.Fprintf(w, "#   %-34s %16.6g %s\n", n, m.Value, m.Unit)
		}
	}
	fmt.Fprintf(w, "#   correct=%v attempted=%d failed=%d late=%d\n", rep.Correct, rep.Attempted, rep.Failed, late)
}
