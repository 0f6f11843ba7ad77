package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Subcommands:
//
//	snapbench repeat  --workload W [--runs 10] [--seed0 1] [--seconds S] [--trace 0|1] [--out runs.jsonl]
//	snapbench compare --base DIR --workload W [--pairs 10] [--seed0 1] [--seconds S] [--out pairs.jsonl]
//
// repeat runs the benchmark --runs times, each in its own process with
// its own seed, and prints each metric's median and quartiles. compare
// runs the benchmark alternately in DIR (a checkout of the parent commit)
// and in this checkout, pair by pair with a shared seed and alternating
// which side goes first, and judges every end-to-end metric by the
// choosing-metrics §8 rule and the metric's bound from BENCHMARK.json.
func subcommand(name string, args []string) int {
	var err error
	switch name {
	case "repeat":
		err = repeatCmd(args, os.Stdout)
	case "compare":
		err = compareCmd(args, os.Stdout)
	default:
		err = fmt.Errorf("unknown subcommand %q (want repeat or compare)", name)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "snapbench:", err)
		return 1
	}
	return 0
}

// runRecord is one benchmark process's outcome.
type runRecord struct {
	Side     string `json:"side,omitempty"`
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Report   report `json:"report"`
}

// runProcess runs one benchmark process in dir and parses its last line.
// An empty dir means this binary in the current directory.
func runProcess(dir, workload string, seed int64, seconds float64, trace int) (report, error) {
	args := []string{"--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace)}
	var cmd *exec.Cmd
	if dir == "" {
		self, err := os.Executable()
		if err != nil {
			return report{}, err
		}
		cmd = exec.Command(self, args...)
	} else {
		cmd = exec.Command("bash", append([]string{filepath.Join("snapbench", "run.sh")}, args...)...)
		cmd.Dir = dir
	}
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return report{}, fmt.Errorf("%s seed %d in %q: %w", workload, seed, dir, err)
	}
	return lastReport(out.Bytes())
}

func lastReport(out []byte) (report, error) {
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		return report{}, fmt.Errorf("parse result line: %w", err)
	}
	return rep, nil
}

func appendRecords(path string, recs []runRecord) error {
	if path == "" {
		return nil
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, r := range recs {
		if err := enc.Encode(r); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

func repeatCmd(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("repeat", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload name")
	runs := fs.Int("runs", 10, "number of runs, one seed each")
	seed0 := fs.Int64("seed0", 1, "first seed")
	seconds := fs.Float64("seconds", 20, "--seconds of each run")
	traceOn := fs.Int("trace", 0, "--trace of each run")
	out := fs.String("out", "", "append each run's record to this JSONL file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var recs []runRecord
	failed := 0
	for i := 0; i < *runs; i++ {
		seed := *seed0 + int64(i)
		rep, err := runProcess("", *workload, seed, *seconds, *traceOn)
		if err != nil {
			fmt.Fprintln(os.Stderr, "snapbench:", err)
			failed++
			continue
		}
		rec := runRecord{Workload: *workload, Seed: seed, Report: rep}
		recs = append(recs, rec)
		if err := appendRecords(*out, []runRecord{rec}); err != nil {
			return err
		}
	}
	printSpread(w, *workload, recs)
	if failed > 0 {
		return fmt.Errorf("%d of %d runs failed", failed, *runs)
	}
	return nil
}

// printSpread prints each metric's median, quartiles and IQR/median.
func printSpread(w io.Writer, workload string, recs []runRecord) {
	fmt.Fprintf(w, "%s: %d runs\n%-34s %14s %14s %14s %9s\n", workload, len(recs), "metric", "median", "q1", "q3", "iqr/med")
	for _, name := range metricNames(recs) {
		vals := metricValues(recs, name)
		q1, q2, q3 := quartiles(vals)
		fmt.Fprintf(w, "%-34s %14.6g %14.6g %14.6g %9.4f\n", name, q2, q1, q3, spread(q1, q2, q3))
	}
}

func spread(q1, q2, q3 float64) float64 {
	if q2 == 0 {
		if q3 == q1 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(q3-q1) / math.Abs(q2)
}

func metricNames(recs []runRecord) []string {
	seen := map[string]bool{}
	var names []string
	for _, r := range recs {
		for n := range r.Report.Metrics {
			if !seen[n] {
				seen[n] = true
				names = append(names, n)
			}
		}
	}
	sort.Strings(names)
	return names
}

func metricValues(recs []runRecord, name string) []float64 {
	var vals []float64
	for _, r := range recs {
		if m, ok := r.Report.Metrics[name]; ok {
			vals = append(vals, m.Value)
		}
	}
	return vals
}

// benchSpec is the part of BENCHMARK.json compare needs.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func compareCmd(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	base := fs.String("base", "", "checkout of the parent commit")
	workload := fs.String("workload", "", "workload name")
	pairs := fs.Int("pairs", 10, "number of alternating pairs")
	seed0 := fs.Int64("seed0", 1, "seed of the first pair")
	seconds := fs.Float64("seconds", 20, "--seconds of each run")
	spec := fs.String("spec", "BENCHMARK.json", "benchmark definition with the metric bounds")
	out := fs.String("out", "", "append each run's record to this JSONL file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *base == "" {
		return errors.New("compare needs --base")
	}
	raw, err := os.ReadFile(*spec)
	if err != nil {
		return err
	}
	var bs benchSpec
	if err := json.Unmarshal(raw, &bs); err != nil {
		return fmt.Errorf("parse %s: %w", *spec, err)
	}
	var baseRecs, headRecs []runRecord
	for i := 0; i < *pairs; i++ {
		seed := *seed0 + int64(i)
		order := []string{"base", "head"}
		if i%2 == 1 {
			order = []string{"head", "base"}
		}
		for _, side := range order {
			dir := ""
			if side == "base" {
				dir = *base
			}
			rep, err := runProcess(dir, *workload, seed, *seconds, 0)
			if err != nil {
				return err
			}
			rec := runRecord{Side: side, Workload: *workload, Seed: seed, Report: rep}
			if side == "base" {
				baseRecs = append(baseRecs, rec)
			} else {
				headRecs = append(headRecs, rec)
			}
			if err := appendRecords(*out, []runRecord{rec}); err != nil {
				return err
			}
		}
	}
	fmt.Fprintf(w, "%s: %d pairs\n%-20s %12s %12s %12s %12s %6s  %s\n", *workload, *pairs, "metric", "base med", "base iqr", "head med", "head iqr", "wins", "verdict")
	for _, m := range bs.EndToEnd {
		b, h := metricValues(baseRecs, m.Name), metricValues(headRecs, m.Name)
		v := judge(b, h, m.Better == "higher", m.Bound)
		bq1, bq2, bq3 := quartiles(b)
		hq1, hq2, hq3 := quartiles(h)
		fmt.Fprintf(w, "%-20s %12.6g %12.6g %12.6g %12.6g %3d/%-2d  %s\n", m.Name, bq2, bq3-bq1, hq2, hq3-hq1, v.wins, len(b), v.verdict)
	}
	return nil
}

type verdict struct {
	wins    int
	verdict string
}

// judge applies the choosing-metrics §8 rule to paired samples (b[i]
// and h[i] share a seed). A gain needs ≥ 9/10 pair wins and medians
// further apart than the base's IQR. Otherwise the head is a regression
// when its median is worse than the base's by more than bound, and
// "unresolved" when the base's own spread exceeds the bound, unless every
// head run beats every base run.
func judge(b, h []float64, higher bool, bound float64) verdict {
	n := min(len(b), len(h))
	better := func(x, y float64) bool { // x better than y
		if higher {
			return x > y
		}
		return x < y
	}
	wins := 0
	for i := 0; i < n; i++ {
		if better(h[i], b[i]) {
			wins++
		}
	}
	bq1, bmed, bq3 := quartiles(b)
	_, hmed, _ := quartiles(h)
	v := verdict{wins: wins}
	if n == 0 {
		v.verdict = "no data"
		return v
	}
	if float64(wins) >= 0.9*float64(n) && math.Abs(hmed-bmed) > bq3-bq1 {
		v.verdict = "better"
		return v
	}
	worse := hmed - bmed
	if higher {
		worse = -worse
	}
	if worse > bound*math.Abs(bmed) {
		v.verdict = fmt.Sprintf("WORSE by %.1f%% (bound %.0f%%)", 100*worse/math.Abs(bmed), 100*bound)
		return v
	}
	if spread(bq1, bmed, bq3) > bound && !dominates(h, b, better) {
		v.verdict = "unresolved (spread wider than bound)"
		return v
	}
	v.verdict = "unchanged within bound"
	return v
}

// dominates reports whether every h beats every b.
func dominates(h, b []float64, better func(x, y float64) bool) bool {
	for _, x := range h {
		for _, y := range b {
			if !better(x, y) {
				return false
			}
		}
	}
	return true
}
