package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"
)

func TestSeedPlumbingSim(t *testing.T) {
	a, err := simInputs()
	if err != nil {
		t.Fatal(err)
	}
	b, _ := simInputs()
	if !sameSamples(a.train.Samples[0].X, b.train.Samples[0].X) {
		t.Error("the corpus is not reproducible")
	}
	for i := 0; i < a.topo.N(); i++ {
		if !sameInts(a.topo.Neighbors(i), b.topo.Neighbors(i)) {
			t.Fatalf("the topology is not reproducible (node %d)", i)
		}
	}
	// The run seed reaches the jobs' per-node inits.
	c7, c8 := a.clusterConfig(jobSeed(7, 0)), a.clusterConfig(jobSeed(8, 0))
	if c7.Seed == c8.Seed || jobSeed(7, 0) == jobSeed(7, 1) || jobSeed(7, 1) == jobSeed(8, 1) {
		t.Error("job seeds collide")
	}
	if a.clusterConfig(jobSeed(7, 0)).Seed != c7.Seed {
		t.Error("one seed gave two job seeds")
	}
}

func TestSeedPlumbingTCP(t *testing.T) {
	for _, spec := range []tcpSpec{specMLP3, specServe} {
		a, err := buildTCPData(spec, 3)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := buildTCPData(spec, 3)
		c, _ := buildTCPData(spec, 4)
		if !sameSamples(a.init, b.init) {
			t.Error("one seed gave two inits")
		}
		if sameSamples(a.init, c.init) {
			t.Error("seeds 3 and 4 gave the same init")
		}
		if !sameSamples(a.train.Samples[5].X, c.train.Samples[5].X) {
			t.Error("the corpus must not depend on the run seed")
		}
	}
}

func TestParseRunFlags(t *testing.T) {
	cfg, err := parseRunFlags([]string{"--workload", "tcp-mlp3", "--seed", "42", "--seconds", "3", "--trace", "1"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.seed != 42 || cfg.seconds != 3 || !cfg.trace || cfg.workload != "tcp-mlp3" {
		t.Errorf("parsed %+v", cfg)
	}
	if _, err := parseRunFlags([]string{"--workload", "tcp-svm-serve"}, io.Discard); err != nil {
		t.Errorf("an unlisted workload must still run by name: %v", err)
	}
	for _, bad := range [][]string{
		{"--workload", "nope"},
		{"--workload", "tcp-mlp3", "--trace", "2"},
		{"--workload", "tcp-mlp3", "--seconds", "0"},
		{"--workload", "tcp-mlp3", "extra"},
	} {
		if _, err := parseRunFlags(bad, io.Discard); err == nil {
			t.Errorf("parseRunFlags(%v) accepted", bad)
		}
	}
}

// BENCHMARK.json must name exactly the workloads and metrics this
// program reports, with legal names and units.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i] || !validName(w.Name) || w.Why == "" {
			t.Errorf("workload %d: %+v", i, w)
		}
	}
	check := func(kind string, got []metricDef, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
		}
		seen := map[string]bool{}
		for i := range got {
			if got[i] != want[i] || !validName(got[i].name) || !validUnit(got[i].unit) || seen[got[i].name] {
				t.Errorf("%s %d: json %+v, program %+v", kind, i, got[i], want[i])
			}
			seen[got[i].name] = true
		}
	}
	var e2e, pl []metricDef
	for _, m := range b.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end-to-end %s: bound %g better %q", m.Name, m.Bound, m.Better)
		}
	}
	for _, m := range b.PerLayer {
		pl = append(pl, metricDef{m.Name, m.Unit})
	}
	check("end_to_end", e2e, endToEnd)
	check("per_layer", pl, perLayer)
}

func sameSamples(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
