package main

import (
	"math"
	"testing"
)

func TestTailLevelNeedsTenBeyond(t *testing.T) {
	levels := []float64{50, 90, 95, 99, 99.9}
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{5, 0},     // not even the median has ten beyond it
		{20, 50},   // 10 beyond p50
		{99, 50},   // 9.9 beyond p90: not enough
		{100, 90},  // exactly 10 beyond p90
		{199, 90},  // 9.95 beyond p95
		{200, 95},  // exactly 10 beyond p95
		{999, 95},  // 9.99 beyond p99
		{1000, 99}, // exactly 10 beyond p99
		{10000, 99.9},
	} {
		if got := tailLevel(tc.n, levels); got != tc.want {
			t.Errorf("tailLevel(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
	if !hasTail(200, 95) || hasTail(199, 95) || !hasTail(1000, 99) || hasTail(999, 99) {
		t.Error("hasTail disagrees with tailLevel at the p95/p99 boundaries")
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, tc := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {95, 10}, {100, 10}, {1, 1}} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(p%g) = %g, want %g", tc.p, got, tc.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
}

// Expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{0.365, 0.39, 0.47, 0.495, 0.53, 0.545}, 0.38375, 0.4825, 0.53375},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q2-tc.q2) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}

func TestValidName(t *testing.T) {
	good := []string{"sim-svm60", "tcp-mlp3", "round_p50_ms", "model.grad_ms", "0ok", "a"}
	bad := []string{"", "_lead", ".lead", "-lead", "has space", "slash/no", "ünï", "x" + string(make([]byte, 64))}
	for _, s := range good {
		if !validName(s) {
			t.Errorf("validName(%q) = false", s)
		}
	}
	for _, s := range bad {
		if validName(s) {
			t.Errorf("validName(%q) = true", s)
		}
	}
	if !validName(string(make64('a'))) || validName(string(make64('a'))+"a") {
		t.Error("the 64-character limit is off by one")
	}
	for _, u := range []string{"ms", "s", "1/s", "count", "%", "ratio"} {
		if !validUnit(u) {
			t.Errorf("validUnit(%q) = false", u)
		}
	}
	if validUnit("") || validUnit("way-too-long-unit-name") || validUnit("m s") {
		t.Error("validUnit accepts a bad unit")
	}
}

func make64(c byte) []byte {
	b := make([]byte, 64)
	for i := range b {
		b[i] = c
	}
	return b
}

func TestJudge(t *testing.T) {
	base := []float64{10, 10.2, 9.9, 10.1, 10, 9.8, 10.3, 10, 10.1, 9.9}
	faster := make([]float64, len(base))
	slower := make([]float64, len(base))
	for i, b := range base {
		faster[i] = b * 0.8
		slower[i] = b * 1.3
	}
	if v := judge(base, faster, false, 0.1); v.verdict != "better" || v.wins != 10 {
		t.Errorf("20%% faster: %+v", v)
	}
	if v := judge(base, slower, false, 0.1); v.verdict[:5] != "WORSE" {
		t.Errorf("30%% slower with a 10%% bound: %+v", v)
	}
	if v := judge(base, base, false, 0.1); v.verdict != "unchanged within bound" {
		t.Errorf("identical: %+v", v)
	}
	noisy := []float64{5, 15, 8, 12, 6, 14, 9, 11, 7, 13}
	if v := judge(noisy, noisy, false, 0.1); v.verdict != "unresolved (spread wider than bound)" {
		t.Errorf("spread wider than bound: %+v", v)
	}
}

func TestLoadP99IsTheTypicalSecond(t *testing.T) {
	lr := loadResult{latMs: []float64{1, 2, 3}, windowP99Ms: []float64{4, 50, 5}}
	if got := lr.p99(); got != 5 {
		t.Errorf("p99 over windows = %g, want the median window's 5", got)
	}
	lr.windowP99Ms = nil
	if got := lr.p99(); got != 3 {
		t.Errorf("p99 without a whole window = %g, want the pooled 3", got)
	}
}

func TestMoreSetups(t *testing.T) {
	for _, tc := range []struct {
		setups []float64
		want   bool
	}{
		{nil, true},
		{[]float64{20, 20}, true},           // too few, however slow
		{[]float64{20, 20, 20}, false},      // enough, and over a second
		{[]float64{0.05, 0.05, 0.05}, true}, // enough, but under a second
		{[]float64{0.4, 0.4, 0.4}, false},
	} {
		if got := moreSetups(tc.setups); got != tc.want {
			t.Errorf("moreSetups(%v) = %v, want %v", tc.setups, got, tc.want)
		}
	}
}
