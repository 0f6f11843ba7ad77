package main

import (
	"math"
	"regexp"
	"sort"
)

// minTail is how many samples must lie beyond a reported tail percentile:
// a percentile with fewer samples past it is a single outlier, not a tail.
const minTail = 10

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// xs. xs need not be sorted; it is not modified. NaN for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return sortedPercentile(s, p)
}

func sortedPercentile(s []float64, p float64) float64 {
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median is the 50th percentile.
func median(xs []float64) float64 { return percentile(xs, 50) }

// tailLevel returns the highest of levels (ascending percentiles) that
// has at least minTail of n samples beyond it, or 0 when none does.
func tailLevel(n int, levels []float64) float64 {
	best := 0.0
	for _, p := range levels {
		if float64(n)*(100-p)/100 >= minTail-1e-9 {
			best = p
		}
	}
	return best
}

// hasTail reports whether n samples support percentile p under the
// minTail rule.
func hasTail(n int, p float64) bool { return tailLevel(n, []float64{p}) == p }

// quartiles returns Q1, median and Q3 with the "exclusive" method of
// Python's statistics.quantiles(xs, n=4), which is how spreads are judged.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		// statistics.quantiles, method="exclusive", transcribed with its
		// integer arithmetic and its clamp (which extrapolates for n < 3).
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validName reports whether s is a legal workload or metric name: it
// starts with a letter or digit and uses only [A-Za-z0-9_.-], at most 64
// characters.
func validName(s string) bool { return nameRE.MatchString(s) }

var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func validUnit(s string) bool { return unitRE.MatchString(s) }
