package main

import (
	"fmt"
	"math"
	"slices"
)

// quartiles returns the three cut points of xs the way Python's
// statistics.quantiles(xs, n=4) computes them (its default "exclusive"
// method), so spreads printed here match the ones the bounds are judged by.
// It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := slices.Clone(xs)
	slices.Sort(d)
	m := len(d) + 1
	cut := func(i int) float64 {
		j := max(1, min(i*m/4, len(d)-1))
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or NaN for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	d := slices.Clone(xs)
	slices.Sort(d)
	n := len(d)
	if n%2 == 1 {
		return d[n/2]
	}
	return (d[n/2-1] + d[n/2]) / 2
}

// spread is the distance between the first and third quartile of xs as a
// share of its median: the run-to-run spread a bound is compared against.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(xs)
	return (q3 - q1) / q2
}

// tailSamples is how many samples must lie beyond a reported percentile.
const tailSamples = 10

// percentile returns the nearest-rank q-quantile (0 < q < 1) of xs and
// whether it is worth reporting (tailOK).
func percentile(xs []float64, q float64) (float64, bool) {
	if len(xs) == 0 {
		return math.NaN(), false
	}
	d := slices.Clone(xs)
	slices.Sort(d)
	return d[rank(len(d), q)], tailOK(len(d), q)
}

// rank is the index of the nearest-rank q-quantile among n sorted samples.
func rank(n int, q float64) int {
	return max(0, min(int(math.Ceil(q*float64(n)))-1, n-1))
}

// tailOK reports whether at least tailSamples of n samples lie beyond their
// q-quantile: for the p90, at least 100 samples.
func tailOK(n int, q float64) bool { return n-1-rank(n, q) >= tailSamples }

// failRatio is failed ÷ attempted ops.
func failRatio(failed, attempted int) float64 {
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// worse reports by how much b is worse than a, as a share of a, for a
// metric whose better direction is better ("lower" or "higher"); negative
// values mean b is better.
func worse(a, b float64, better string) float64 {
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// verdict is the outcome of comparing one end-to-end metric on one workload
// between a parent's runs and a change's runs.
type verdict struct {
	pairs      int
	wins       int     // pairs the change won, ties counting for neither
	parentMed  float64 // median of the parent's runs
	changeMed  float64
	parentIQR  float64 // distance between the parent's quartiles
	worseShare float64 // how much worse the change's median is, as a share
	spread     float64 // the larger of the two sides' spreads
	outcome    string  // gain, level, regression, unresolved, or too few pairs
}

// minPairs is the fewest paired runs a comparison accepts.
const minPairs = 10

// compareRuns applies the benchmark's comparison rule to paired runs of a
// parent (a) and a change (b) of one metric with the given better direction
// and regression bound:
//
//   - a gain needs at least nine tenths of the pairs won and medians further
//     apart than the parent's interquartile distance;
//   - a regression is a median worse by more than the bound;
//   - a metric whose spread exceeds its bound is unresolved, unless every
//     run of the change beats every run of the parent;
//   - anything else is level.
func compareRuns(a, b []float64, better string, bound float64) verdict {
	v := verdict{pairs: min(len(a), len(b))}
	if v.pairs < minPairs {
		v.outcome = fmt.Sprintf("too few pairs (%d < %d)", v.pairs, minPairs)
		return v
	}
	a, b = a[:v.pairs], b[:v.pairs]
	for i := range a {
		if worse(a[i], b[i], better) < 0 {
			v.wins++
		}
	}
	q1, q2, q3 := quartiles(a)
	v.parentMed, v.parentIQR = q2, q3-q1
	v.changeMed = median(b)
	v.worseShare = worse(v.parentMed, v.changeMed, better)
	v.spread = max(spread(a), spread(b))
	switch {
	case v.wins*10 >= v.pairs*9 && math.Abs(v.changeMed-v.parentMed) > v.parentIQR:
		v.outcome = "gain"
	case v.spread > bound && !dominates(a, b, better):
		v.outcome = "unresolved"
	case v.worseShare > bound:
		v.outcome = "regression"
	default:
		v.outcome = "level"
	}
	return v
}

// dominates reports whether every value of b is better than every value of a.
func dominates(a, b []float64, better string) bool {
	worstB, bestA := slices.Max(b), slices.Min(a)
	if better == "higher" {
		worstB, bestA = slices.Min(b), slices.Max(a)
	}
	return worse(bestA, worstB, better) < 0
}
