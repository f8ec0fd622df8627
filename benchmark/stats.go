package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of v.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// quantileSorted interpolates the q-quantile (0 ≤ q ≤ 1) of ascending s.
func quantileSorted(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// median is the middle value of v (mean of the middle two when even); 0
// for an empty sample.
func median(v []float64) float64 { return quantileSorted(sorted(v), 0.5) }

// quartiles returns the first and third quartile of v by the "exclusive"
// method — the one Python's statistics.quantiles(v, n=4) uses, which is
// what the acceptance procedure computes spreads with. Fewer than two
// values have no spread: both quartiles are the single value.
func quartiles(v []float64) (q1, q3 float64) {
	s := sorted(v)
	n := len(s)
	if n < 2 {
		return quantileSorted(s, 0), quantileSorted(s, 0)
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based position
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return s[j-1] + (s[j]-s[j-1])*(pos-float64(j))
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median — the
// run-to-run noise figure every bound is compared against.
func spread(v []float64) float64 {
	m := median(v)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return math.Abs((q3 - q1) / m)
}

// tailMinBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const tailMinBeyond = 10

// tailPercentile returns the highest of p50, p90, p99, p99.9, … that still
// has at least tailMinBeyond of n samples beyond it (0 when even the median
// does not).
func tailPercentile(n int) float64 {
	best := 0.0
	if n >= 2*tailMinBeyond {
		best = 50
	}
	for div := 10; n >= tailMinBeyond*div; div *= 10 {
		best = 100 - 100/float64(div)
	}
	return best
}

// percentileSorted is the nearest-rank p-th percentile (0 < p ≤ 100) of
// ascending s: the smallest value with at least p% of the sample at or
// below it, so exactly the samples above it lie "beyond".
func percentileSorted(s []float64, p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}
