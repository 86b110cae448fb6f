package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a percentile before the
// benchmark reports it as measured rather than extrapolated.
const minBeyond = 10

// percentileLadder is the set of percentiles the benchmark may report,
// lowest first.
var percentileLadder = []float64{50, 90, 95, 99, 99.9}

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile is the nearest-rank p-th percentile of xs and the number of
// samples strictly beyond its rank. It returns 0, 0 for no samples.
func percentile(xs []float64, p float64) (value float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := sorted(xs)
	// The epsilon keeps p99.9 of 10000 samples at rank 9990, not 9991.
	rank := int(math.Ceil(p*float64(len(s))/100 - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1], len(s) - rank
}

// median is the middle value of xs (the mean of the two middle values for
// an even count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail is the highest percentile of the ladder that has at least minBeyond
// samples beyond it.
type tail struct {
	P      float64 // percentile, e.g. 90
	Value  float64
	Beyond int // samples above it
	N      int // samples in all
	OK     bool
}

// highestPercentile reports the highest ladder percentile of xs with at
// least minBeyond samples beyond it. OK is false when even the median has
// fewer than minBeyond samples above it.
func highestPercentile(xs []float64) tail {
	t := tail{N: len(xs)}
	for _, p := range percentileLadder {
		v, beyond := percentile(xs, p)
		if beyond < minBeyond {
			break
		}
		t = tail{P: p, Value: v, Beyond: beyond, N: len(xs), OK: true}
	}
	return t
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
