package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile. A
// percentile with fewer is withheld: its value would be set by a handful
// of outliers.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of xs. ok is
// false, and the percentile withheld, when fewer than minBeyond samples
// lie above it.
func percentile(xs []float64, p float64) (v float64, ok bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], true
}

// median returns the middle value of xs (the mean of the middle two for an
// even count), or 0 for none.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
