package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile,
// so that a tail figure is never set by a handful of outliers.
const minBeyond = 10

// rank returns the 1-based nearest-rank position of percentile p in n
// sorted samples: the smallest rank whose share of samples reaches p.
func rank(p float64, n int) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank p-th percentile of samples. It
// fails when fewer than minBeyond samples lie beyond that rank.
func percentile(samples []float64, p float64) (float64, error) {
	n := len(samples)
	if n == 0 {
		return 0, fmt.Errorf("p%g of no samples", p)
	}
	r := rank(p, n)
	if n-r < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", p, n, n-r, minBeyond)
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[r-1], nil
}

// median returns the median of a small set of per-round figures (the
// mean of the two middle values for an even count). Unlike percentile
// it has no tail rule: it summarises a handful of whole-round numbers.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
