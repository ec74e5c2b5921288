package main

import (
	"math"
	"slices"
)

// samples collects raw int64 observations (latencies in nanoseconds) in
// fixed-size chunks, so recording one is an append that allocates only
// once per chunk.
type samples struct {
	chunks [][]int64
	cur    []int64
}

const sampleChunk = 1 << 16

func (s *samples) add(v int64) {
	if len(s.cur) == cap(s.cur) {
		if s.cur != nil {
			s.chunks = append(s.chunks, s.cur)
		}
		s.cur = make([]int64, 0, sampleChunk)
	}
	s.cur = append(s.cur, v)
}

func (s *samples) len() int { return len(s.chunks)*sampleChunk + len(s.cur) }

// appendTo appends every observation to dst.
func (s *samples) appendTo(dst []int64) []int64 {
	for _, c := range s.chunks {
		dst = append(dst, c...)
	}
	return append(dst, s.cur...)
}

// dist is a sorted set of observations.
type dist []int64

// sortedOf merges and sorts the observations of every collector.
func sortedOf(ss ...*samples) dist {
	n := 0
	for _, s := range ss {
		n += s.len()
	}
	all := make([]int64, 0, n)
	for _, s := range ss {
		all = s.appendTo(all)
	}
	slices.Sort(all)
	return dist(all)
}

// quantile returns the exact q-quantile by the nearest-rank method: the
// smallest observation with at least q of all observations at or below
// it. It returns 0 for an empty set.
func (d dist) quantile(q float64) int64 {
	if len(d) == 0 {
		return 0
	}
	// The epsilon keeps q·n that is an integer in exact arithmetic (0.99 ×
	// 100) from rounding up a rank in floating point.
	r := int(math.Ceil(q*float64(len(d)) - 1e-9))
	r = max(r, 1)
	r = min(r, len(d))
	return d[r-1]
}

// quantileUS returns the q-quantile of nanosecond observations in
// microseconds.
func (d dist) quantileUS(q float64) float64 { return float64(d.quantile(q)) / 1e3 }

// median returns the middle value of xs (the mean of the two middle ones
// for an even count); xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}
