package main

import (
	"math"
	"math/rand"
	"testing"
)

func TestQuantileNearestRank(t *testing.T) {
	var s samples
	for _, v := range rand.New(rand.NewSource(1)).Perm(1000) {
		s.add(int64(v + 1))
	}
	d := sortedOf(&s)
	for _, c := range []struct {
		q    float64
		want int64
	}{{0.001, 1}, {0.5, 500}, {0.99, 990}, {0.999, 999}, {1, 1000}} {
		if got := d.quantile(c.q); got != c.want {
			t.Errorf("quantile(%v) = %d, want %d", c.q, got, c.want)
		}
	}
	if got := dist(nil).quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %d, want 0", got)
	}
}

// TestQuantileExponential checks the percentiles of a known distribution:
// observations at the exponential's quantiles (i-½)/n, in random order,
// must give back its median ln 2 and 99th percentile ln 100.
func TestQuantileExponential(t *testing.T) {
	const n, scale = 200_000, 1e6 // mean 1 ms, in ns
	vals := make([]int64, n)
	for i := range vals {
		p := (float64(i) + 0.5) / n
		vals[i] = int64(-math.Log(1-p) * scale)
	}
	rand.New(rand.NewSource(2)).Shuffle(n, func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
	var s samples
	for _, v := range vals {
		s.add(v)
	}
	if s.len() != n {
		t.Fatalf("len = %d, want %d", s.len(), n)
	}
	d := sortedOf(&s)
	for _, c := range []struct{ q, want float64 }{{0.5, math.Ln2}, {0.99, math.Log(100)}} {
		got := float64(d.quantile(c.q)) / scale
		if rel := math.Abs(got-c.want) / c.want; rel > 1e-3 {
			t.Errorf("quantile(%v) = %.6f, want %.6f (rel err %.2g)", c.q, got, c.want, rel)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}
