package main

import (
	"math"
	"testing"
)

// TestGeneratorDeterministic: a seed fixes a connection's request
// stream, and SETs keep to the connection's records and their gap.
func TestGeneratorDeterministic(t *testing.T) {
	sp, _ := findSpec("update-durable")
	z := newZipf(uint64(sp.records), 0.99)
	stream := func(seed uint64) []op {
		g := newGenerator(&sp, z, seed, 1, sp.depth)
		ops := make([]op, 5000)
		for i := range ops {
			g.next(&ops[i])
		}
		return ops
	}
	a, b, c := stream(7), stream(7), stream(8)
	same := 0
	lastSet := map[uint64]int{}
	for i := range a {
		if a[i].kind != b[i].kind || a[i].idx != b[i].idx || a[i].ver != b[i].ver {
			t.Fatalf("request %d differs for one seed: %+v vs %+v", i, a[i], b[i])
		}
		if a[i].kind == c[i].kind && a[i].idx == c[i].idx {
			same++
		}
		if a[i].kind == 'S' {
			if a[i].idx%conns != 1 {
				t.Fatalf("connection 1 writes record %d", a[i].idx)
			}
			if j, ok := lastSet[a[i].idx]; ok && i-j < sp.depth {
				t.Fatalf("record %d written at requests %d and %d, under the gap %d", a[i].idx, j, i, sp.depth)
			}
			lastSet[a[i].idx] = i
		}
	}
	if same > len(a)/2 {
		t.Errorf("seeds 7 and 8 agree on %d of %d requests", same, len(a))
	}
}

// TestZipfHead checks the generator against Zipf(0.99): ranks 0 and 1,
// which the method draws exactly, within 5% of 1/((i+1)^θ · ζ(n)), and
// the top 100 ranks' total mass, which it approximates, within 0.03.
func TestZipfHead(t *testing.T) {
	const n, draws, top = 200_000, 2_000_000, 100
	z := newZipf(n, 0.99)
	r := newRNG(1, 0)
	var counts [top]int
	for i := 0; i < draws; i++ {
		if k := z.rank(r.float()); k < top {
			counts[k]++
		}
	}
	var mass, want float64
	for i, got := range counts {
		p := 1 / (math.Pow(float64(i+1), 0.99) * z.zetan)
		mass += float64(got) / draws
		want += p
		if i < 2 {
			if rel := math.Abs(float64(got)/draws-p) / p; rel > 0.05 {
				t.Errorf("rank %d drawn %d times, want %.0f (rel err %.3f)", i, got, p*draws, rel)
			}
		}
	}
	if math.Abs(mass-want) > 0.03 {
		t.Errorf("top %d ranks drew %.3f of all draws, want %.3f", top, mass, want)
	}
}
