package main

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so percentile must sort
	}
	return xs
}

func TestPercentileWithholdsWithoutTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{n: 100, p: 0.9, want: 90, ok: true}, // ranks 91..100 lie beyond
		{n: 99, p: 0.9, ok: false},           // only 9 beyond rank 90
		{n: 20, p: 0.5, want: 10, ok: true},
		{n: 19, p: 0.5, ok: false},
		{n: 0, p: 0.5, ok: false},
		{n: 1000, p: 0.99, want: 990, ok: true},
	}
	for _, c := range cases {
		got, ok := percentile(seq(c.n), c.p)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("percentile(n=%d, p=%v) = %v, %v; want %v, %v", c.n, c.p, got, ok, c.want, c.ok)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
}
