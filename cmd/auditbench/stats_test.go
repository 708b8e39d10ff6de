package main

import (
	"math"
	"testing"
)

// The quartiles must agree with Python's statistics.quantiles(xs, n=4)
// (method "exclusive"), which judges the benchmark's spread; the wants
// below are its outputs.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{5, 1, 9}, 1, 5, 9},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		{[]float64{7}, 7, 7, 7},
	}
	for _, c := range cases {
		q1, med, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(med-c.med) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, med, q3, c.q1, c.med, c.q3)
		}
	}
	if _, med, _ := quartiles(nil); !math.IsNaN(med) {
		t.Errorf("median of nothing = %v, want NaN", med)
	}
	if s := summarize([]float64{3, 1, 2}); s.Median != 2 || s.N != 3 {
		t.Errorf("summarize = %+v", s)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100 … 1, unsorted on purpose
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {80, 80}, {90, 90}, {100, 100}, {0, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
}

// tailPercentile is the highest percentile with at least ten samples
// beyond it: p90 needs 100 samples, p80 50.
func TestTailPercentile(t *testing.T) {
	for _, c := range []struct{ n, want int }{{5, 0}, {10, 0}, {11, 9}, {20, 50}, {50, 80}, {54, 81}, {100, 90}, {99, 89}, {1000, 99}} {
		p := tailPercentile(c.n)
		if p != c.want {
			t.Errorf("tailPercentile(%d) = %d, want %d", c.n, p, c.want)
		}
		if p > 0 {
			xs := make([]float64, c.n)
			for i := range xs {
				xs[i] = float64(i)
			}
			beyond := 0
			for _, x := range xs {
				if x > percentile(xs, float64(p)) {
					beyond++
				}
			}
			if beyond < 10 {
				t.Errorf("n=%d: p%d has %d samples beyond it", c.n, p, beyond)
			}
		}
	}
}
