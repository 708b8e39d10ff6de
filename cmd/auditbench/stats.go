package main

import (
	"math"
	"sort"
)

// summary is a metric over repeated samples: its median, quartiles and
// sample count.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quartiles returns Q1, the median and Q3 by the "exclusive" method of
// Python's statistics.quantiles(xs, n=4), which the acceptance rule for
// the benchmark's spread uses. One sample is its own quartiles.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := sorted(xs)
	switch len(s) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	m := len(s) + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4) // outside [0,4] past the ends: extrapolates, as Python does
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

func summarize(xs []float64) summary {
	q1, med, q3 := quartiles(xs)
	return summary{Median: med, Q1: q1, Q3: q3, N: len(xs)}
}

// scaled is s with every value multiplied by k > 0.
func (s summary) scaled(k float64) summary {
	return summary{Median: s.Median * k, Q1: s.Q1 * k, Q3: s.Q3 * k, N: s.N}
}

// percentile is the nearest-rank p-th percentile of xs.
func percentile(xs []float64, p float64) float64 {
	s := sorted(xs)
	if len(s) == 0 {
		return math.NaN()
	}
	k := int(math.Ceil(p / 100 * float64(len(s))))
	if k < 1 {
		k = 1
	}
	return s[k-1]
}

// tailPercentile is the highest whole percentile that has at least ten
// samples beyond it under nearest rank, or 0 with fewer than eleven
// samples: a tail quoted past it rests on a handful of points.
func tailPercentile(n int) int {
	if n <= 10 {
		return 0
	}
	p := 100 * (n - 10) / n
	for p > 0 && n-int(math.Ceil(float64(p)/100*float64(n))) < 10 {
		p--
	}
	return p
}
