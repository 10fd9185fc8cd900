package main

import (
	"math"
	"testing"
)

func TestQuantileSorted(t *testing.T) {
	seq := func(n int) []int64 {
		out := make([]int64, n)
		for i := range out {
			out[i] = int64(i + 1)
		}
		return out
	}
	cases := []struct {
		name   string
		sorted []int64
		q      float64
		want   float64
	}{
		{"median of odd count", []int64{1, 2, 9}, 0.5, 2},
		{"median of even count interpolates", []int64{1, 2, 3, 10}, 0.5, 2.5},
		{"p99 of 1..101", seq(101), 0.99, 100},
		{"p95 of 1..21", seq(21), 0.95, 20},
		{"q=0 is the minimum", []int64{4, 5, 6}, 0, 4},
		{"q=1 is the maximum", []int64{4, 5, 6}, 1, 6},
		{"single sample", []int64{7}, 0.99, 7},
		{"interpolates between ranks", []int64{0, 10}, 0.25, 2.5},
	}
	for _, c := range cases {
		if got := quantileSorted(c.sorted, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%s: quantileSorted(%v, %g) = %g, want %g", c.name, c.sorted, c.q, got, c.want)
		}
	}
	if got := quantileSorted(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("empty input: got %g, want NaN", got)
	}
}

func TestSortedLeavesArrivalOrder(t *testing.T) {
	s := samples{3, 1, 2}
	if got := s.sorted(); got[0] != 1 || got[2] != 3 {
		t.Errorf("sorted() = %v", got)
	}
	if s[0] != 3 || s[1] != 1 {
		t.Errorf("sorted() reordered its receiver: %v", s)
	}
}

func TestEligible(t *testing.T) {
	cases := []struct {
		n    int
		q    float64
		want bool
	}{
		{1000, 0.99, true}, // exactly 10 beyond
		{999, 0.99, false},
		{200, 0.95, true},
		{199, 0.95, false},
		{20, 0.50, true},
		{19, 0.50, false},
		{100, 0.05, false}, // low percentiles count the samples below
		{200, 0.05, true},
		{0, 0.5, false},
	}
	for _, c := range cases {
		if got := eligible(c.n, c.q); got != c.want {
			t.Errorf("eligible(%d, %g) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
}

func TestQuantileShowsAStall(t *testing.T) {
	// Two connections of 1000 samples at 100; a stall holds 150 consecutive
	// requests of one of them at 10000. That is 7.5 % of the phase: the p90
	// of the whole phase must show it, the median must not.
	a, b := make(samples, 1000), make(samples, 1000)
	for i := range a {
		a[i], b[i] = 100, 100
	}
	for i := 300; i < 450; i++ {
		a[i] = 10000
	}
	series := []samples{a, b}
	if got := quantile(series, 0.95); got != 10000 {
		t.Errorf("p95 = %g, want the stall (10000)", got)
	}
	if got := quantile(series, 0.50); got != 100 {
		t.Errorf("p50 = %g, want 100", got)
	}
	if got := quantile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("no samples: got %g, want NaN", got)
	}
}

func TestMedianAndMinMax(t *testing.T) {
	if got := medianFloat([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %g", got)
	}
	if got := medianFloat([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Errorf("median even = %g", got)
	}
	if lo, hi := minMax([]float64{2, 9, -1}); lo != -1 || hi != 9 {
		t.Errorf("minMax = %g, %g", lo, hi)
	}
	if lo, _ := minMax(nil); !math.IsNaN(lo) {
		t.Errorf("minMax(nil) = %g, want NaN", lo)
	}
}
