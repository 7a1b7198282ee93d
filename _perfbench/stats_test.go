package main

import "testing"

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %g, want %g", c.xs, got, c.want)
		}
	}
}

// TestSummarizeTail pins the tail rule: the highest percentile that still
// has tailMin samples above it, reported with the sample count, and none at
// all for tailMin samples or fewer.
func TestSummarizeTail(t *testing.T) {
	xs := make([]float64, 30)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 30..1, unsorted input
	}
	d := summarize(xs, false)
	if d.N != 30 || d.Median != 15.5 {
		t.Errorf("n=%d median=%g, want 30 and 15.5", d.N, d.Median)
	}
	// Rank 20 of 30 has exactly ten samples (21..30) above it.
	if d.Tail != 20 || d.TailPct < 66.6 || d.TailPct > 66.7 {
		t.Errorf("tail p%.2f = %g, want p66.67 = 20", d.TailPct, d.Tail)
	}
	if d := summarize(xs[:10], false); d.TailPct != 0 || d.Tail != 0 {
		t.Errorf("10 samples gave a tail p%g = %g, want none", d.TailPct, d.Tail)
	}
	if d := summarize(xs[:11], false); d.Tail != 20 || d.TailPct < 9 || d.TailPct > 9.1 {
		t.Errorf("11 samples (30..20) gave p%g = %g, want p9.09 = 20", d.TailPct, d.Tail)
	}
	// For a rate the tail is the low side: rank 11 of 30 has ten below.
	if d := summarize(xs, true); d.Tail != 11 || d.TailPct < 36.6 || d.TailPct > 36.7 {
		t.Errorf("higher-better tail p%.2f = %g, want p36.67 = 11", d.TailPct, d.Tail)
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct{ q, want float64 }{{0.5, 50}, {0.99, 100}, {0.1, 10}, {0, 10}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%g) = %g, want %g", c.q, got, c.want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of no samples is not 0")
	}
}
