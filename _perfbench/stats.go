package main

import (
	"fmt"
	"sort"
)

// dist summarises repeated samples of one metric the way the report prints
// it: the median, plus the highest percentile that still has at least ten
// samples beyond it on the metric's worse side (so the tail figure rests on
// more than a lone outlier).
type dist struct {
	N      int
	Median float64
	// TailPct is the percentile of Tail (0 when N ≤ tailMin, which leaves
	// no percentile with tailMin samples beyond it).
	TailPct float64
	Tail    float64
}

// tailMin is the number of samples a reported tail percentile must have
// beyond it.
const tailMin = 10

// summarize summarises xs; the tail lies above the median for a metric where
// lower is better (a time), below it for one where higher is better (a
// rate).
func summarize(xs []float64, higherBetter bool) dist {
	d := dist{N: len(xs), Median: median(xs)}
	if len(xs) > tailMin {
		s := sorted(xs)
		k := len(s) - tailMin // 1-based rank with exactly tailMin samples above
		if higherBetter {
			k = tailMin + 1 // exactly tailMin samples below
		}
		d.TailPct = 100 * float64(k) / float64(len(s))
		d.Tail = s[k-1]
	}
	return d
}

func (d dist) String() string {
	if d.TailPct == 0 {
		return fmt.Sprintf("median %.6g (n=%d; n ≤ %d, no tail percentile)", d.Median, d.N, tailMin)
	}
	return fmt.Sprintf("median %.6g, p%.1f %.6g (n=%d)", d.Median, d.TailPct, d.Tail, d.N)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle sample (mean of the two middle ones for an even
// count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
