package main

import (
	"fmt"
	"math"
	"sort"
)

// dist is a latency distribution summarised the way the benchmark reports
// every timing: the median, and the highest percentile (at most p99) that
// still has at least minBeyond samples beyond it, with the sample count.
// It also carries p90, or that highest percentile where it is lower.
type dist struct {
	N     int
	P50   float64
	TailP int // the highest valid percentile, e.g. 99
	Tail  float64
	P90P  int // 90, or TailP where that is lower
	P90   float64
}

// String renders the distribution for the report's detail lines.
func (d dist) String() string {
	if d.P90P == d.TailP {
		return fmt.Sprintf("p50 %.5g ms, p%d %.5g ms, n=%d", d.P50, d.TailP, d.Tail, d.N)
	}
	return fmt.Sprintf("p50 %.5g ms, p%d %.5g ms, p%d %.5g ms, n=%d", d.P50, d.P90P, d.P90, d.TailP, d.Tail, d.N)
}

// midP is the percentile between the median and the tail that the detail
// lines and peak_heap_mb use.
const midP = 90

// minBeyond is the number of samples that must lie beyond the highest
// percentile a report names.
const minBeyond = 10

// tailPercentile returns the highest whole percentile, capped at 99, that
// leaves at least minBeyond of n samples beyond it under nearest-rank
// quantiles. It never goes below the median: with fewer than 2*minBeyond
// samples the median itself is the tail, and ok is false.
func tailPercentile(n int) (p int, ok bool) {
	if n < 2*minBeyond {
		return 50, false
	}
	p = 99
	for p > 50 && n-rank(n, p) < minBeyond {
		p--
	}
	return p, true
}

// rank is the 1-based nearest-rank index of percentile p among n samples.
func rank(n, p int) int {
	r := int(math.Ceil(float64(p) / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	return r
}

// percentile returns the nearest-rank p-th percentile of sorted xs.
func percentile(sorted []float64, p int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)-1]
}

// summarize sorts a copy of xs and reduces it to a dist.
func summarize(xs []float64) dist {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	d := dist{N: len(s)}
	if d.N == 0 {
		return d
	}
	d.P50 = percentile(s, 50)
	d.TailP, _ = tailPercentile(d.N)
	d.Tail = percentile(s, d.TailP)
	d.P90P = min(midP, d.TailP)
	d.P90 = percentile(s, d.P90P)
	return d
}

// median is the middle value of xs (the mean of the two middle values for
// an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// mean is the arithmetic mean of xs, 0 for none.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
