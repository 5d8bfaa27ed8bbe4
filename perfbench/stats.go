package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// tailLevels are the percentiles a tail figure may report, highest first.
var tailLevels = []float64{99.9, 99, 90, 50}

// permille converts a percentile level to tenths of a percent, so rank
// arithmetic stays in integers (99.9 is not exact in binary).
func permille(p float64) int { return int(math.Round(p * 10)) }

// tailPercentile picks the highest percentile that still has at least ten
// samples beyond it. With fewer than twenty samples no percentile
// qualifies and the median is reported (level 50).
func tailPercentile(n int) float64 {
	for _, p := range tailLevels {
		if n*(1000-permille(p)) >= 10*1000 {
			return p
		}
	}
	return 50
}

// percentile returns the p-th percentile (0..100) of sorted samples by
// the nearest-rank rule; 0 for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := (n*permille(p) + 999) / 1000
	rank = max(1, min(rank, n))
	return sorted[rank-1]
}

// latencies collects durations and summarizes them in milliseconds.
type latencies []time.Duration

func (l latencies) sortedMS() []float64 {
	ms := make([]float64, len(l))
	for i, d := range l {
		ms[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(ms)
	return ms
}

// summary returns the median and the tail (see tailPercentile) in
// milliseconds, with the tail's level.
func (l latencies) summary() (p50, tail, level float64) {
	ms := l.sortedMS()
	level = tailPercentile(len(ms))
	return percentile(ms, 50), percentile(ms, level), level
}

// median returns the median of xs (mean of the middle pair for an even
// count); 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs with the same
// "exclusive" method as Python's statistics.quantiles(xs, n=4), so the
// repeat mode's spreads match the ones the benchmark is judged by.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return s[0], s[0]
	}
	at := func(i int) float64 { // transcription of the Python algorithm
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// fmtLevel renders a percentile level as a label: 99 -> "p99", 99.9 -> "p99.9".
func fmtLevel(p float64) string {
	return "p" + fmt.Sprint(p)
}
