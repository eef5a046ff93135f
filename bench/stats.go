package main

import (
	"math"
	"sort"
)

// tailCandidates are the percentiles the picker may report as a metric's
// tail, highest first. The cap is 99: metric names say p99.
var tailCandidates = []float64{99, 95, 90, 75}

// minBeyond is how many samples must lie beyond a percentile for it to be
// reported (choosing-metrics guide §1).
const minBeyond = 10

// pickTail returns the highest candidate percentile with at least minBeyond
// of n samples beyond it; 50 when even p75 has too few.
func pickTail(n int) float64 {
	for _, p := range tailCandidates {
		if float64(n)*(100-p) >= minBeyond*100 { // n*(1-p/100) >= minBeyond, without the rounding
			return p
		}
	}
	return 50
}

// percentile is the nearest-rank percentile of an ascending-sorted slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// quartiles returns Q1 and Q3 the way Python's statistics.quantiles(v, n=4)
// does (exclusive method), which is what the acceptance check uses.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := pos - float64(j)
		return s[j-1] + d*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// Latency metrics are medians over windows: samples are cut, in arrival
// order, into equal-count windows, the percentile is taken per window, and
// the metric is the median of the per-window values. One noisy stretch of a
// run (a neighbour on the box, a long garbage collection) then moves a
// window or two, not the metric.
const (
	maxWindows    = 20
	windowSamples = 2000 // aim; p99 needs 1000 for minBeyond samples beyond it
)

// windowsFor picks the window count for n samples.
func windowsFor(n int) int {
	return max(1, min(maxWindows, n/windowSamples))
}

// eachWindow calls f on every window of samples, in order.
func eachWindow(samples []float64, f func(w []float64)) {
	n := len(samples)
	windows := windowsFor(n)
	per := n / windows
	for w := 0; w < windows; w++ {
		lo, hi := w*per, (w+1)*per
		if w == windows-1 {
			hi = n
		}
		f(samples[lo:hi])
	}
}

// latencySummary is one latency metric pair as reported.
type latencySummary struct {
	N      int     // samples
	P50    float64 // median of per-window medians
	Tail   float64 // median of per-window tail percentiles
	TailAt float64 // which percentile Tail is (99 unless the picker had to go lower)
}

// summarize reports the median over windows of the p50 and of the tail. The
// tail percentile is picked for the window size, so every window has
// minBeyond samples beyond it.
func summarize(samples []float64) latencySummary {
	n := len(samples)
	if n == 0 {
		return latencySummary{TailAt: 50}
	}
	at := pickTail(n / windowsFor(n))
	var p50s, tails []float64
	eachWindow(samples, func(w []float64) {
		s := append([]float64(nil), w...)
		sort.Float64s(s)
		p50s = append(p50s, percentile(s, 50))
		tails = append(tails, percentile(s, at))
	})
	return latencySummary{N: n, P50: median(p50s), Tail: median(tails), TailAt: at}
}

// ratio is num/den with 0 for an empty denominator, so a metric that does
// not apply prints 0 instead of NaN.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
