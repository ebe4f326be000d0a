package main

import (
	"math"
	"slices"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile:
// a percentile with fewer samples beyond it is one or two outliers, not
// a property of the run.
const minBeyond = 10

// latencies keeps every sample of one operation class. It is sorted
// once, when summarized; adding a sample never reorders anything.
type latencies []time.Duration

// summary is one operation class's latency report, in milliseconds.
type summary struct {
	N   int
	P50 float64
	P99 float64
	// TopPct is the highest percentile with at least minBeyond samples
	// above it, and Top its value; TopPct is 0 when the class has too
	// few samples to support any.
	TopPct float64
	Top    float64
	// Tail is the reported tail: P99 when at least minBeyond samples lie
	// beyond it (1000 samples or more), otherwise Top, the highest
	// percentile the sample supports. TailPct names the percentile.
	TailPct float64
	Tail    float64
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// summarize sorts a copy of the samples and reads the percentiles off
// it by nearest rank.
func summarize(l latencies) summary {
	s := slices.Clone(l)
	slices.Sort(s)
	out := summary{N: len(s)}
	if len(s) == 0 {
		return out
	}
	out.P50 = ms(s[rankIndex(len(s), 50)])
	out.P99 = ms(s[rankIndex(len(s), 99)])
	out.TailPct, out.Tail = 100, ms(s[len(s)-1])
	if p, i, ok := topPercentile(len(s)); ok {
		out.TopPct, out.Top = p, ms(s[i])
		out.TailPct, out.Tail = p, out.Top
		if i >= rankIndex(len(s), 99) {
			out.TailPct, out.Tail = 99, out.P99
		}
	}
	return out
}

// rankIndex is the nearest-rank index of percentile p among n sorted
// samples: the smallest index whose cumulative share reaches p.
func rankIndex(n int, p float64) int {
	i := int(math.Ceil(p/100*float64(n))) - 1
	return min(max(i, 0), n-1)
}

// topPercentile returns the highest percentile of n samples that keeps
// minBeyond samples above it, with the index of its sample; ok is false
// when n is too small.
func topPercentile(n int) (pct float64, idx int, ok bool) {
	if n <= minBeyond {
		return 0, 0, false
	}
	k := n - minBeyond // 1-based rank of the reported sample
	return 100 * float64(k) / float64(n), k - 1, true
}

// median of float samples (mean of the middle two for even counts).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// medianUs is the median over durations, in microseconds.
func medianUs(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d.Nanoseconds()) / 1e3
	}
	return median(xs)
}
