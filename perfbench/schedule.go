package main

import (
	"math"
	"math/rand/v2"
	"slices"
	"time"
)

// newRand returns the benchmark's generator for one input stream. The
// same (seed, stream) always yields the same draws, so a seed fixes a
// workload's requests and their arrival times.
func newRand(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), stream))
}

// poissonArrivals returns the arrival offsets of a Poisson process of
// the given rate (per second) over [0, dur), conditioned on its expected
// count: that many independent uniform offsets, sorted. Arrivals stay
// memoryless and bursty, but every seed offers the same amount of work,
// so a workload whose cost grows with what it has ingested does not
// vary with the seed's arrival count.
func poissonArrivals(r *rand.Rand, rate float64, dur time.Duration) []time.Duration {
	n := int(math.Round(rate * dur.Seconds()))
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(r.Int64N(int64(dur)))
	}
	slices.Sort(out)
	return out
}
