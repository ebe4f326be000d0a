package main

import (
	"slices"
	"testing"
	"time"
)

func TestRankIndexNearestRank(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want int
	}{
		{1, 50, 0}, {1, 99, 0},
		{2, 50, 0}, {2, 99, 1},
		{10, 50, 4}, {10, 90, 8}, {10, 99, 9},
		{100, 50, 49}, {100, 99, 98},
		{1000, 99, 989}, {1001, 99, 990},
	} {
		if got := rankIndex(c.n, c.p); got != c.want {
			t.Errorf("rankIndex(%d, %g) = %d, want %d", c.n, c.p, got, c.want)
		}
	}
}

func TestTopPercentileKeepsTenBeyond(t *testing.T) {
	if _, _, ok := topPercentile(minBeyond); ok {
		t.Fatalf("%d samples cannot support any percentile", minBeyond)
	}
	for _, n := range []int{11, 100, 999, 1000, 5000} {
		p, idx, ok := topPercentile(n)
		if !ok {
			t.Fatalf("n=%d: no percentile", n)
		}
		if beyond := n - 1 - idx; beyond != minBeyond {
			t.Errorf("n=%d: %d samples beyond index %d, want %d", n, beyond, idx, minBeyond)
		}
		if rankIndex(n, p) != idx {
			t.Errorf("n=%d: percentile %g does not select index %d", n, p, idx)
		}
	}
	if p, _, _ := topPercentile(1000); p != 99 {
		t.Errorf("1000 samples: top percentile %g, want 99", p)
	}
}

func TestSummarizeKeepsEverySampleAndInput(t *testing.T) {
	var l latencies
	for i := 1000; i >= 1; i-- { // descending, to show summarize sorts
		l = append(l, time.Duration(i)*time.Millisecond)
	}
	orig := slices.Clone(l)
	s := summarize(l)
	if s.N != 1000 || s.P50 != 500 || s.P99 != 990 || s.TopPct != 99 || s.Top != 990 {
		t.Fatalf("summary %+v", s)
	}
	if !slices.Equal(l, orig) {
		t.Fatal("summarize reordered its input")
	}
	if s := summarize(nil); s.N != 0 || s.P99 != 0 {
		t.Fatalf("empty summary %+v", s)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median %g", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median %g", m)
	}
}
