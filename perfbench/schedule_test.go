package main

import (
	"bytes"
	"math"
	"testing"
	"time"
)

func TestPoissonArrivalsReproducibleFromSeed(t *testing.T) {
	a := poissonArrivals(newRand(7, 1), 200, 10*time.Second)
	b := poissonArrivals(newRand(7, 1), 200, 10*time.Second)
	c := poissonArrivals(newRand(8, 1), 200, 10*time.Second)
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("same seed gave %d and %d arrivals", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d differs under the same seed: %v vs %v", i, a[i], b[i])
		}
	}
	if len(a) == len(c) && a[0] == c[0] {
		t.Fatal("different seeds gave the same schedule")
	}
}

func TestPoissonArrivalsRateAndOrder(t *testing.T) {
	const rate, secs = 200.0, 50
	a := poissonArrivals(newRand(1, 1), rate, secs*time.Second)
	if len(a) != rate*secs {
		t.Fatalf("%d arrivals, want %v", len(a), rate*secs)
	}
	// Gaps of a Poisson process are exponential: mean and standard
	// deviation both 1/rate.
	var sum, sq float64
	for i := 1; i < len(a); i++ {
		g := (a[i] - a[i-1]).Seconds()
		sum += g
		sq += g * g
	}
	n := float64(len(a) - 1)
	mean := sum / n
	sd := math.Sqrt(sq/n - mean*mean)
	if math.Abs(mean*rate-1) > 0.05 || math.Abs(sd*rate-1) > 0.05 {
		t.Fatalf("gap mean %v, sd %v; want both about %v", mean, sd, 1/rate)
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatalf("arrivals out of order at %d", i)
		}
	}
	if a[len(a)-1] >= secs*time.Second {
		t.Fatal("arrival past the run")
	}
}

func TestScheduleReproducibleFromSeed(t *testing.T) {
	for _, w := range workloads {
		s1, err := w.buildSchedule(3, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		s2, _ := w.buildSchedule(3, 5*time.Second)
		if len(s1.reads) != len(s2.reads) || len(s1.appends) != len(s2.appends) {
			t.Fatalf("%s: schedule sizes differ under one seed", w.name)
		}
		for i := range s1.reads {
			if s1.reads[i].due != s2.reads[i].due || !bytes.Equal(s1.reads[i].body, s2.reads[i].body) {
				t.Fatalf("%s: read %d differs under one seed", w.name, i)
			}
		}
		for i := range s1.appends {
			if s1.appends[i].due != s2.appends[i].due || !bytes.Equal(s1.appends[i].body, s2.appends[i].body) {
				t.Fatalf("%s: append %d differs under one seed", w.name, i)
			}
		}
		if len(s1.appends) == 0 || len(s1.reads) == 0 {
			t.Fatalf("%s: empty schedule", w.name)
		}
	}
}

func TestReadMixFollowsWeights(t *testing.T) {
	for _, w := range workloads {
		const n = 997
		a, b := w.readMix(newRand(5, 1), n), w.readMix(newRand(5, 1), n)
		if len(a) != n {
			t.Fatalf("%s: %d reads, want %d", w.name, len(a), n)
		}
		total := 0.0
		for _, c := range w.reads {
			total += c.weight
		}
		count := map[[2]int]int{}
		for i, m := range a {
			if m != b[i] {
				t.Fatalf("%s: read %d differs under one seed", w.name, i)
			}
			ds := w.decls[m.decl]
			if w.reads[m.class].path != "/sample" && (m.max < ds.predMin || m.max > ds.predMax) {
				t.Fatalf("%s: threshold %d outside [%d, %d]", w.name, m.max, ds.predMin, ds.predMax)
			}
			count[[2]int{m.class, m.decl}]++
		}
		for ci, c := range w.reads {
			for d := range w.decls {
				want := n * c.weight / total / float64(len(w.decls))
				if got := float64(count[[2]int{ci, d}]); math.Abs(got-want) >= 1 {
					t.Errorf("%s: class %s decl %d appears %v times, want %.2f", w.name, c.path, d, got, want)
				}
			}
		}
	}
}
