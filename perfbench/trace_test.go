package main

import (
	"testing"
	"time"
)

func us(n int) time.Duration { return time.Duration(n) * time.Microsecond }

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: us(0), End: us(100)},
		// Two overlapping children cover [10, 50); one sticks out of
		// the parent and counts only up to its end.
		{ID: 2, Parent: 1, Name: "child", Start: us(10), End: us(40)},
		{ID: 3, Parent: 1, Name: "child", Start: us(30), End: us(50)},
		{ID: 4, Parent: 1, Name: "child", Start: us(90), End: us(120)},
		// A grandchild is not the root's child.
		{ID: 5, Parent: 2, Name: "grandchild", Start: us(60), End: us(70)},
		{ID: 6, Name: "root", Start: us(200), End: us(230)},
	}
	got := selfTimes(spans, "root")
	want := []time.Duration{us(100 - 40 - 10), us(30)}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("self times %v, want %v", got, want)
	}
	if c := selfTimes(spans, "child"); c[0] != us(30) {
		t.Fatalf("a child's self time %v ignores its grandchild", c[0])
	}
}

func TestTracerRecordsSpans(t *testing.T) {
	tr := newTracer()
	root := tr.newID()
	d := tr.timed("leaf", root, root, func() { time.Sleep(time.Millisecond) })
	if d < time.Millisecond {
		t.Fatalf("span shorter than its work: %v", d)
	}
	tr.add(span{ID: root, Req: root, Name: "root", Start: 0, End: tr.now()})
	if got := tr.byName("leaf"); len(got) != 1 || got[0] != d {
		t.Fatalf("byName %v", got)
	}
	if self := selfTimes(tr.snapshot(), "root"); len(self) != 1 || self[0] > tr.now()-d {
		t.Fatalf("root self time %v", self)
	}
}

func TestOverlapShareSweep(t *testing.T) {
	slow := []interval{
		{us(0), us(10)},    // overlaps busy [5, 8]
		{us(20), us(30)},   // touches busy [32, 40] only through the margin
		{us(100), us(110)}, // clear of everything
		{us(200), us(300)}, // contains busy [250, 260]
		{us(400), us(410)}, // starts inside busy [390, 420]
	}
	busy := []interval{{us(5), us(8)}, {us(32), us(40)}, {us(250), us(260)}, {us(390), us(420)}}
	if got := overlapShare(slow, busy, us(2)); got != 4.0/5 {
		t.Errorf("share with 2µs margin %g, want 0.8", got)
	}
	if got := overlapShare(slow, busy, 0); got != 3.0/5 {
		t.Errorf("share without margin %g, want 0.6", got)
	}
	if got := overlapShare(nil, busy, us(2)); got != 0 {
		t.Errorf("no slow intervals: %g", got)
	}
	if got := overlapShare(slow, nil, us(2)); got != 0 {
		t.Errorf("no busy intervals: %g", got)
	}
}
