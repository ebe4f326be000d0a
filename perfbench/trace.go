package main

import (
	"cmp"
	"slices"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the traced run from
// the benchmark's own code around the layer's public function. Spans of
// one request share Req; Parent names the span that caused this one
// (0 for a request's root).
type span struct {
	ID, Parent, Req int64
	Name            string
	Start, End      time.Duration // offsets from the tracer's epoch
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the traced run ends.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	next  int64
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

// newID returns a fresh span or request identifier.
func (t *tracer) newID() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// add stores a finished span; its ID comes from newID.
func (t *tracer) add(s span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
}

// timed runs fn inside a new span and returns the span's duration.
func (t *tracer) timed(name string, req, parent int64, fn func()) time.Duration {
	id := t.newID()
	start := t.now()
	fn()
	end := t.now()
	t.add(span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: end})
	return end - start
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.spans)
}

// byName returns the durations of the named spans, in record order.
func (t *tracer) byName(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// intervals returns the named spans as intervals.
func (t *tracer) intervals(name string) []interval {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []interval
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, interval{s.Start, s.End})
		}
	}
	return out
}

// selfTimes returns, for every span with the given name, its duration
// minus the part of its interval that its child spans cover. Children
// that overlap each other are counted once; a child sticking out of its
// parent counts only inside it.
func selfTimes(spans []span, name string) []time.Duration {
	children := make(map[int64][]interval)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	var out []time.Duration
	for _, s := range spans {
		if s.Name != name {
			continue
		}
		out = append(out, s.dur()-covered(interval{s.Start, s.End}, children[s.ID]))
	}
	return out
}

// interval is a closed time range [Start, End].
type interval struct{ Start, End time.Duration }

// covered is how much of within the union of parts covers.
func covered(within interval, parts []interval) time.Duration {
	clipped := make([]interval, 0, len(parts))
	for _, p := range parts {
		p.Start, p.End = max(p.Start, within.Start), min(p.End, within.End)
		if p.End > p.Start {
			clipped = append(clipped, p)
		}
	}
	slices.SortFunc(clipped, func(a, b interval) int { return cmp.Compare(a.Start, b.Start) })
	var total time.Duration
	var cur interval
	for i, p := range clipped {
		switch {
		case i == 0:
			cur = p
		case p.Start <= cur.End:
			cur.End = max(cur.End, p.End)
		default:
			total += cur.End - cur.Start
			cur = p
		}
	}
	if len(clipped) > 0 {
		total += cur.End - cur.Start
	}
	return total
}

// overlapShare is the share of the slow intervals that overlap at least
// one busy interval once every busy interval is widened by margin on
// both sides. It is one sweep over the sorted start and end events:
// at equal times starts sort before ends, so touching counts as
// overlapping.
func overlapShare(slow, busy []interval, margin time.Duration) float64 {
	if len(slow) == 0 {
		return 0
	}
	type event struct {
		at    time.Duration
		end   bool
		slow  bool
		index int
	}
	events := make([]event, 0, 2*(len(slow)+len(busy)))
	for i, s := range slow {
		events = append(events, event{s.Start, false, true, i}, event{s.End, true, true, i})
	}
	for _, b := range busy {
		events = append(events, event{b.Start - margin, false, false, 0}, event{b.End + margin, true, false, 0})
	}
	slices.SortFunc(events, func(a, b event) int {
		if a.at != b.at {
			return cmp.Compare(a.at, b.at)
		}
		switch {
		case a.end == b.end:
			return 0
		case !a.end:
			return -1
		}
		return 1
	})
	hit := make([]bool, len(slow))
	open := make(map[int]bool) // slow intervals open and not yet hit
	activeBusy := 0
	for _, e := range events {
		switch {
		case e.slow && !e.end:
			if activeBusy > 0 {
				hit[e.index] = true
			} else {
				open[e.index] = true
			}
		case e.slow:
			delete(open, e.index)
		case !e.end:
			activeBusy++
			for i := range open {
				hit[i] = true
			}
			clear(open)
		default:
			activeBusy--
		}
	}
	n := 0
	for _, h := range hit {
		if h {
			n++
		}
	}
	return float64(n) / float64(len(slow))
}
