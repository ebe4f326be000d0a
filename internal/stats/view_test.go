package stats

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"sampleunion/internal/relation"
)

// refAttr is the map-counting statistics builder the index views
// replaced: one pass over the live rows into a value -> count map. The
// differential test holds the views to it.
type refAttr struct {
	freq  map[relation.Value]int
	total int
	max   int
}

func buildRef(r *relation.Relation, pos int) refAttr {
	s := refAttr{freq: make(map[relation.Value]int)}
	for i := 0; i < r.Len(); i++ {
		if !r.Live(i) {
			continue
		}
		s.freq[r.Value(i, pos)]++
		s.total++
	}
	for _, c := range s.freq {
		s.max = max(s.max, c)
	}
	return s
}

func (s refAttr) avg() float64 {
	if len(s.freq) == 0 {
		return 0
	}
	return float64(s.total) / float64(len(s.freq))
}

func (s refAttr) values() []relation.Value {
	vs := make([]relation.Value, 0, len(s.freq))
	for v := range s.freq {
		vs = append(vs, v)
	}
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	return vs
}

// checkAgainstRef compares every attribute's view with the reference,
// probing each present value plus absent ones on both sides of the
// domain and in its gaps.
func checkAgainstRef(t *testing.T, step string, r *relation.Relation) {
	t.Helper()
	rs := Build(r)
	if rs.Size != r.LiveLen() {
		t.Fatalf("%s: Size = %d, want %d", step, rs.Size, r.LiveLen())
	}
	for pos := 0; pos < r.Arity(); pos++ {
		name := r.Schema().Attr(pos)
		got, err := rs.Attr(name)
		if err != nil {
			t.Fatalf("%s: Attr(%s): %v", step, name, err)
		}
		want := buildRef(r, pos)
		if got.Total != want.total || got.Max != want.max || got.Distinct() != len(want.freq) {
			t.Fatalf("%s/%s: Total/Max/Distinct = %d/%d/%d, want %d/%d/%d", step, name,
				got.Total, got.Max, got.Distinct(), want.total, want.max, len(want.freq))
		}
		if got.Avg() != want.avg() {
			t.Fatalf("%s/%s: Avg = %v, want %v", step, name, got.Avg(), want.avg())
		}
		if rs.MaxDegree(name) != want.max {
			t.Fatalf("%s/%s: MaxDegree = %d, want %d", step, name, rs.MaxDegree(name), want.max)
		}
		wantVals := want.values()
		if gotVals := got.Values(); !slices.Equal(gotVals, wantVals) {
			t.Fatalf("%s/%s: Values = %v, want %v", step, name, gotVals, wantVals)
		}
		probes := append([]relation.Value{-1, 1 << 40}, wantVals...)
		for _, v := range wantVals {
			probes = append(probes, v+1, v-1)
		}
		for _, v := range probes {
			if got.Degree(v) != want.freq[v] {
				t.Fatalf("%s/%s: Degree(%d) = %d, want %d", step, name, v, got.Degree(v), want.freq[v])
			}
		}
	}
}

// TestViewMatchesRecount drives a relation through appends, deletes,
// overlay-sized catch-ups, compactions past the overlay budget, and a
// log-overflowing burst, re-capturing the views after every step: each
// must equal a fresh recount of the live rows.
func TestViewMatchesRecount(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	r := relation.New("R", relation.NewSchema("k", "v"))
	row := func(domain int) relation.Tuple {
		return relation.Tuple{relation.Value(rng.Intn(domain)), relation.Value(rng.Intn(3 * domain))}
	}
	for i := 0; i < 400; i++ {
		r.Append(row(40))
	}
	checkAgainstRef(t, "initial", r)
	deleteSome := func(n int) {
		for d := 0; d < n; d++ {
			r.Delete(rng.Intn(r.Len()))
		}
	}
	// Small batches stay within the overlay budget (64 touched values).
	for step := 0; step < 6; step++ {
		r.Append(row(40))
		r.Append(relation.Tuple{relation.Value(1000 + step), 5})
		deleteSome(3)
		checkAgainstRef(t, "overlay", r)
	}
	// Delete every row of the most frequent key: max degree must drop.
	top := buildRef(r, 0)
	var heavy relation.Value
	for _, v := range top.values() {
		if top.freq[v] == top.max {
			heavy = v
			break
		}
	}
	for i := 0; i < r.Len(); i++ {
		if r.Live(i) && r.Value(i, 0) == heavy {
			r.Delete(i)
		}
	}
	checkAgainstRef(t, "heavy-deleted", r)
	// A burst touching more values than the budget forces compaction.
	for i := 0; i < 300; i++ {
		r.Append(row(2000))
	}
	deleteSome(50)
	checkAgainstRef(t, "compacted", r)
	// A burst past the retained mutation log forces a full rebuild.
	burst := make([]relation.Tuple, 5000)
	for i := range burst {
		burst[i] = row(500)
	}
	r.AppendRows(burst)
	deleteSome(200)
	checkAgainstRef(t, "rebuilt", r)
	// Deleting everything leaves empty but valid statistics.
	for i := 0; i < r.Len(); i++ {
		r.Delete(i)
	}
	checkAgainstRef(t, "emptied", r)
}

// TestViewIsASnapshot pins a captured view to its version: later
// mutations show in a new capture, never in the old one.
func TestViewIsASnapshot(t *testing.T) {
	r := fixture()
	before := BuildAttr(r, 0)
	r.Append(relation.Tuple{1, 40})
	r.Delete(3) // {2, 10}
	if before.Total != 5 || before.Degree(1) != 3 || before.Degree(2) != 1 || before.Distinct() != 3 {
		t.Errorf("captured view moved: Total %d, Degree(1) %d, Degree(2) %d, Distinct %d",
			before.Total, before.Degree(1), before.Degree(2), before.Distinct())
	}
	after := BuildAttr(r, 0)
	if after.Total != 5 || after.Degree(1) != 4 || after.Degree(2) != 0 || after.Max != 4 || after.Distinct() != 2 {
		t.Errorf("fresh view: Total %d, Degree(1) %d, Degree(2) %d, Max %d, Distinct %d",
			after.Total, after.Degree(1), after.Degree(2), after.Max, after.Distinct())
	}
	if vs := after.Values(); !slices.Equal(vs, []relation.Value{1, 3}) {
		t.Errorf("fresh Values = %v, want [1 3]", vs)
	}
}
