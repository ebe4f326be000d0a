package stats

import (
	"math"
	"testing"

	"sampleunion/internal/relation"
)

func fixture() *relation.Relation {
	s := relation.NewSchema("k", "v")
	return relation.MustFromTuples("R", s, []relation.Tuple{
		{1, 10}, {1, 20}, {1, 30}, {2, 10}, {3, 10},
	})
}

func TestBuildAttr(t *testing.T) {
	r := fixture()
	a := BuildAttr(r, 0)
	if a.Attr != "k" {
		t.Errorf("Attr = %q", a.Attr)
	}
	if a.Total != 5 {
		t.Errorf("Total = %d, want 5", a.Total)
	}
	if a.Max != 3 {
		t.Errorf("Max = %d, want 3", a.Max)
	}
	if a.Distinct() != 3 {
		t.Errorf("Distinct = %d, want 3", a.Distinct())
	}
	if a.Degree(1) != 3 || a.Degree(2) != 1 || a.Degree(9) != 0 {
		t.Errorf("Degree wrong: %d %d %d", a.Degree(1), a.Degree(2), a.Degree(9))
	}
	if got := a.Avg(); math.Abs(got-5.0/3.0) > 1e-12 {
		t.Errorf("Avg = %f", got)
	}
	vs := a.Values()
	if len(vs) != 3 || vs[0] != 1 || vs[1] != 2 || vs[2] != 3 {
		t.Errorf("Values = %v", vs)
	}
}

func TestEmptyAttr(t *testing.T) {
	r := relation.New("E", relation.NewSchema("x"))
	a := BuildAttr(r, 0)
	if a.Total != 0 || a.Max != 0 || a.Avg() != 0 || a.Distinct() != 0 {
		t.Errorf("empty stats wrong: %+v", a)
	}
}

func TestBuildRelStats(t *testing.T) {
	rs := Build(fixture())
	if rs.Size != 5 {
		t.Errorf("Size = %d", rs.Size)
	}
	for _, name := range []string{"k", "v"} {
		if a, err := rs.Attr(name); err != nil || a.Attr != name || a.Total != 5 {
			t.Fatalf("Attr(%s) = %+v, %v", name, a, err)
		}
	}
	if _, err := rs.Attr("k"); err != nil {
		t.Errorf("Attr(k): %v", err)
	}
	if _, err := rs.Attr("nope"); err == nil {
		t.Error("Attr(nope) succeeded")
	}
	if rs.MaxDegree("v") != 3 {
		t.Errorf("MaxDegree(v) = %d, want 3 (value 10 thrice)", rs.MaxDegree("v"))
	}
	if rs.MaxDegree("nope") != 0 {
		t.Errorf("MaxDegree(nope) = %d, want 0", rs.MaxDegree("nope"))
	}
}

func TestMinAggregates(t *testing.T) {
	r1 := relation.MustFromTuples("A", relation.NewSchema("k"), []relation.Tuple{{1}, {1}, {2}})
	r2 := relation.MustFromTuples("B", relation.NewSchema("k"), []relation.Tuple{{1}, {2}, {3}, {3}, {3}})
	ss := []*RelStats{Build(r1), Build(r2)}
	if got := MinMaxDegree(ss, "k"); got != 2 {
		t.Errorf("MinMaxDegree = %d, want 2", got)
	}
	if got := MinMaxDegree(nil, "k"); got != 0 {
		t.Errorf("MinMaxDegree(nil) = %d", got)
	}
	// avg degrees: A = 3/2 = 1.5, B = 5/3 ≈ 1.67; min = 1.5
	if got := MinAvgDegree(ss, "k"); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("MinAvgDegree = %f, want 1.5", got)
	}
	if got := MinAvgDegree(ss, "nope"); got != 0 {
		t.Errorf("MinAvgDegree(nope) = %f", got)
	}
}
