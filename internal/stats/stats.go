// Package stats exposes the column statistics that the histogram-based
// estimation of §5 consumes: per-attribute value-frequency histograms,
// maximum degrees (Olken's M_A(R)), and average degrees. These mirror
// the histogram statistics DBMSs maintain for cardinality estimation,
// which is exactly the decentralized setting the paper targets: overlap
// estimation from metadata alone, without touching the data.
//
// The statistics are read-only views over the per-attribute indexes
// each relation already maintains under mutation (relation.Index), not
// a separate scan: a view captures one immutable, versioned index, so
// its figures describe one snapshot, and re-reading statistics after an
// append costs the index catch-up instead of a recount of the relation.
package stats

import (
	"fmt"
	"slices"

	"sampleunion/internal/relation"
)

// AttrStats summarizes the value distribution of one attribute: a view
// over the attribute's index at the version it was captured.
type AttrStats struct {
	Attr  string // attribute name
	Total int    // number of rows
	Max   int    // maximum degree, M_A(R)
	ix    *relation.Index
}

// BuildAttr captures the statistics of the attribute at position pos of
// r, building or catching up its index as needed.
func BuildAttr(r *relation.Relation, pos int) *AttrStats {
	ix := r.Index(pos)
	s := &AttrStats{Attr: r.Schema().Attr(pos), Max: ix.MaxDegree(), ix: ix}
	for e := 0; e < ix.NumEntries(); e++ {
		s.Total += len(ix.RowsAt(e))
	}
	return s
}

// Degree returns the frequency of v (0 when absent).
func (s *AttrStats) Degree(v relation.Value) int { return s.ix.Degree(v) }

// Distinct reports the number of distinct values.
func (s *AttrStats) Distinct() int { return s.ix.Distinct() }

// Avg returns the average degree (rows per distinct value), 0 when empty.
func (s *AttrStats) Avg() float64 {
	if s.Total == 0 {
		return 0
	}
	return float64(s.Total) / float64(s.Distinct())
}

// Values returns the distinct values in sorted order, for deterministic
// iteration in estimators and tests.
func (s *AttrStats) Values() []relation.Value {
	vs := make([]relation.Value, 0, s.Distinct())
	for e := 0; e < s.ix.NumEntries(); e++ {
		if len(s.ix.RowsAt(e)) > 0 {
			vs = append(vs, s.ix.ValueAt(e))
		}
	}
	slices.Sort(vs)
	return vs
}

// RelStats bundles the statistics of every attribute of a relation.
// It is the "limited metadata" a data market would expose. Attribute
// views are captured on first use; a RelStats belongs to one goroutine.
type RelStats struct {
	Name  string
	Size  int
	rel   *relation.Relation
	attrs map[string]*AttrStats
}

// Build returns the statistics of r; attribute views are captured when
// first asked for.
func Build(r *relation.Relation) *RelStats {
	return &RelStats{Name: r.Name(), Size: r.LiveLen(), rel: r, attrs: make(map[string]*AttrStats)}
}

// Attr returns the statistics for the named attribute or an error.
func (rs *RelStats) Attr(name string) (*AttrStats, error) {
	if a, ok := rs.attrs[name]; ok {
		return a, nil
	}
	pos := rs.rel.Schema().Index(name)
	if pos < 0 {
		return nil, fmt.Errorf("stats: relation %s has no attribute %q", rs.Name, name)
	}
	a := BuildAttr(rs.rel, pos)
	rs.attrs[name] = a
	return a, nil
}

// MaxDegree returns M_A(R) for the named attribute (0 when absent, which
// is the correct degenerate bound for a missing join attribute).
func (rs *RelStats) MaxDegree(attr string) int {
	if a, err := rs.Attr(attr); err == nil {
		return a.Max
	}
	return 0
}

// MinMaxDegree returns min over the given stats of M_attr — the
// min_j M_{A_i}(R_{j,i+1}) factor of §5.1. It returns 0 if ss is empty.
func MinMaxDegree(ss []*RelStats, attr string) int {
	min := 0
	for i, rs := range ss {
		m := rs.MaxDegree(attr)
		if i == 0 || m < min {
			min = m
		}
	}
	return min
}

// MinAvgDegree returns min over the given stats of the average degree of
// attr — the refinement of §5.1 when full histograms are available.
func MinAvgDegree(ss []*RelStats, attr string) float64 {
	min := 0.0
	for i, rs := range ss {
		var v float64
		if a, err := rs.Attr(attr); err == nil {
			v = a.Avg()
		}
		if i == 0 || v < min {
			min = v
		}
	}
	return min
}
