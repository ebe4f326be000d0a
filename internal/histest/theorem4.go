package histest

import (
	"fmt"
	"math"

	"sampleunion/internal/relation"
	"sampleunion/internal/stats"
)

// Mode selects how Theorem 4's degree factors are instantiated.
type Mode int

const (
	// BoundMode uses maximum degrees: the result is a true upper bound
	// on the overlap (Theorem 4 as stated).
	BoundMode Mode = iota
	// AvgMode replaces maximum degrees with average degrees (§5.1's
	// refinement when full histograms are available): an estimate, not
	// a bound, and less biased under skew.
	AvgMode
)

// Bound evaluates the Theorem 4 recurrence for the overlap of the joins
// described by profiles, all of which must have the same chain length
// and join-attribute sequence (profile construction guarantees this for
// profiles built over one template):
//
//	K(1)  = Σ_v min_j d_{A1}(v, R_{j,1}) · d_{A1}(v, R_{j,2})
//	K(i)  = K(i-1) · min_j M_{j,i}          (M = 1 on fake joins)
//	|O_Δ| ≤ K(m-1)
func Bound(profiles []*Profile, mode Mode) (float64, error) {
	if len(profiles) == 0 {
		return 0, fmt.Errorf("histest: no profiles")
	}
	m := len(profiles[0].Entries)
	for _, p := range profiles[1:] {
		if len(p.Entries) != m {
			return 0, fmt.Errorf("histest: profile lengths differ (%d vs %d)", len(p.Entries), m)
		}
		for i := 1; i < m; i++ {
			if p.Entries[i].JoinAttr != profiles[0].Entries[i].JoinAttr {
				return 0, fmt.Errorf("histest: join attribute %d differs (%q vs %q)",
					i, p.Entries[i].JoinAttr, profiles[0].Entries[i].JoinAttr)
			}
		}
	}
	if m == 1 {
		// A single-relation chain: the trivial bound min_j |J_j|.
		min := math.Inf(1)
		for _, p := range profiles {
			if s := float64(p.Entries[0].Stats.Size) * p.Entries[0].PathFactor; s < min {
				min = s
			}
		}
		return min, nil
	}

	k, err := firstHop(profiles)
	if err != nil {
		return 0, err
	}
	for i := 2; i < m; i++ {
		factor, err := hopFactor(profiles, i, mode)
		if err != nil {
			return 0, err
		}
		k *= factor
		if k == 0 {
			return 0, nil
		}
	}
	return k, nil
}

// firstHop computes K(1): the per-value histogram product, minimized
// across joins, summed over the values common to every join's first two
// chain elements.
func firstHop(profiles []*Profile) (float64, error) {
	attr := profiles[0].Entries[1].JoinAttr
	// Iterate the values of the smallest histogram to keep the scan
	// proportional to the tightest domain.
	type hist struct{ h0, h1 histogramView }
	hs := make([]hist, len(profiles))
	smallest, smallestSize := -1, math.MaxInt
	for i, p := range profiles {
		h0, err := histView(p.Entries[0], attr)
		if err != nil {
			return 0, fmt.Errorf("histest: join %s: %w", p.Join.Name(), err)
		}
		h1, err := histView(p.Entries[1], attr)
		if err != nil {
			return 0, fmt.Errorf("histest: join %s: %w", p.Join.Name(), err)
		}
		hs[i] = hist{h0, h1}
		if n := h0.as.Distinct(); n < smallestSize {
			smallest, smallestSize = i, n
		}
	}
	sum := 0.0
	for _, v := range hs[smallest].h0.as.Values() {
		min := math.Inf(1)
		for i := range hs {
			term := hs[i].h0.degree(v) * hs[i].h1.degree(v)
			if term < min {
				min = term
			}
			if min == 0 {
				break
			}
		}
		sum += min
	}
	return sum, nil
}

// hopFactor computes min_j M_{j,i} for chain position i >= 2.
func hopFactor(profiles []*Profile, i int, mode Mode) (float64, error) {
	min := math.Inf(1)
	for _, p := range profiles {
		e := p.Entries[i]
		var f float64
		if e.Fake {
			f = 1 // fake join: the split rejoins one original relation
		} else {
			as, err := e.Stats.Attr(e.JoinAttr)
			if err != nil {
				return 0, fmt.Errorf("histest: join %s entry %d: %w", p.Join.Name(), i, err)
			}
			if mode == AvgMode {
				f = as.Avg()
			} else {
				f = float64(as.Max)
			}
			f *= e.PathFactor
		}
		if f < min {
			min = f
		}
	}
	return min, nil
}

// histogramView exposes an entry's degree function for one attribute,
// scaled by the entry's path factor.
type histogramView struct {
	as     *stats.AttrStats
	factor float64
}

func histView(e Entry, attr string) (histogramView, error) {
	as, err := e.Stats.Attr(attr)
	if err != nil {
		return histogramView{}, err
	}
	return histogramView{as, e.PathFactor}, nil
}

func (h histogramView) degree(v relation.Value) float64 {
	return float64(h.as.Degree(v)) * h.factor
}
