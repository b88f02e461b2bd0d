// Package weights implements the weighting functions w(Y) that price an
// LHS extension Y of an FD (Section 3.1 of the paper). All implementations
// are non-negative and monotone (X ⊆ Y ⟹ w(X) ≤ w(Y)), which the search
// relies on for pruning, and they evaluate against the *initial* instance
// only — the paper's simplifying assumption that repairing a small number
// of cells does not materially change attribute statistics.
package weights

import (
	"fmt"
	"math"

	"relatrust/internal/relation"
)

// Func prices an attribute-set extension. Implementations must be
// non-negative, monotone, and return 0 for the empty set.
type Func interface {
	// Weight returns w(Y).
	Weight(y relation.AttrSet) float64
	// Name identifies the function in reports.
	Name() string
}

// AttrCount is the simplest weighting: w(Y) = |Y|.
type AttrCount struct{}

// Weight returns the number of attributes in y.
func (AttrCount) Weight(y relation.AttrSet) float64 { return float64(y.Len()) }

// Name implements Func.
func (AttrCount) Name() string { return "attr-count" }

// DistinctCount prices Y by the number of distinct values of the projection
// Π_Y(I) — the paper's experimental choice: the more informative an
// attribute set, the more expensive it is to append (a near-key makes the
// FD almost trivially satisfied, which should be discouraged). Results are
// memoized per attribute set; the zero value is not usable, construct with
// NewDistinctCount.
type DistinctCount struct {
	in    *relation.Instance
	part  *relation.Partitioner
	cache map[relation.AttrSet]float64
}

// NewDistinctCount builds a distinct-value weighting bound to an instance.
func NewDistinctCount(in *relation.Instance) *DistinctCount {
	return &DistinctCount{
		in:    in,
		part:  relation.NewPartitioner(in),
		cache: make(map[relation.AttrSet]float64),
	}
}

// Weight returns |Π_Y(I)|, and 0 for the empty set. Distinct projections
// are counted as groups of a code-based partition refinement, not by
// materializing projection keys.
func (d *DistinctCount) Weight(y relation.AttrSet) float64 {
	if y.IsEmpty() {
		return 0
	}
	if w, ok := d.cache[y]; ok {
		return w
	}
	d.part.BeginAll()
	d.part.RefineSet(y)
	w := float64(d.part.Partition().NumGroups())
	d.cache[y] = w
	return w
}

// Name implements Func.
func (d *DistinctCount) Name() string { return "distinct-count" }

// Entropy prices Y by the Shannon entropy (in bits) of the empirical
// distribution of Π_Y(I): another "informativeness" metric the paper
// suggests. Entropy is monotone under projection refinement, so the Func
// contract holds. Construct with NewEntropy.
type Entropy struct {
	in    *relation.Instance
	part  *relation.Partitioner
	cache map[relation.AttrSet]float64
}

// NewEntropy builds an entropy weighting bound to an instance.
func NewEntropy(in *relation.Instance) *Entropy {
	return &Entropy{
		in:    in,
		part:  relation.NewPartitioner(in),
		cache: make(map[relation.AttrSet]float64),
	}
}

// Weight returns H(Π_Y(I)) in bits, and 0 for the empty set. Group sizes
// come from a code-based partition refinement.
func (e *Entropy) Weight(y relation.AttrSet) float64 {
	if y.IsEmpty() {
		return 0
	}
	if w, ok := e.cache[y]; ok {
		return w
	}
	n := e.in.N()
	if n == 0 {
		return 0
	}
	e.part.BeginAll()
	e.part.RefineSet(y)
	pt := e.part.Partition()
	h := 0.0
	for gi := 0; gi < pt.NumGroups(); gi++ {
		p := float64(len(pt.Group(gi))) / float64(n)
		h -= p * math.Log2(p)
	}
	if h < 0 { // guard against -0 from rounding
		h = 0
	}
	e.cache[y] = h
	return h
}

// Name implements Func.
func (e *Entropy) Name() string { return "entropy" }

// VectorCost sums a weighting over an extension vector:
// dist_c(Σ, Σ′) = Σ_Y∈Δc(Σ,Σ′) w(Y).
func VectorCost(w Func, ext []relation.AttrSet) float64 {
	total := 0.0
	for _, y := range ext {
		total += w.Weight(y)
	}
	return total
}

// Canonical returns the report name of the weighting a name selects,
// resolving the short aliases ByName accepts.
func Canonical(name string) (string, error) {
	switch name {
	case "attr-count", "count", "":
		return "attr-count", nil
	case "distinct-count", "distinct":
		return "distinct-count", nil
	case "entropy", "mdl":
		return name, nil
	}
	return "", fmt.Errorf("weights: unknown weighting %q (want attr-count, distinct-count, entropy, or mdl)", name)
}

// ByName constructs a weighting by its report name; instance-backed
// weightings are bound to in.
func ByName(name string, in *relation.Instance) (Func, error) {
	canon, err := Canonical(name)
	if err != nil {
		return nil, err
	}
	switch canon {
	case "distinct-count":
		return NewDistinctCount(in), nil
	case "entropy":
		return NewEntropy(in), nil
	case "mdl":
		return NewMDL(in), nil
	}
	return AttrCount{}, nil
}
