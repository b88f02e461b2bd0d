package repair

import (
	"fmt"
	"math/rand"

	"relatrust/internal/fd"
	"relatrust/internal/relation"
	"relatrust/internal/session"
)

// RepairDataCellwise is the cell-by-cell repair variant in the style of
// the paper's reference [3] (Beskales et al., "Sampling the repairs of
// functional dependency violations", PVLDB 2010). Section 6 of the paper
// positions Algorithm 4 as a tuple-by-tuple variant of that algorithm;
// this implementation provides the original flavor as an ablation
// baseline: instead of sweeping every attribute of a dirty tuple, it
// chases only the cells that actually participate in a violation —
// setting the violated FD's RHS to the clean side's value, or, when that
// cell was already forced, breaking the LHS agreement with a fresh
// variable.
//
// It produces a valid repair (the output satisfies sigma) but, unlike
// Algorithm 4, carries no min{|R|−1, |Σ|} per-tuple change bound — the
// trade-off the paper's design sidesteps, measurable with the ablation
// benchmarks. A non-nil eng shares its warm conflict-analysis arenas for
// the cover computation (it must be bound to in); nil uses a private one.
func RepairDataCellwise(in *relation.Instance, sigma fd.Set, cover []int32, seed int64, eng *session.Engine) (*DataRepair, error) {
	if cover == nil {
		eng, err := session.For(eng, in)
		if err != nil {
			return nil, fmt.Errorf("repair: %w", err)
		}
		an := eng.Acquire(sigma)
		cover = an.Cover(nil)
		eng.Release(an)
	}
	out := in.Clone()
	ci := newCleanIndex(in, out, sigma, cover)
	rng := rand.New(rand.NewSource(seed))
	order := shuffled(rng, cover)

	code := make([]int32, in.Schema.Width())
	var changed []relation.CellRef
	for _, ti := range order {
		t := out.Tuples[ti]
		ci.codesOf(ti, code)
		var forced relation.AttrSet // RHS cells already copied once
		steps := 0
		maxSteps := 2 * len(t) * (len(sigma) + 1)
		for {
			fi, e, found := ci.violation(code)
			if !found {
				break
			}
			if steps++; steps > maxSteps {
				return nil, fmt.Errorf("repair: cellwise chase did not converge on tuple %d", ti)
			}
			f := sigma[fi]
			if !forced.Contains(f.RHS) {
				// First resolution for this RHS: adopt the clean value.
				if v := ci.rows[e.tuple][f.RHS]; !t[f.RHS].Equal(v) {
					t[f.RHS], code[f.RHS] = v, e.rhs
					changed = append(changed, relation.CellRef{Tuple: int(ti), Attr: f.RHS})
				}
				forced = forced.Add(f.RHS)
				continue
			}
			// The RHS was already forced by another group or FD; break
			// the LHS agreement instead, choosing a random LHS cell.
			attrs := f.LHS.Attrs()
			b := attrs[rng.Intn(len(attrs))]
			t[b], code[b] = ci.fresh(b)
			changed = append(changed, relation.CellRef{Tuple: int(ti), Attr: b})
		}
		ci.add(ti, code)
	}
	if err := checkRepair(in, out, sigma); err != nil {
		return nil, err
	}
	return &DataRepair{Instance: out, Changed: dedupCells(changed), Cover: cover}, nil
}

// dedupCells collapses repeated writes to one cell (the chase may force
// the same RHS twice through different FDs) so NumChanges matches
// |Δd(I, I′)|. The first occurrence's position is kept.
func dedupCells(cells []relation.CellRef) []relation.CellRef {
	seen := make(map[relation.CellRef]bool, len(cells))
	out := cells[:0]
	for _, c := range cells {
		if seen[c] {
			continue
		}
		seen[c] = true
		out = append(out, c)
	}
	return out
}
