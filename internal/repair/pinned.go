package repair

import (
	"fmt"
	"math/rand"

	"relatrust/internal/fd"
	"relatrust/internal/relation"
	"relatrust/internal/session"
)

// RepairDataPinned is Repair_Data under hard constraints in the spirit of
// the paper's reference [3] ("… under hard constraints"): cells in pinned
// must keep their values — they are user-verified ground truth. The
// algorithm seeds each rewritten tuple's Fixed_Attrs with its pinned
// attributes, so the chase never overwrites them; if a violating tuple's
// pinned cells alone already contradict the clean part (no valid
// assignment exists even before any free attribute is fixed), the repair
// is infeasible and an error identifies the tuple.
//
// Pinning also constrains the vertex cover: a conflict edge between two
// fully-pinned tuples cannot be repaired at all.
//
// A non-nil eng shares its warm conflict-analysis arenas for the cover
// computation (it must be bound to in); nil uses a private engine.
func RepairDataPinned(in *relation.Instance, sigma fd.Set, pinned map[relation.CellRef]bool, seed int64, eng *session.Engine) (*DataRepair, error) {
	eng, err := session.For(eng, in)
	if err != nil {
		return nil, fmt.Errorf("repair: %w", err)
	}
	an := eng.Acquire(sigma)
	hasPin := make(map[int32]bool)
	for c := range pinned {
		if pinned[c] {
			hasPin[int32(c.Tuple)] = true
		}
	}
	cover := an.CoverAvoiding(nil, func(t int32) bool { return hasPin[t] })
	eng.Release(an)
	out := in.Clone()
	rng := rand.New(rand.NewSource(seed))
	var vg relation.VarGen

	inCover := make(map[int32]bool, len(cover))
	for _, t := range cover {
		inCover[t] = true
	}
	ci := newCleanIndex(out, sigma, inCover)

	pinnedAttrsOf := func(ti int32) relation.AttrSet {
		var s relation.AttrSet
		for a := 0; a < in.Schema.Width(); a++ {
			if pinned[relation.CellRef{Tuple: int(ti), Attr: a}] {
				s = s.Add(a)
			}
		}
		return s
	}

	order := append([]int32(nil), cover...)
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })

	width := in.Schema.Width()
	tc, try := make(relation.Tuple, width), make(relation.Tuple, width) // see RepairData
	var changed []relation.CellRef
	for _, ti := range order {
		t := out.Tuples[ti]
		pin := pinnedAttrsOf(ti)
		attrs := rng.Perm(width)

		fixed := pin
		if fixed.IsEmpty() {
			fixed = relation.NewAttrSet(attrs[0])
		}
		if !ci.findAssignment(t, fixed, &vg, tc) {
			return nil, fmt.Errorf("repair: tuple %d cannot be repaired: its pinned cells %s conflict with the clean part of the instance",
				ti, pin)
		}
		for _, a := range attrs {
			if fixed.Contains(a) {
				continue
			}
			fixed = fixed.Add(a)
			if ci.findAssignment(t, fixed, &vg, try) {
				tc, try = try, tc
				continue
			}
			if !t[a].Equal(tc[a]) {
				t[a] = tc[a]
				changed = append(changed, relation.CellRef{Tuple: int(ti), Attr: a})
			}
		}
		ci.add(t)
	}
	out.InvalidateCodes() // the loop above rewrote cells in place
	if v := sigma.FirstViolation(out); v != nil {
		return nil, fmt.Errorf("repair: instance still violates %s between tuples %d and %d after pinned repair",
			sigma[v.FD], v.T1, v.T2)
	}
	return &DataRepair{Instance: out, Changed: changed, Cover: cover}, nil
}
