package repair

import (
	"fmt"

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
	return repairTuples(in, sigma, cover, pinned, seed)
}
