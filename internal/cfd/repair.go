package cfd

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"relatrust/internal/fd"
	"relatrust/internal/relation"
	"relatrust/internal/search"
	"relatrust/internal/session"
	"relatrust/internal/weights"
)

// Repair is one suggested CFD-and-data repair.
type Repair struct {
	// Set is the relaxed CFD set (wildcard attributes appended to LHSs).
	Set Set
	// Ext is the per-CFD appended attribute vector.
	Ext []relation.AttrSet
	// FDCost is the weighting of the appended attributes.
	FDCost float64
	// Instance is the repaired V-instance satisfying Set.
	Instance *relation.Instance
	// Changed lists the modified cells.
	Changed []relation.CellRef
	// Tau is the budget this repair was generated under.
	Tau int
}

// NumChanges returns |Δd(I, I′)|.
func (r *Repair) NumChanges() int { return len(r.Changed) }

// String summarizes the repair.
func (r *Repair) String() string {
	exts := make([]string, len(r.Ext))
	for i, y := range r.Ext {
		exts[i] = y.String()
	}
	return fmt.Sprintf("τ=%d: ext=[%s], cost=%.3g, changes=%d",
		r.Tau, strings.Join(exts, " "), r.FDCost, len(r.Changed))
}

// Config mirrors the FD repair configuration.
type Config struct {
	Weights weights.Func
	Seed    int64
	Search  search.Options
	// Engine, when non-nil, supplies the shared repair-session engine
	// (bound to the repaired instance); repeated budget runs over the
	// same CFD set then fork one filtered analysis instead of rebuilding
	// it. Nil builds a private engine.
	Engine *session.Engine
}

// RepairWithBudget finds the minimal relaxation of the CFD set whose
// certified repair budget fits tau and materializes the data repair —
// Algorithm 1 of the paper lifted to CFDs (the paper's Section 10
// future-work direction). Single-tuple pattern violations cannot be
// resolved by any relaxation, so they charge the budget up front; pair
// violations go through the same conflict-cover search as plain FDs,
// restricted to pattern-matching tuples. Cancelling ctx aborts the
// relaxation search with context.Cause(ctx).
func RepairWithBudget(ctx context.Context, in *relation.Instance, set Set, tau int, cfg Config) (*Repair, error) {
	if len(set) == 0 {
		return nil, fmt.Errorf("cfd: empty CFD set")
	}
	if cfg.Weights == nil {
		cfg.Weights = weights.AttrCount{}
	}
	if cfg.Search == (search.Options{}) {
		// The gc heuristic's difference-set reasoning is FD-shaped; CFD
		// search defaults to the exhaustive-but-sound best-first mode.
		cfg.Search.BestFirst = true
	}

	embedded := make(fd.Set, len(set))
	filters := make([]func(relation.Tuple) bool, len(set))
	for i, c := range set {
		embedded[i] = c.Embedded
		cc := c
		filters[i] = cc.Matches
	}
	eng, err := session.For(cfg.Engine, in)
	if err != nil {
		return nil, fmt.Errorf("cfd: %w", err)
	}
	// The pattern rendering identifies the filters' semantics: two CFD
	// sets with the same embedded FDs and the same patterns restrict the
	// analysis to the same tuples.
	an := eng.AcquireFiltered(embedded, filters, set.Format(in.Schema))
	defer eng.Release(an)

	singles := singleViolators(in, set)
	alpha := in.Schema.Width() - 1
	if len(set) < alpha {
		alpha = len(set)
	}
	if alpha < 1 {
		alpha = 1
	}
	searchBudget := tau - alpha*len(singles)
	if searchBudget < 0 {
		return nil, nil // even relaxing everything cannot fit the budget
	}

	sr := search.NewSearcher(an, cfg.Weights, cfg.Search)
	res, err := sr.Find(ctx, searchBudget)
	if err != nil {
		return nil, err
	}
	if res == nil {
		return nil, nil
	}

	relaxed := make(Set, len(set))
	for i, c := range set {
		rc, err := c.Extend(res.State[i].Diff(c.Embedded.LHS).Remove(c.Embedded.RHS))
		if err != nil {
			return nil, err
		}
		relaxed[i] = rc
	}

	cover := an.Cover(res.State)
	inst, changed, err := materialize(in, relaxed, cover, singles, cfg.Seed)
	if err != nil {
		return nil, err
	}
	if len(changed) > tau {
		return nil, fmt.Errorf("cfd: internal error: %d changes exceed τ=%d", len(changed), tau)
	}
	return &Repair{
		Set:      relaxed,
		Ext:      res.State,
		FDCost:   res.Cost,
		Instance: inst,
		Changed:  changed,
		Tau:      tau,
	}, nil
}

// singleViolators returns the tuples violating a constant RHS pattern.
func singleViolators(in *relation.Instance, set Set) []int32 {
	seen := make(map[int32]bool)
	var out []int32
	for _, c := range set {
		if c.RHSPattern == "" {
			continue
		}
		for t := 0; t < in.N(); t++ {
			if !seen[int32(t)] && c.SingleViolation(in.Tuples[t]) {
				seen[int32(t)] = true
				out = append(out, int32(t))
			}
		}
	}
	return out
}

// materialize rewrites the cover tuples and the single violators so the
// result satisfies the relaxed CFD set — the tuple-by-tuple repair of
// Algorithm 4 with a pattern-aware clean index.
func materialize(in *relation.Instance, set Set, cover, singles []int32, seed int64) (*relation.Instance, []relation.CellRef, error) {
	out := in.Clone()
	rng := rand.New(rand.NewSource(seed))
	vg := relation.VarGenAfter(in)

	dirty := make(map[int32]bool, len(cover)+len(singles))
	for _, t := range cover {
		dirty[t] = true
	}
	for _, t := range singles {
		dirty[t] = true
	}
	ci := newCFDIndex(out, set, dirty)

	order := make([]int32, 0, len(dirty))
	for t := range dirty {
		order = append(order, t)
	}
	// Deterministic base order before shuffling (map iteration is random).
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && order[j-1] > order[j]; j-- {
			order[j-1], order[j] = order[j], order[j-1]
		}
	}
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })

	width := in.Schema.Width()
	var changed []relation.CellRef
	for _, ti := range order {
		t := out.Tuples[ti]
		attrs := rng.Perm(width)
		fixed := relation.NewAttrSet(attrs[0])
		tc, ok := ci.findAssignment(t, fixed, &vg)
		if !ok {
			return nil, nil, fmt.Errorf("cfd: no valid assignment for tuple %d with one fixed attribute", ti)
		}
		for _, a := range attrs[1:] {
			fixed = fixed.Add(a)
			if tc2, ok := ci.findAssignment(t, fixed, &vg); ok {
				tc = tc2
				continue
			}
			if !t[a].Equal(tc[a]) {
				t[a] = tc[a]
				changed = append(changed, relation.CellRef{Tuple: int(ti), Attr: a})
			}
		}
		ci.add(t)
	}
	// SatisfiedBy reads cached code columns, so drop any built before the
	// in-place rewrites above (none today; this guards reordering).
	out.InvalidateCodes()
	if !set.SatisfiedBy(out) {
		return nil, nil, fmt.Errorf("cfd: repair left violations; cover or singles incomplete")
	}
	return out, changed, nil
}

// cfdIndex is the pattern-aware clean index: per CFD, the RHS value of
// each LHS projection code among clean matching tuples. Projections are
// interned by per-CFD ProjCoders over shared dictionaries instead of
// building string keys.
type cfdIndex struct {
	set    Set
	coders []*relation.ProjCoder
	idx    []map[int32]relation.Value
}

func newCFDIndex(in *relation.Instance, set Set, dirty map[int32]bool) *cfdIndex {
	dicts := relation.NewDicts(in.Schema.Width())
	ci := &cfdIndex{
		set:    set,
		coders: make([]*relation.ProjCoder, len(set)),
		idx:    make([]map[int32]relation.Value, len(set)),
	}
	for i, c := range set {
		ci.coders[i] = relation.NewProjCoder(c.Embedded.LHS, dicts)
		ci.idx[i] = make(map[int32]relation.Value, in.N())
	}
	for t := 0; t < in.N(); t++ {
		if dirty[int32(t)] {
			continue
		}
		ci.add(in.Tuples[t])
	}
	return ci
}

func (ci *cfdIndex) add(t relation.Tuple) {
	for i, c := range ci.set {
		if c.Matches(t) {
			ci.idx[i][ci.coders[i].Code(t)] = t[c.Embedded.RHS]
		}
	}
}

// violation returns the first CFD (in set order) violated by tc against a
// clean tuple or a constant RHS pattern, with the value tc's RHS must take.
func (ci *cfdIndex) violation(tc relation.Tuple) (int, relation.Value, bool) {
	for i, c := range ci.set {
		if !c.Matches(tc) {
			continue
		}
		rhs := tc[c.Embedded.RHS]
		if c.RHSPattern != "" && (rhs.IsVar() || rhs.Str() != c.RHSPattern) {
			return i, relation.Const(c.RHSPattern), true
		}
		if k, ok := ci.coders[i].Lookup(tc); ok {
			if v, ok := ci.idx[i][k]; ok && !rhs.Equal(v) {
				return i, v, true
			}
		}
	}
	return 0, relation.Value{}, false
}

func (ci *cfdIndex) findAssignment(t relation.Tuple, fixed relation.AttrSet, vg *relation.VarGen) (relation.Tuple, bool) {
	tc := make(relation.Tuple, len(t))
	for a := range t {
		if fixed.Contains(a) {
			tc[a] = t[a]
		} else {
			tc[a] = vg.Fresh()
		}
	}
	for step := 0; step <= len(t)+len(ci.set); step++ {
		fi, v, found := ci.violation(tc)
		if !found {
			return tc, true
		}
		a := ci.set[fi].Embedded.RHS
		if fixed.Contains(a) {
			return nil, false
		}
		tc[a] = v
		fixed = fixed.Add(a)
	}
	return nil, false
}
