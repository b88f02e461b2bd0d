// Package repair implements the paper's repair algorithms: Repair_Data_FDs
// (Algorithm 1), the tuple-by-tuple V-instance data repair Repair_Data
// (Algorithm 4) with Find_Assignment (Algorithm 5), and the multi-repair
// generators of Section 7 (Range-Repair, Algorithm 6, and the
// Sampling-Repair baseline).
//
// The entry points are context-first: the FD-modification searches honor
// cancellation (returning context.Cause), Session.StreamRange delivers
// Range-Repair's frontier incrementally with Config.Progress observability,
// and validation failures are the structured errors of errors.go
// (ErrEmptyFDSet, ErrEmptyInstance, ErrSchemaMismatch wrappers).
package repair

import (
	"fmt"
	"math/rand"

	"relatrust/internal/fd"
	"relatrust/internal/relation"
	"relatrust/internal/session"
)

// DataRepair is the result of Repair_Data: a V-instance satisfying the
// target FD set, the cells changed relative to the input, and the vertex
// cover whose tuples were rewritten.
type DataRepair struct {
	Instance *relation.Instance
	Changed  []relation.CellRef
	Cover    []int32
}

// NumChanges returns |Δd(I, I′)|, the paper's data-repair distance.
func (d *DataRepair) NumChanges() int { return len(d.Changed) }

// RepairData implements Algorithm 4: it returns an instance that satisfies
// sigma, obtained from in by rewriting only tuples of a vertex cover of the
// conflict graph, changing at most min{|R|−1, |Σ|} cells per rewritten
// tuple (Theorem 3). If cover is nil, a 2-approximate minimum vertex cover
// is computed here; callers holding a cover from the FD search should pass
// it so the δP ≤ τ accounting matches exactly.
//
// The seed drives the random tuple and attribute orders the algorithm
// prescribes; fixed seeds give reproducible repairs. A non-nil eng shares
// its warm conflict-analysis arenas for the cover computation (it must be
// bound to in); nil uses a private engine. The engine is only consulted
// when cover is nil.
func RepairData(in *relation.Instance, sigma fd.Set, cover []int32, seed int64, eng *session.Engine) (*DataRepair, error) {
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
	rng := rand.New(rand.NewSource(seed))
	var vg relation.VarGen

	inCover := make(map[int32]bool, len(cover))
	for _, t := range cover {
		inCover[t] = true
	}
	ci := newCleanIndex(out, sigma, inCover)

	order := append([]int32(nil), cover...)
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })

	width := in.Schema.Width()
	// tc holds the last valid assignment and try the candidate under test;
	// a successful probe swaps them, so the loop allocates no tuples.
	tc, try := make(relation.Tuple, width), make(relation.Tuple, width)
	var changed []relation.CellRef
	for _, ti := range order {
		t := out.Tuples[ti]
		attrs := rng.Perm(width)

		fixed := relation.NewAttrSet(attrs[0])
		if !ci.findAssignment(t, fixed, &vg, tc) {
			// Theorem 3 shows a valid assignment always exists with one
			// fixed attribute; reaching here means the cover is not a
			// vertex cover of sigma's conflict graph.
			return nil, fmt.Errorf("repair: no valid assignment for tuple %d with a single fixed attribute; cover does not cover all conflicts", ti)
		}
		for _, a := range attrs[1:] {
			fixed = fixed.Add(a)
			if ci.findAssignment(t, fixed, &vg, try) {
				tc, try = try, tc
				continue
			}
			// No assignment keeps t[a]: adopt the previous valid
			// assignment's value for a (Algorithm 4, line 11).
			if !t[a].Equal(tc[a]) {
				t[a] = tc[a]
				changed = append(changed, relation.CellRef{Tuple: int(ti), Attr: a})
			}
		}
		ci.add(t)
	}
	// Safety net: a wrong cover (not actually covering every conflict)
	// would leave violations among the "clean" tuples that the per-tuple
	// loop never examines. One linear verification pass catches it.
	// FirstViolation reads cached code columns, so drop any built before
	// the in-place rewrites above (none today; this guards reordering).
	out.InvalidateCodes()
	if v := sigma.FirstViolation(out); v != nil {
		return nil, fmt.Errorf("repair: instance still violates %s between tuples %d and %d; the supplied cover is not a vertex cover",
			sigma[v.FD], v.T1, v.T2)
	}
	return &DataRepair{Instance: out, Changed: changed, Cover: cover}, nil
}

// cleanIndex indexes the satisfied part of the instance (I′ \ C2opt) per
// FD: LHS projection code → the unique RHS value of that group. Because the
// clean part satisfies sigma, the RHS value per code is single-valued.
// Projections are interned by per-FD ProjCoders over dictionaries shared
// across the FDs, so indexing and probing never build string keys.
type cleanIndex struct {
	sigma  fd.Set
	coders []*relation.ProjCoder
	idx    []map[int32]relation.Value
}

func newCleanIndex(in *relation.Instance, sigma fd.Set, inCover map[int32]bool) *cleanIndex {
	dicts := relation.NewDicts(in.Schema.Width())
	ci := &cleanIndex{
		sigma:  sigma,
		coders: make([]*relation.ProjCoder, len(sigma)),
		idx:    make([]map[int32]relation.Value, len(sigma)),
	}
	for i, f := range sigma {
		ci.coders[i] = relation.NewProjCoder(f.LHS, dicts)
		ci.idx[i] = make(map[int32]relation.Value, in.N())
	}
	for t := 0; t < in.N(); t++ {
		if inCover[int32(t)] {
			continue
		}
		ci.add(in.Tuples[t])
	}
	return ci
}

// add registers a tuple as clean.
func (ci *cleanIndex) add(t relation.Tuple) {
	for i, f := range ci.sigma {
		ci.idx[i][ci.coders[i].Code(t)] = t[f.RHS]
	}
}

// violation returns the first FD (in Σ order) that tc violates against some
// clean tuple, along with the clean side's RHS value. The non-interning
// Lookup keeps the fresh variables of candidate assignments out of the
// dictionaries: an unseen cell means no clean tuple can share the key.
func (ci *cleanIndex) violation(tc relation.Tuple) (fdIdx int, rhs relation.Value, found bool) {
	for i, f := range ci.sigma {
		k, ok := ci.coders[i].Lookup(tc)
		if !ok {
			continue
		}
		v, ok := ci.idx[i][k]
		if ok && !tc[f.RHS].Equal(v) {
			return i, v, true
		}
	}
	return 0, relation.Value{}, false
}

// findAssignment implements Algorithm 5: starting from tc agreeing with t
// on the fixed attributes and holding fresh variables elsewhere, it chases
// violations against the clean part, copying the clean RHS value whenever
// the violated FD's RHS is not fixed. The assignment is built in tc, which
// must have t's length. It returns false iff a violated FD's RHS is fixed —
// no valid assignment exists (Lemma 2: sound and complete) — and tc then
// holds no meaningful assignment.
func (ci *cleanIndex) findAssignment(t relation.Tuple, fixed relation.AttrSet, vg *relation.VarGen, tc relation.Tuple) bool {
	for a := range t {
		if fixed.Contains(a) {
			tc[a] = t[a]
		} else {
			tc[a] = vg.Fresh()
		}
	}
	for {
		fi, v, found := ci.violation(tc)
		if !found {
			return true
		}
		a := ci.sigma[fi].RHS
		if fixed.Contains(a) {
			return false
		}
		tc[a] = v
		fixed = fixed.Add(a)
	}
}
