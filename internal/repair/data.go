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
//
// The clean index and Find_Assignment run on in's cached code columns
// (Instance.Codes), which a long-lived session instance keeps warm across
// requests; fresh variables are numbered above every variable of in. The
// result ends with a full FirstViolation pass of sigma whose codes are
// derived from the output's cell values (see checkRepair): a cover that is
// not a vertex cover is reported as ErrNotVertexCover.
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
	return repairTuples(in, sigma, cover, nil, seed)
}

// repairTuples is the tuple-by-tuple loop of Algorithm 4, shared by
// RepairData (no pins) and RepairDataPinned. Each cover tuple, in a
// seeded random order, starts from its pinned attributes as Fixed_Attrs —
// or, with none pinned, from the first of a random attribute permutation —
// and fixes the remaining attributes one by one, adopting the last valid
// assignment's value wherever fixing an attribute admits none.
func repairTuples(in *relation.Instance, sigma fd.Set, cover []int32, pinned map[relation.CellRef]bool, seed int64) (*DataRepair, error) {
	out := in.Clone()
	ci := newCleanIndex(in, out, sigma, cover)
	rng := rand.New(rand.NewSource(seed))
	order := shuffled(rng, cover)

	width := in.Schema.Width()
	// tc holds the last valid assignment and try the candidate under test,
	// each with its code tuple; a successful probe swaps them, so the loop
	// allocates no tuples. code is the code tuple of the tuple rewritten.
	tc, try := make(relation.Tuple, width), make(relation.Tuple, width)
	tcc, tryc, code := make([]int32, width), make([]int32, width), make([]int32, width)
	var changed []relation.CellRef
	for _, ti := range order {
		t := out.Tuples[ti]
		ci.codesOf(ti, code)
		var pin relation.AttrSet
		for a := 0; len(pinned) > 0 && a < width; a++ {
			if pinned[relation.CellRef{Tuple: int(ti), Attr: a}] {
				pin = pin.Add(a)
			}
		}
		attrs := rng.Perm(width)

		fixed := pin
		if fixed.IsEmpty() {
			fixed = relation.NewAttrSet(attrs[0])
		}
		if !ci.findAssignment(t, code, fixed, tc, tcc) {
			if pin.IsEmpty() {
				// Theorem 3 shows a valid assignment always exists with
				// one fixed attribute; reaching here means the cover is not
				// a vertex cover of sigma's conflict graph.
				return nil, fmt.Errorf("%w: no valid assignment for tuple %d with a single fixed attribute", ErrNotVertexCover, ti)
			}
			return nil, fmt.Errorf("repair: tuple %d cannot be repaired: its pinned cells %s conflict with the clean part of the instance",
				ti, pin)
		}
		for _, a := range attrs {
			if fixed.Contains(a) {
				continue
			}
			fixed = fixed.Add(a)
			if ci.findAssignment(t, code, fixed, try, tryc) {
				tc, try = try, tc
				tcc, tryc = tryc, tcc
				continue
			}
			// No assignment keeps t[a]: adopt the previous valid
			// assignment's value for a (Algorithm 4, line 11).
			if !t[a].Equal(tc[a]) {
				t[a], code[a] = tc[a], tcc[a]
				changed = append(changed, relation.CellRef{Tuple: int(ti), Attr: a})
			}
		}
		ci.add(ti, code)
	}
	if err := checkRepair(in, out, sigma); err != nil {
		return nil, err
	}
	return &DataRepair{Instance: out, Changed: changed, Cover: cover}, nil
}

// shuffled returns the cover in the random order its tuples are
// rewritten.
func shuffled(rng *rand.Rand, cover []int32) []int32 {
	order := append([]int32(nil), cover...)
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	return order
}

// checkRepair is the safety net of the data repairs: a wrong cover (not
// actually covering every conflict) would leave violations among the
// "clean" tuples that the per-tuple loop never examines, so one full
// FirstViolation pass of sigma over out catches it. Its code columns are
// derived from cell values alone, never from the repair loop's own code
// bookkeeping: each column of sigma starts from in's codes, and every cell
// whose value differs from in's is re-coded through a dictionary of the
// column's distinct input values, a value absent from the input getting a
// new code. The columns are installed on out, which keeps them.
func checkRepair(in, out *relation.Instance, sigma fd.Set) error {
	attrs := sigma.AttrsUsed().Attrs()
	diff := make([][]int32, len(attrs)) // per attribute: rows whose cell differs
	for t, tup := range out.Tuples {
		orig := in.Tuples[t]
		for i, a := range attrs {
			if !tup[a].Equal(orig[a]) {
				diff[i] = append(diff[i], int32(t))
			}
		}
	}
	for i, a := range attrs {
		col, n := in.Codes(a)
		if len(diff[i]) > 0 {
			dict := distinctValues(in, a, col, n)
			col = append([]int32(nil), col...)
			for _, t := range diff[i] {
				v := out.Tuples[t][a]
				c, ok := dict[v]
				if !ok {
					c = n
					n++
					dict[v] = c
				}
				col[t] = c
			}
		}
		out.SetCodes(a, col, n)
	}
	if v := sigma.FirstViolation(out); v != nil {
		return fmt.Errorf("%w: instance still violates %s between tuples %d and %d", ErrNotVertexCover, sigma[v.FD], v.T1, v.T2)
	}
	return nil
}

// distinctValues maps each distinct value of column a of in to its code in
// col, the column's code column with n codes. Value's == coincides with
// Equal (see relation.Dict), so Values key the map directly.
func distinctValues(in *relation.Instance, a int, col []int32, n int32) map[relation.Value]int32 {
	dict := make(map[relation.Value]int32, n)
	seen := make([]bool, n)
	for t, c := range col {
		if !seen[c] {
			seen[c] = true
			dict[in.Tuples[t][a]] = c
		}
	}
	return dict
}

// cleanIndex indexes the satisfied part of the instance (I′ \ C2opt) per
// FD: LHS projection → the unique RHS of that group. Because the clean part
// satisfies sigma, the RHS per projection is single-valued.
//
// The index runs on dictionary codes. A tuple's cells are identified by
// the input instance's cached code columns; a fresh variable gets a code
// past its column's range, and a copied value carries its code along, so
// two cells of a column share a code iff they are Equal. (Fresh variables
// are numbered above every variable of the input, which they would
// otherwise equal.) Each FD interns its LHS projection a prefix at a time
// over (prefix, code) pairs; only full-length projections get dense ids,
// which index a compact slice of (RHS code, clean tuple) entries. No Value
// is copied into the index: the RHS value of an entry is read from its
// tuple when Find_Assignment adopts it.
type cleanIndex struct {
	sigma fd.Set
	vg    relation.VarGen
	rows  []relation.Tuple // the output's tuples; entries point into them
	attrs []int            // the attributes sigma uses, ascending
	cols  [][]int32        // per attribute of sigma: the input's code column
	next  []int32          // per attribute: the code of the next fresh variable
	fds   []fdIndex
}

// fdIndex is one FD's share of the clean index.
type fdIndex struct {
	head  []int            // LHS attributes but the last, ascending
	last  int              // last LHS attribute; -1 for an empty LHS
	rhs   int              // RHS attribute
	paths map[uint64]int32 // (prefix, code of a head attribute) → prefix
	ids   map[uint64]int32 // (prefix, code of last) → dense projection id
	ents  []cleanEntry     // by projection id
}

// cleanEntry is the RHS code of one LHS group of the clean part and a
// clean tuple holding it.
type cleanEntry struct{ rhs, tuple int32 }

// pairKey packs a prefix and a code into one map key; the empty prefix
// is -1.
func pairKey(prefix, code int32) uint64 { return uint64(uint32(prefix))<<32 | uint64(uint32(code)) }

// newCleanIndex indexes every tuple of out outside the cover, coding cells
// by in's code columns (out is a clone of in, so they agree).
func newCleanIndex(in, out *relation.Instance, sigma fd.Set, cover []int32) *cleanIndex {
	inCover, clean := make([]bool, in.N()), in.N()
	for _, t := range cover {
		if !inCover[t] {
			inCover[t] = true
			clean--
		}
	}
	width := in.Schema.Width()
	ci := &cleanIndex{
		sigma: sigma,
		vg:    relation.VarGenAfter(in),
		rows:  out.Tuples,
		attrs: sigma.AttrsUsed().Attrs(),
		cols:  make([][]int32, width),
		next:  make([]int32, width),
		fds:   make([]fdIndex, len(sigma)),
	}
	for _, a := range ci.attrs {
		ci.cols[a], ci.next[a] = in.Codes(a)
	}
	for i, f := range sigma {
		lhs := f.LHS.Attrs()
		x := &ci.fds[i]
		x.rhs, x.last = f.RHS, -1
		if len(lhs) > 0 {
			x.head, x.last = lhs[:len(lhs)-1], lhs[len(lhs)-1]
		}
		if len(x.head) > 0 {
			x.paths = make(map[uint64]int32, clean)
		}
		x.ids = make(map[uint64]int32, clean)
	}
	code := make([]int32, width)
	for t := range out.Tuples {
		if inCover[t] {
			continue
		}
		ci.codesOf(int32(t), code)
		ci.add(int32(t), code)
	}
	return ci
}

// codesOf fills code with the input codes of tuple t on sigma's attributes.
func (ci *cleanIndex) codesOf(t int32, code []int32) {
	for _, a := range ci.attrs {
		code[a] = ci.cols[a][t]
	}
}

// fresh returns a new fresh variable for attribute a and its code: past
// the column's range and distinct from every code handed out before.
func (ci *cleanIndex) fresh(a int) (relation.Value, int32) {
	c := ci.next[a]
	ci.next[a]++
	return ci.vg.Fresh(), c
}

// add registers tuple t, whose code tuple is code, as clean. A later
// tuple with the same LHS projection replaces the entry; in the clean part
// both hold the same RHS.
func (ci *cleanIndex) add(t int32, code []int32) {
	for i := range ci.fds {
		x := &ci.fds[i]
		k := int32(-1)
		for _, a := range x.head {
			pk := pairKey(k, code[a])
			nk, ok := x.paths[pk]
			if !ok {
				nk = int32(len(x.paths))
				x.paths[pk] = nk
			}
			k = nk
		}
		pk := pairKey(k, x.lastCode(code))
		id, ok := x.ids[pk]
		if !ok {
			id = int32(len(x.ents))
			x.ids[pk] = id
			x.ents = append(x.ents, cleanEntry{})
		}
		x.ents[id] = cleanEntry{rhs: code[x.rhs], tuple: t}
	}
}

// lastCode is the code of the last LHS attribute; 0 for an empty LHS.
func (x *fdIndex) lastCode(code []int32) int32 {
	if x.last < 0 {
		return 0
	}
	return code[x.last]
}

// violation returns the first FD (in Σ order) that the code tuple code
// violates against some clean tuple, along with the clean side's entry. A
// projection never interned means no clean tuple shares it.
func (ci *cleanIndex) violation(code []int32) (fdIdx int, e cleanEntry, found bool) {
	for i := range ci.fds {
		x := &ci.fds[i]
		k, ok := int32(-1), true
		for _, a := range x.head {
			if k, ok = x.paths[pairKey(k, code[a])]; !ok {
				break
			}
		}
		if !ok {
			continue
		}
		id, ok := x.ids[pairKey(k, x.lastCode(code))]
		if ok && x.ents[id].rhs != code[x.rhs] {
			return i, x.ents[id], true
		}
	}
	return 0, cleanEntry{}, false
}

// findAssignment implements Algorithm 5: starting from tc agreeing with t
// on the fixed attributes and holding fresh variables elsewhere, it chases
// violations against the clean part, copying the clean RHS value whenever
// the violated FD's RHS is not fixed. code is t's code tuple; the
// assignment is built in tc with its code tuple in tcc, both of t's
// length. It returns false iff a violated FD's RHS is fixed — no valid
// assignment exists (Lemma 2: sound and complete) — and tc then holds no
// meaningful assignment.
func (ci *cleanIndex) findAssignment(t relation.Tuple, code []int32, fixed relation.AttrSet, tc relation.Tuple, tcc []int32) bool {
	for a := range t {
		if fixed.Contains(a) {
			tc[a], tcc[a] = t[a], code[a]
		} else {
			tc[a], tcc[a] = ci.fresh(a)
		}
	}
	for {
		fi, e, found := ci.violation(tcc)
		if !found {
			return true
		}
		a := ci.sigma[fi].RHS
		if fixed.Contains(a) {
			return false
		}
		tc[a], tcc[a] = ci.rows[e.tuple][a], e.rhs
		fixed = fixed.Add(a)
	}
}
