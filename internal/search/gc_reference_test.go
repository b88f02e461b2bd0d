package search

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"relatrust/internal/conflict"
	"relatrust/internal/fd"
	"relatrust/internal/gen"
	"relatrust/internal/relation"
	"relatrust/internal/weights"
)

// refHeuristic is gc(S) as it was computed before the path memo, the
// per-depth frames and the grouped knapsack sample: the matching grows
// and rolls back along the recursion, candidates are sorted by a
// comparator that prices both sides, knapsack walks one difference set
// per sample edge into freshly allocated counters, and matchDiffs comes
// from the string Tuple.DiffSet. gcReference is its entry point.
type refHeuristic struct {
	sigma      fd.Set
	w          costFunc
	alpha      int
	maxDs      int
	comboCap   int
	width      int
	matchDiffs []relation.AttrSet
	n          int
	matched    []bool
	undo       []int32
	msize      int
}

// newRefHeuristic builds the reference over the searcher's analysis and
// configuration, with its own cost cache over the searcher's weights.
func newRefHeuristic(s *Searcher) *refHeuristic {
	an := s.An
	edges := an.MatchingEdgeSample(s.Opt.MatchSampleCap)
	diffs := make([]relation.AttrSet, len(edges))
	for i, e := range edges {
		diffs[i] = an.In.Tuples[e.T1].DiffSet(an.In.Tuples[e.T2])
	}
	return &refHeuristic{
		sigma:      an.Sigma,
		w:          &costCache{w: s.W},
		alpha:      s.alpha,
		maxDs:      s.Opt.MaxDiffSets,
		comboCap:   s.Opt.ComboCap,
		width:      an.In.Schema.Width(),
		matchDiffs: diffs,
		n:          an.In.N(),
	}
}

func (h *refHeuristic) marginal(cur relation.AttrSet, add int) float64 {
	m := h.w.Weight(cur.Add(add)) - h.w.Weight(cur)
	if m < 0 {
		return 0
	}
	return m
}

func gcReference(h *refHeuristic, s State, all []conflict.DiffSet, tau int) float64 {
	bound := h.knapsack(s, tau)
	if math.IsInf(bound, 1) {
		return bound
	}
	ds := h.pickDs(s, all)
	if h.matched == nil {
		h.matched = make([]bool, h.n)
	}
	h.rollbackMatching(0)
	if rec := h.descend(s, ds, tau); rec > bound {
		bound = rec
	}
	return bound
}

func (h *refHeuristic) knapsack(s State, tau int) float64 {
	base := h.w.StateCost(s)
	if len(h.matchDiffs) == 0 {
		return base
	}
	budget := tau / h.alpha
	unresolved := 0
	type itemT struct {
		w    float64
		hits int
	}
	var items []itemT
	perFD := make([][]int, len(h.sigma))
	for _, d := range h.matchDiffs {
		edgeViolated := false
		for i, f := range h.sigma {
			lhs := f.LHS.Union(s[i])
			if lhs.Intersects(d) || !d.Contains(f.RHS) {
				continue
			}
			edgeViolated = true
			if perFD[i] == nil {
				perFD[i] = make([]int, h.width)
			}
			counts := perFD[i]
			d.ForEach(func(a int) bool {
				counts[a]++
				return true
			})
		}
		if edgeViolated {
			unresolved++
		}
	}
	need := unresolved - budget
	if need <= 0 {
		return base
	}
	for i, f := range h.sigma {
		if perFD[i] == nil {
			continue
		}
		lhs := f.LHS.Union(s[i])
		for a, hits := range perFD[i] {
			if hits == 0 || a == f.RHS || lhs.Contains(a) {
				continue
			}
			items = append(items, itemT{w: h.marginal(s[i], a), hits: hits})
		}
	}
	inf := math.Inf(1)
	dp := make([]float64, need+1)
	for k := 1; k <= need; k++ {
		dp[k] = inf
	}
	for _, it := range items {
		for k := need; k >= 0; k-- {
			if math.IsInf(dp[k], 1) {
				continue
			}
			nk := k + it.hits
			if nk > need {
				nk = need
			}
			if c := dp[k] + it.w; c < dp[nk] {
				dp[nk] = c
			}
		}
	}
	if math.IsInf(dp[need], 1) {
		return inf
	}
	return base + dp[need]
}

func (h *refHeuristic) pickDs(s State, all []conflict.DiffSet) []conflict.DiffSet {
	out := make([]conflict.DiffSet, 0, h.maxDs)
	var picked relation.AttrSet
	taken := make(map[relation.AttrSet]bool, h.maxDs)
	for pass := 0; pass < 2 && len(out) < h.maxDs; pass++ {
		for _, d := range all {
			if len(out) >= h.maxDs {
				break
			}
			if taken[d.Attrs] || !h.violated(s, d.Attrs) {
				continue
			}
			if pass == 0 && !picked.IsEmpty() && d.Attrs.SubsetOf(picked) {
				continue
			}
			taken[d.Attrs] = true
			picked = picked.Union(d.Attrs)
			out = append(out, d)
		}
	}
	return out
}

func (h *refHeuristic) violated(s State, d relation.AttrSet) bool {
	for i, f := range h.sigma {
		if !f.LHS.Union(s[i]).Intersects(d) && d.Contains(f.RHS) {
			return true
		}
	}
	return false
}

func (h *refHeuristic) violatedFDs(s State, d relation.AttrSet) []int {
	var out []int
	for i, f := range h.sigma {
		if !f.LHS.Union(s[i]).Intersects(d) && d.Contains(f.RHS) {
			out = append(out, i)
		}
	}
	return out
}

func (h *refHeuristic) descend(sc State, dc []conflict.DiffSet, tau int) float64 {
	if len(dc) == 0 {
		return h.w.StateCost(sc)
	}
	d := dc[0]
	best := math.Inf(1)
	mark := h.extendMatching(d.Edges)
	if h.msize*h.alpha <= tau {
		best = h.descend(sc, dc[1:], tau)
	}
	h.rollbackMatching(mark)

	viol := h.violatedFDs(sc, d.Attrs)
	if len(viol) == 0 {
		if v := h.descend(sc, dc[1:], tau); v < best {
			best = v
		}
		return best
	}
	cands := make([][]int, len(viol))
	combos := 1
	for k, fi := range viol {
		c := h.candidates(sc, fi, d.Attrs)
		if len(c) == 0 {
			return best
		}
		cands[k] = c
		if combos <= h.comboCap {
			combos *= len(c)
		}
	}
	if combos > h.comboCap {
		lb := h.w.StateCost(sc)
		for k, fi := range viol {
			cheapest := math.Inf(1)
			for _, a := range cands[k] {
				if m := h.marginal(sc[fi], a); m < cheapest {
					cheapest = m
				}
			}
			lb += cheapest
		}
		if lb < best {
			best = lb
		}
		return best
	}
	choice := make([]int, len(viol))
	var rec func(k int)
	rec = func(k int) {
		if k == len(viol) {
			next := sc.Clone()
			for j, fi := range viol {
				next[fi] = next[fi].Add(choice[j])
			}
			var rest []conflict.DiffSet
			for _, d := range dc[1:] {
				if h.violated(next, d.Attrs) {
					rest = append(rest, d)
				}
			}
			if v := h.descend(next, rest, tau); v < best {
				best = v
			}
			return
		}
		for _, a := range cands[k] {
			choice[k] = a
			rec(k + 1)
		}
	}
	rec(0)
	return best
}

func (h *refHeuristic) candidates(sc State, fi int, d relation.AttrSet) []int {
	f := h.sigma[fi]
	avail := d.Diff(f.LHS.Union(sc[fi])).Remove(f.RHS)
	attrs := avail.Attrs()
	sort.Slice(attrs, func(i, j int) bool {
		mi, mj := h.marginal(sc[fi], attrs[i]), h.marginal(sc[fi], attrs[j])
		if mi != mj {
			return mi < mj
		}
		return attrs[i] < attrs[j]
	})
	return attrs
}

func (h *refHeuristic) extendMatching(edges []conflict.Edge) int {
	mark := len(h.undo)
	for _, e := range edges {
		if h.matched[e.T1] || h.matched[e.T2] {
			continue
		}
		h.matched[e.T1], h.matched[e.T2] = true, true
		h.undo = append(h.undo, e.T1, e.T2)
		h.msize++
	}
	return mark
}

func (h *refHeuristic) rollbackMatching(mark int) {
	for _, v := range h.undo[mark:] {
		h.matched[v] = false
	}
	h.msize -= (len(h.undo) - mark) / 2
	h.undo = h.undo[:mark]
}

// stateRecorder is a costFunc that records, in first-seen order, every
// distinct state it prices. gc prices the state it bounds first thing, so
// wired into a searcher's heuristic it captures every state the search
// bounds, plus the resolved states gc descends into.
type stateRecorder struct {
	costFunc
	seen   map[string]bool
	states []State
}

func (r *stateRecorder) StateCost(s State) float64 {
	if k := s.Key(); !r.seen[k] {
		r.seen[k] = true
		r.states = append(r.states, s.Clone())
	}
	return r.costFunc.StateCost(s)
}

// checkGCMatchesReference runs a sequential search at tau, recording the
// states its heuristic prices, then asserts gc(S) equals gcReference bit
// for bit on each of them, both on the searcher's own heuristic (its path
// memo warm from the search) and on a fresh fork (memo cold).
func checkGCMatchesReference(t *testing.T, label string, s *Searcher, tau int) int {
	t.Helper()
	rec := &stateRecorder{costFunc: s.h.w, seen: map[string]bool{}}
	s.h.w = rec
	_, err := s.Find(context.Background(), tau)
	s.h.w = rec.costFunc
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefHeuristic(s)
	cold := s.h.fork(&costCache{w: s.W})
	for _, st := range rec.states {
		want := gcReference(ref, st, s.ds, tau)
		for _, h := range []*heuristic{s.h, cold} {
			if got := h.gc(st, s.ds, tau); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s τ=%d state %s: gc %v, reference %v", label, tau, st, got, want)
			}
		}
	}
	return len(rec.states)
}

// TestGCMatchesReference pins gc(S) bit for bit to the reference on every
// state priced by census searches (n=2000, the budgets of
// TestCensusSearchEffortPinned) and by searches over the blocked workload,
// whose many small components give the recursion few, narrow sets.
func TestGCMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("census search in -short mode")
	}
	spec := gen.SubSpec(gen.CensusSpec(), 12)
	sigma := gen.TwoFDs(spec)
	clean, err := gen.Generate(spec, sigma, 2000, 42)
	if err != nil {
		t.Fatal(err)
	}
	dp, err := gen.PerturbData(clean, sigma, 0.01, 43)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := gen.PerturbFDs(sigma, 0.34, 44)
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	opt.Workers = 1
	census := NewSearcher(conflict.New(dp.Instance, fp.Sigma), weights.NewDistinctCount(dp.Instance), opt)
	states := 0
	for _, div := range []int{40, 20, 10, 4, 2} {
		states += checkGCMatchesReference(t, fmt.Sprintf("census δP/%d", div), census, census.DeltaPOriginal()/div)
	}

	rng := rand.New(rand.NewSource(42))
	blocked := relation.NewInstance(relation.MustSchema("Blk", "A", "B", "C", "D", "E", "F"))
	for i := 0; i < 2000; i++ {
		err := blocked.AppendConsts(
			fmt.Sprintf("b%d", i/4),
			fmt.Sprintf("v%d", rng.Intn(2)),
			fmt.Sprintf("v%d", rng.Intn(2)),
			fmt.Sprintf("v%d", rng.Intn(3)),
			fmt.Sprintf("v%d", rng.Intn(3)),
			fmt.Sprintf("v%d", rng.Intn(3)),
			fmt.Sprintf("v%d", rng.Intn(3)),
		)
		if err != nil {
			t.Fatal(err)
		}
	}
	bsigma := fd.Set{fd.MustNew(relation.NewAttrSet(0, 1), 2)}
	bs := NewSearcher(conflict.New(blocked, bsigma), weights.NewDistinctCount(blocked), opt)
	for _, div := range []int{40, 10, 4, 2, 1} {
		states += checkGCMatchesReference(t, fmt.Sprintf("blocked δP/%d", div), bs, bs.DeltaPOriginal()/div)
	}
	if states < 1000 {
		t.Fatalf("only %d states checked; the workloads no longer exercise gc", states)
	}
}
