package search

import (
	"math"
	"sort"

	"relatrust/internal/conflict"
	"relatrust/internal/fd"
	"relatrust/internal/relation"
)

// heuristic computes gc(S): a lower bound on dist_c of the cheapest goal
// state descending from S (Algorithm 3, getDescGoalStates). It considers a
// small subset Ds of the difference sets still violated at S; each set d in
// Ds must either be excluded — allowed only while the accumulated
// unresolved edges keep the 2-approximate cover under τ/α — or resolved by
// appending one attribute of d to every violated FD.
//
// Every approximation applied here (subset selection, sampled edge lists,
// the aggregate fallback when the resolution cross-product is too large)
// relaxes the bound downward, preserving admissibility in the sense of
// Lemma 1 of the paper.
type heuristic struct {
	sigma    fd.Set
	w        costFunc
	alpha    int
	maxDs    int
	comboCap int
	width    int
	// matchDiffs holds the difference sets of a globally vertex-disjoint
	// matching sample of the base conflict graph; see knapsack.
	matchDiffs []relation.AttrSet
	// n is the number of tuples, the vertex range of every edge.
	n int

	// Per-fork scratch of descend: a greedy matching over the edges of the
	// difference sets excluded on the current recursion path. matched
	// marks its vertices, undo logs them in marking order so a branch can
	// roll back to a mark, and msize is the number of matched edges.
	matched []bool
	undo    []int32
	msize   int
}

// costFunc prices an extension vector and single sets; split out so the
// heuristic is unit-testable without a weights.Func.
type costFunc interface {
	StateCost(s State) float64
	Marginal(cur relation.AttrSet, add int) float64
}

// fork returns a copy of the heuristic wired to a different cost function,
// sharing the read-only configuration and matching-sample slice but owning
// its matching scratch. The worker pool gives each worker a fork over a
// private costCache so gc runs lock-free; gc is a pure function of (state,
// ds, τ) given deterministic weights — no map iteration influences any
// branch — so every fork returns bit-identical bounds.
func (h *heuristic) fork(w costFunc) *heuristic {
	c := *h
	c.w = w
	c.matched, c.undo, c.msize = nil, nil, 0
	return &c
}

// gc returns the lower bound for state s at threshold tau: the maximum of
// the recursive difference-set bound (Algorithm 3) and the knapsack-cover
// bound over the matching sample. Both are admissible, so their maximum
// is, and each dominates on a different regime — the recursion when a few
// heavy difference sets must be resolved exactly, the knapsack when the
// budget forces resolving *many* difference sets whose attribute costs
// accumulate. Returns +Inf when no goal state can descend from s within
// tau.
func (h *heuristic) gc(s State, all []conflict.DiffSet, tau int) float64 {
	bound := h.knapsack(s, tau)
	if math.IsInf(bound, 1) {
		return bound
	}
	ds := h.pickDs(s, all)
	if h.matched == nil {
		h.matched = make([]bool, h.n)
	}
	// A panic inside an earlier descend may have left marks behind.
	h.rollbackMatching(0)
	if rec := h.descend(s, ds, tau); rec > bound {
		bound = rec
	}
	return bound
}

// knapsack lower-bounds the cheapest goal descendant of s via a covering
// argument. Let E be the matching sample restricted to edges still
// violating Σ(s): E is vertex-disjoint, so any goal Σ′ may leave at most
// B = ⌊τ/α⌋ of its edges unresolved — it must *resolve* at least
// K = |E| − B. Resolving an edge requires appending, to some violated FD,
// an attribute of the edge's difference set ("hitting" it). Charging each
// appended attribute its marginal weight and letting it hit every edge it
// could (ignoring that a real repair must hit every violated FD of an
// edge — a relaxation, hence a lower bound), the cheapest way to reach K
// hits is a 0/1 knapsack-cover solved exactly by DP.
func (h *heuristic) knapsack(s State, tau int) float64 {
	base := h.w.StateCost(s)
	if len(h.matchDiffs) == 0 {
		return base
	}
	budget := tau / h.alpha
	// Count unresolved edges and, per FD, aggregate per-attribute hit
	// counts over the edges violating that FD.
	unresolved := 0
	type itemT struct {
		w    float64
		hits int
	}
	var items []itemT
	perFD := make([][]int, len(h.sigma)) // attr -> hits, lazily allocated
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
			items = append(items, itemT{w: h.w.Marginal(s[i], a), hits: hits})
		}
	}
	// 0/1 knapsack-cover DP: dp[k] = min cost to accumulate ≥ k hits.
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
		// Even appending everything appendable cannot resolve enough
		// edges: no goal descends from s within τ.
		return inf
	}
	return base + dp[need]
}

// pickDs selects up to maxDs difference sets that are violated at state s,
// favoring large edge counts and low attribute overlap (Section 5.2). The
// first pass skips sets fully covered by already-picked attributes; a
// second pass fills remaining slots in count order.
func (h *heuristic) pickDs(s State, all []conflict.DiffSet) []conflict.DiffSet {
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
				continue // heavily overlapping; defer to the second pass
			}
			taken[d.Attrs] = true
			picked = picked.Union(d.Attrs)
			out = append(out, d)
		}
	}
	return out
}

// violated reports whether a pair with difference set d violates some FD of
// the base set as extended by state s.
func (h *heuristic) violated(s State, d relation.AttrSet) bool {
	for i, f := range h.sigma {
		if !f.LHS.Union(s[i]).Intersects(d) && d.Contains(f.RHS) {
			return true
		}
	}
	return false
}

// violatedFDs returns the indices of base FDs violated by difference set d
// under state s.
func (h *heuristic) violatedFDs(s State, d relation.AttrSet) []int {
	var out []int
	for i, f := range h.sigma {
		if !f.LHS.Union(s[i]).Intersects(d) && d.Contains(f.RHS) {
			out = append(out, i)
		}
	}
	return out
}

// descend is the recursive core of Algorithm 3, returning the minimum cost
// over goal states reachable from sc that resolve or exclude every set in
// dc, given the matching over the edges of already-excluded difference sets
// (h.matched, h.msize).
func (h *heuristic) descend(sc State, dc []conflict.DiffSet, tau int) float64 {
	if len(dc) == 0 {
		return h.w.StateCost(sc)
	}
	d := dc[0]
	best := math.Inf(1)

	// Option 1: leave d unresolved if the accumulated uncovered edges stay
	// within budget (Algorithm 3, lines 8-11). The budget test uses the
	// matching size |M| — a certified lower bound on every vertex cover of
	// the full conflict graph — rather than the paper's 2·|M| cover, and ≤
	// rather than <: both changes keep gc(S) admissible (never above the
	// cost of a real goal descendant), at the price of a slightly looser
	// bound. A greedy matching over the excluded edges followed by d's is
	// the current matching extended over d's edges, so the matching grows
	// in place and rolls back once the branch returns.
	mark := h.extendMatching(d.Edges)
	if h.msize*h.alpha <= tau {
		best = h.descend(sc, dc[1:], tau)
	}
	h.rollbackMatching(mark)

	// Option 2: resolve d by appending one of its attributes to the LHS of
	// every FD it violates (lines 12-15).
	viol := h.violatedFDs(sc, d.Attrs)
	if len(viol) == 0 {
		// Already resolved at sc (can happen after an earlier extension);
		// just move on.
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
			// d differs only on this FD's RHS: no LHS extension can
			// resolve it, so the resolve branch is infeasible.
			return best
		}
		cands[k] = c
		if combos <= h.comboCap {
			combos *= len(c)
		}
	}
	if combos > h.comboCap {
		// Cross-product too large: fall back to an aggregate lower bound —
		// resolving d costs at least the cheapest marginal per violated FD,
		// and the remaining difference sets are charged nothing.
		lb := h.w.StateCost(sc)
		for k, fi := range viol {
			cheapest := math.Inf(1)
			for _, a := range cands[k] {
				if m := h.w.Marginal(sc[fi], a); m < cheapest {
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
			rest := filterViolated(h, next, dc[1:])
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

// candidates lists the attributes of d that may be appended to FD fi's LHS
// to resolve a pair with difference set d, sorted by marginal cost so the
// aggregate fallback and enumeration both favor cheap fixes.
func (h *heuristic) candidates(sc State, fi int, d relation.AttrSet) []int {
	f := h.sigma[fi]
	avail := d.Diff(f.LHS.Union(sc[fi])).Remove(f.RHS)
	attrs := avail.Attrs()
	sort.Slice(attrs, func(i, j int) bool {
		mi, mj := h.w.Marginal(sc[fi], attrs[i]), h.w.Marginal(sc[fi], attrs[j])
		if mi != mj {
			return mi < mj
		}
		return attrs[i] < attrs[j]
	})
	return attrs
}

// filterViolated keeps the difference sets still violated at state s.
func filterViolated(h *heuristic, s State, dc []conflict.DiffSet) []conflict.DiffSet {
	out := make([]conflict.DiffSet, 0, len(dc))
	for _, d := range dc {
		if h.violated(s, d.Attrs) {
			out = append(out, d)
		}
	}
	return out
}

// extendMatching extends the greedy matching over edges and returns the
// undo-log mark to roll back to.
func (h *heuristic) extendMatching(edges []conflict.Edge) int {
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

// rollbackMatching undoes every edge matched after mark.
func (h *heuristic) rollbackMatching(mark int) {
	for _, v := range h.undo[mark:] {
		h.matched[v] = false
	}
	h.msize -= (len(h.undo) - mark) / 2
	h.undo = h.undo[:mark]
}
