package search

import (
	"math"
	"math/bits"
	"slices"

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
	// matchDiffs holds the distinct difference sets of a globally
	// vertex-disjoint matching sample of the base conflict graph, each with
	// the number of sample edges carrying it; see knapsack.
	matchDiffs []diffCount
	// n is the number of tuples, the vertex range of every edge.
	n int

	// Per-fork scratch of descend. paths memoizes the greedy matching size
	// over the edges of the difference sets excluded on a recursion path,
	// keyed by the ordered path; excl is the current path. The sets come
	// from the searcher's one difference-set list (every gc call passes
	// the same one), so a set's Attrs fix its edges. On a memo miss
	// the path's matching is rebuilt in matched, which marks its vertices,
	// with undo logging them in marking order so the build can be rolled
	// back; msize is the number of matched edges.
	paths   *pathNode
	excl    []conflict.DiffSet
	matched []bool
	undo    []int32
	msize   int

	// Per-fork scratch of knapsack and pickDs.
	hits   []int // len(sigma)·width per-FD attribute hit counts
	items  []knapItem
	dp     []float64
	picked []conflict.DiffSet
	frames []*frame // descend's per-depth scratch
}

// diffCount is one difference set of the matching sample with the number
// of sample edges carrying it.
type diffCount struct {
	attrs relation.AttrSet
	count int
}

// pathNode is one node of descend's matching-size memo: size is the greedy
// matching size over the edges of the path's excluded difference sets, in
// path order, and next[d] is the node of the path extended by excluding d.
// Difference sets are unique by Attrs, so Attrs identify them.
type pathNode struct {
	size int
	next map[relation.AttrSet]*pathNode
}

// knapItem is one appendable attribute of knapsack: its marginal weight
// and the sample edges it hits.
type knapItem struct {
	w    float64
	hits int
}

// pricedAttr is a candidate attribute with its marginal cost.
type pricedAttr struct {
	attr int
	cost float64
}

// costFunc prices an extension vector and single sets; split out so the
// heuristic is unit-testable without a weights.Func.
type costFunc interface {
	StateCost(s State) float64
	Weight(y relation.AttrSet) float64
}

// fork returns a heuristic with the same read-only configuration and
// matching-sample slice, wired to a different cost function and owning
// fresh scratch and memo. The worker pool gives each worker a fork over a
// private costCache so gc runs lock-free; gc is a pure function of (state,
// ds, τ) given deterministic weights — no map iteration influences any
// branch, and the memo only stores values the recursion would recompute —
// so every fork returns bit-identical bounds.
func (h *heuristic) fork(w costFunc) *heuristic {
	return &heuristic{
		sigma:      h.sigma,
		w:          w,
		alpha:      h.alpha,
		maxDs:      h.maxDs,
		comboCap:   h.comboCap,
		width:      h.width,
		matchDiffs: h.matchDiffs,
		n:          h.n,
	}
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
	if h.paths == nil {
		h.paths = &pathNode{}
	}
	// A panic inside an earlier descend may have left a path behind.
	h.excl = h.excl[:0]
	if rec := h.descend(s, ds, tau, h.paths, 0); rec > bound {
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
	if h.hits == nil {
		h.hits = make([]int, len(h.sigma)*h.width)
	}
	clear(h.hits)
	unresolved := 0
	for _, md := range h.matchDiffs {
		d := md.attrs
		edgeViolated := false
		for i, f := range h.sigma {
			lhs := f.LHS.Union(s[i])
			if lhs.Intersects(d) || !d.Contains(f.RHS) {
				continue
			}
			edgeViolated = true
			counts := h.hits[i*h.width : (i+1)*h.width]
			for rest := uint64(d); rest != 0; rest &= rest - 1 {
				counts[bits.TrailingZeros64(rest)] += md.count
			}
		}
		if edgeViolated {
			unresolved += md.count
		}
	}
	need := unresolved - budget
	if need <= 0 {
		return base
	}
	items := h.items[:0]
	for i, f := range h.sigma {
		lhs := f.LHS.Union(s[i])
		cur := h.w.Weight(s[i])
		for a, hits := range h.hits[i*h.width : (i+1)*h.width] {
			if hits == 0 || a == f.RHS || lhs.Contains(a) {
				continue
			}
			items = append(items, knapItem{w: marginal(h.w.Weight(s[i].Add(a)), cur), hits: hits})
		}
	}
	h.items = items
	// 0/1 knapsack-cover DP: dp[k] = min cost to accumulate ≥ k hits.
	// Before an item, every dp[k] above reach — the hits of the items
	// before it, capped at need — is still +Inf, so the sweep starts
	// there.
	inf := math.Inf(1)
	if cap(h.dp) < need+1 {
		h.dp = make([]float64, need+1)
	}
	dp := h.dp[:need+1]
	dp[0] = 0
	for k := 1; k <= need; k++ {
		dp[k] = inf
	}
	reach := 0
	for _, it := range items {
		for k := reach; k >= 0; k-- {
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
		if reach += it.hits; reach > need {
			reach = need
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
	out := h.picked[:0]
	var picked relation.AttrSet
	for pass := 0; pass < 2 && len(out) < h.maxDs; pass++ {
		for _, d := range all {
			if len(out) >= h.maxDs {
				break
			}
			if taken(out, d.Attrs) || !h.violated(s, d.Attrs) {
				continue
			}
			if pass == 0 && !picked.IsEmpty() && d.Attrs.SubsetOf(picked) {
				continue // heavily overlapping; defer to the second pass
			}
			picked = picked.Union(d.Attrs)
			out = append(out, d)
		}
	}
	h.picked = out
	return out
}

// taken reports whether a set with the given attributes was picked.
func taken(picked []conflict.DiffSet, attrs relation.AttrSet) bool {
	for _, p := range picked {
		if p.Attrs == attrs {
			return true
		}
	}
	return false
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

// violatedFDs appends to out the indices of base FDs violated by
// difference set d under state s.
func (h *heuristic) violatedFDs(s State, d relation.AttrSet, out []int) []int {
	for i, f := range h.sigma {
		if !f.LHS.Union(s[i]).Intersects(d) && d.Contains(f.RHS) {
			out = append(out, i)
		}
	}
	return out
}

// descend is the recursive core of Algorithm 3, returning the minimum cost
// over goal states reachable from sc that resolve or exclude every set in
// dc, given the difference sets already excluded on the recursion path
// (h.excl, whose memo node is path). depth is the recursion level, which
// selects the call's scratch frame.
func (h *heuristic) descend(sc State, dc []conflict.DiffSet, tau int, path *pathNode, depth int) float64 {
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
	// bound. |M| is the greedy matching over the excluded sets' edges in
	// path order followed by d's, read from the path memo.
	if next := h.exclude(path, d); next.size*h.alpha <= tau {
		h.excl = append(h.excl, d)
		best = h.descend(sc, dc[1:], tau, next, depth+1)
		h.excl = h.excl[:len(h.excl)-1]
	}

	// Option 2: resolve d by appending one of its attributes to the LHS of
	// every FD it violates (lines 12-15).
	fr := h.frame(depth)
	fr.viol = h.violatedFDs(sc, d.Attrs, fr.viol[:0])
	if len(fr.viol) == 0 {
		// Already resolved at sc (can happen after an earlier extension);
		// just move on.
		if v := h.descend(sc, dc[1:], tau, path, depth+1); v < best {
			best = v
		}
		return best
	}
	fr.priced, fr.ends = fr.priced[:0], fr.ends[:0]
	combos := 1
	for _, fi := range fr.viol {
		start := len(fr.priced)
		fr.priced = h.candidates(sc, fi, d.Attrs, fr.priced)
		n := len(fr.priced) - start
		if n == 0 {
			// d differs only on this FD's RHS: no LHS extension can
			// resolve it, so the resolve branch is infeasible.
			return best
		}
		fr.ends = append(fr.ends, len(fr.priced))
		if combos <= h.comboCap {
			combos *= n
		}
	}
	if combos > h.comboCap {
		// Cross-product too large: fall back to an aggregate lower bound —
		// resolving d costs at least the cheapest marginal per violated FD,
		// and the remaining difference sets are charged nothing.
		lb := h.w.StateCost(sc)
		start := 0
		for _, end := range fr.ends {
			cheapest := math.Inf(1)
			for _, c := range fr.priced[start:end] {
				if c.cost < cheapest {
					cheapest = c.cost
				}
			}
			lb += cheapest
			start = end
		}
		if lb < best {
			best = lb
		}
		return best
	}
	fr.choice = slices.Grow(fr.choice[:0], len(fr.viol))[:len(fr.viol)]
	fr.next = append(fr.next[:0], sc...)
	return h.resolve(fr, 0, 0, sc, dc[1:], tau, path, depth, best)
}

// frame is the scratch of one descend recursion level. Every call shrinks
// dc, so the depth is at most maxDs+1, and the calls at one level run one
// after another, each reusing the level's frame; a frame is never written
// while a deeper call reads from it.
type frame struct {
	viol   []int              // FDs violated by the frame's difference set
	priced []pricedAttr       // their candidate lists, back to back
	ends   []int              // ends[k] is the end of viol[k]'s list in priced
	choice []int              // the candidate chosen per violated FD
	next   State              // the resolved state being descended into
	rest   []conflict.DiffSet // the difference sets still violated at next
}

// frame returns the scratch frame of recursion level depth.
func (h *heuristic) frame(depth int) *frame {
	for len(h.frames) <= depth {
		h.frames = append(h.frames, &frame{})
	}
	return h.frames[depth]
}

// resolve enumerates the resolutions of a frame's difference set — one
// candidate per violated FD, in candidate order, from FD k on — and
// returns the minimum of best and each resolved state's bound over the
// difference sets in rest that stay violated.
func (h *heuristic) resolve(fr *frame, k, start int, sc State, rest []conflict.DiffSet, tau int, path *pathNode, depth int, best float64) float64 {
	if k == len(fr.viol) {
		copy(fr.next, sc)
		for j, fi := range fr.viol {
			fr.next[fi] = fr.next[fi].Add(fr.choice[j])
		}
		fr.rest = filterViolated(h, fr.next, rest, fr.rest[:0])
		if v := h.descend(fr.next, fr.rest, tau, path, depth+1); v < best {
			best = v
		}
		return best
	}
	for _, c := range fr.priced[start:fr.ends[k]] {
		fr.choice[k] = c.attr
		best = h.resolve(fr, k+1, fr.ends[k], sc, rest, tau, path, depth, best)
	}
	return best
}

// exclude returns the memo node of the current path extended by excluding
// d. On a miss it rebuilds the greedy matching over the path's edges and
// then d's, and stores the size only once the build is complete, so a
// panic mid-build leaves no entry behind.
func (h *heuristic) exclude(path *pathNode, d conflict.DiffSet) *pathNode {
	if next := path.next[d.Attrs]; next != nil {
		return next
	}
	if h.matched == nil {
		h.matched = make([]bool, h.n)
	}
	// A panic inside an earlier build may have left marks behind.
	h.rollbackMatching(0)
	for _, x := range h.excl {
		h.extendMatching(x.Edges)
	}
	h.extendMatching(d.Edges)
	next := &pathNode{size: h.msize}
	h.rollbackMatching(0)
	if path.next == nil {
		path.next = make(map[relation.AttrSet]*pathNode)
	}
	path.next[d.Attrs] = next
	return next
}

// candidates appends to out the attributes of d that may be appended to FD
// fi's LHS to resolve a pair with difference set d, each priced once at its
// marginal cost and sorted by it (ties by attribute) so the aggregate
// fallback and enumeration both favor cheap fixes.
func (h *heuristic) candidates(sc State, fi int, d relation.AttrSet, out []pricedAttr) []pricedAttr {
	f := h.sigma[fi]
	avail := d.Diff(f.LHS.Union(sc[fi])).Remove(f.RHS)
	start := len(out)
	cur := h.w.Weight(sc[fi])
	for rest := uint64(avail); rest != 0; rest &= rest - 1 {
		p := pricedAttr{attr: bits.TrailingZeros64(rest)}
		p.cost = marginal(h.w.Weight(sc[fi].Add(p.attr)), cur)
		// Insertion sort: candidate lists are a handful of attributes.
		i := len(out)
		out = append(out, p)
		for i > start && p.before(out[i-1]) {
			out[i] = out[i-1]
			i--
		}
		out[i] = p
	}
	return out
}

// before orders candidates by marginal cost, then by attribute.
func (p pricedAttr) before(q pricedAttr) bool {
	if p.cost != q.cost {
		return p.cost < q.cost
	}
	return p.attr < q.attr
}

// filterViolated appends to out the difference sets of dc still violated
// at state s.
func filterViolated(h *heuristic, s State, dc []conflict.DiffSet, out []conflict.DiffSet) []conflict.DiffSet {
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
