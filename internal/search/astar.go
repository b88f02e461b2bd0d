package search

import (
	"container/heap"
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"relatrust/internal/components"
	"relatrust/internal/conflict"
	"relatrust/internal/fd"
	"relatrust/internal/relation"
	"relatrust/internal/weights"
)

// Options tunes the FD-modification search. The zero value selects the
// paper's A*-Repair with default knobs.
type Options struct {
	// BestFirst disables the gc(S) lower bound and explores in plain
	// state-cost order (the Best-First-Repair baseline). The zero value is
	// the paper's A*-Repair — deliberately, so an unset Options can never
	// silently select the baseline algorithm.
	BestFirst bool
	// MaxDiffSets caps |Ds|, the difference sets the heuristic reasons
	// about per state. Larger is tighter but more expensive. Default 3.
	MaxDiffSets int
	// ComboCap bounds the resolution cross-product enumerated per
	// difference set before the heuristic falls back to an aggregate
	// lower bound. Default 16.
	ComboCap int
	// CapPerCluster bounds conflict-graph edges sampled per violation
	// cluster when collecting difference sets. Default 50. The difference
	// sets are memoized per analysis root and cap (conflict.DiffSets), so
	// only the first searcher over a root with a given cap collects them.
	CapPerCluster int
	// MaxVisited aborts the search after this many states have been
	// popped, as a runaway guard. Default 2,000,000.
	MaxVisited int
	// MatchSampleCap bounds the vertex-disjoint matching sample behind
	// the knapsack half of the heuristic. Default 2000. Like the
	// difference sets, the sample is memoized per analysis root and cap
	// (conflict.MatchingEdgeSample).
	MatchSampleCap int
	// Workers sets the number of parallel evaluation workers: successor
	// scoring, the goal-test cover query, and open-list re-estimation fan
	// out across this many goroutines, each owning a forked
	// conflict.Analysis and a private cost cache. 1 runs the sequential
	// engine; <= 0 selects GOMAXPROCS. Results are bit-identical for every
	// worker count.
	Workers int
	// NoPartitionCache disables the per-worker partition cache of the
	// parallel engine. By default each worker's forked analysis memoizes
	// refined cluster partitions keyed by (cluster, extension-set) and
	// refines a child state's cover query incrementally from its parent's
	// snapshot; results are bit-identical either way (the cache is a
	// pure-function memo), so the knob exists for memory-constrained runs
	// and for measuring the cache's effect.
	NoPartitionCache bool
	// NoDecomposition disables conflict-hypergraph decomposition: every
	// goal-test cover query walks the whole instance monolithically, as the
	// engine did before internal/components existed. By default the searcher
	// decomposes the conflict graph into connected components once and
	// answers each query from per-component responses (memoized, and fanned
	// across the workers when enough components are affected); results are
	// bit-identical either way, so the knob exists for measuring the
	// decomposition's effect and as an escape hatch.
	NoDecomposition bool
	// Decomp supplies a pre-built component evaluator sharing this
	// searcher's analysis root (the session engine caches one per root, so
	// repeated sweeps skip the Decompose pass). Nil means the searcher
	// builds its own unless NoDecomposition is set. Ignored when
	// NoDecomposition is set.
	Decomp *components.Evaluator
}

func (o Options) withDefaults() Options {
	if o.MaxDiffSets <= 0 {
		o.MaxDiffSets = 3
	}
	if o.ComboCap <= 0 {
		o.ComboCap = 16
	}
	if o.CapPerCluster <= 0 {
		o.CapPerCluster = 50
	}
	if o.MaxVisited <= 0 {
		o.MaxVisited = 2_000_000
	}
	if o.MatchSampleCap <= 0 {
		o.MatchSampleCap = 2000
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// DefaultOptions returns the A* configuration used by the paper's
// experiments.
func DefaultOptions() Options { return Options{}.withDefaults() }

// Stats reports search effort.
type Stats struct {
	Visited   int           // states popped from the open list
	Generated int           // child states created
	GCCalls   int           // heuristic evaluations
	Duration  time.Duration // wall-clock time of the search call
}

// Result is one FD repair: the extension vector, the corresponding FD set,
// its cost dist_c(Σ, Σ′), and the cover statistics that determine how many
// cell changes the data-repair phase needs.
type Result struct {
	State     State
	Sigma     fd.Set  // base set with extensions applied
	Cost      float64 // dist_c(Σ, Σ′) under the searcher's weighting
	CoverSize int     // |C2opt(Σ′, I)|
	DeltaP    int     // δP(Σ′, I) = α·CoverSize: upper bound on cell changes
	Stats     Stats
}

// Searcher runs FD-modification searches over one analyzed instance. The
// Searcher itself is not safe for concurrent use (it shares the analysis'
// scratch space); with Options.Workers > 1 each search call internally
// fans evaluations out over forked analyses while keeping results
// bit-identical to the sequential engine.
type Searcher struct {
	An    *conflict.Analysis
	W     weights.Func
	Opt   Options
	alpha int
	floor int // α·(permanent matching): hard lower bound on δP of every Σ′
	ds    []conflict.DiffSet
	h     *heuristic
	costs *costCache

	// decomp answers goal-test cover queries component-wise; nil when
	// Options.NoDecomposition reverts to the monolithic path.
	decomp *components.Evaluator

	// coverStats accumulates the workers' partition-cache counters across
	// the parallel runs of this searcher (see CoverCacheStats).
	coverStats conflict.CoverStats

	// lastStats is the final effort of the most recent run (see LastStats).
	lastStats Stats
}

// NewSearcher prepares a searcher: takes the difference sets, matching
// sample and permanent matching from the analysis' per-root memo (built by
// the first searcher over the root, shared by the rest) and wires the
// heuristic. The weighting w prices LHS extensions; the searcher reads
// it through a concurrency-safe weights.Memo — w itself when it already is
// one (a session engine's shared memo), else a memo private to the
// searcher.
func NewSearcher(an *conflict.Analysis, w weights.Func, opt Options) *Searcher {
	opt = opt.withDefaults()
	if _, ok := w.(*weights.Memo); !ok {
		w = weights.NewMemo(w)
	}
	width := an.In.Schema.Width()
	alpha := width - 1
	if len(an.Sigma) < alpha {
		alpha = len(an.Sigma)
	}
	if alpha < 1 {
		alpha = 1
	}
	s := &Searcher{
		An:    an,
		W:     w,
		Opt:   opt,
		alpha: alpha,
		floor: alpha * an.PermanentMatching(),
		ds:    an.DiffSets(opt.CapPerCluster),
		costs: &costCache{w: w},
	}
	s.h = &heuristic{
		sigma:      an.Sigma,
		w:          s.costs,
		alpha:      alpha,
		maxDs:      opt.MaxDiffSets,
		comboCap:   opt.ComboCap,
		width:      width,
		matchDiffs: matchDiffs(an, opt.MatchSampleCap),
		n:          an.In.N(),
	}
	if !opt.NoDecomposition {
		if opt.Decomp != nil {
			s.decomp = opt.Decomp
		} else {
			s.decomp = components.NewEvaluator(an)
		}
	}
	return s
}

// coverSize answers the goal-test cover query for one state: through the
// component evaluator when decomposition is on, monolithically otherwise.
// Bit-identical either way.
func (s *Searcher) coverSize(st State) int {
	if s.decomp != nil {
		return s.decomp.CoverSize(s.An, st)
	}
	return s.An.CoverSize(st)
}

// ComponentStats reports the conflict-hypergraph decomposition driving the
// goal-test cover queries: the component count and largest component of
// the analyzed instance, and how many per-component evaluations were
// dispatched across the worker pool so far. Zero-valued when
// Options.NoDecomposition is set.
type ComponentStats struct {
	Components       int
	LargestComponent int
	ParallelEvals    int64
}

// ComponentStats returns the searcher's decomposition shape and the
// cumulative cross-component fan-out effort (see ComponentStats type).
func (s *Searcher) ComponentStats() ComponentStats {
	if s.decomp == nil {
		return ComponentStats{}
	}
	d := s.decomp.Decomposition()
	return ComponentStats{
		Components:       d.Components(),
		LargestComponent: d.LargestComponent(),
		ParallelEvals:    s.decomp.Counters().Parallel,
	}
}

// Alpha returns α = min{|R|−1, |Σ|}, the per-tuple change bound.
func (s *Searcher) Alpha() int { return s.alpha }

// DeltaPOriginal returns δP(Σ, I) for the unmodified FD set — the natural
// upper end of the τ range and the denominator of the relative threshold
// τr used throughout the experiments.
func (s *Searcher) DeltaPOriginal() int { return s.alpha * s.An.BaseCoverSize() }

// DiffSetCount reports how many distinct difference sets were collected.
func (s *Searcher) DiffSetCount() int { return len(s.ds) }

// LastStats returns the final effort of the most recent Find, FindRange or
// FindRangeStream call on this searcher, including runs that ended in an
// error or cancellation. Streaming callers use it to report whole-sweep
// effort after the last result was already delivered with a snapshot.
func (s *Searcher) LastStats() Stats { return s.lastStats }

// CoverCacheStats returns the aggregated cover-query refinement counters
// of the parallel engine's workers, summed over every search run on this
// searcher since construction. With the partition cache enabled, Hits and
// ParentHits measure how many cluster refinements were answered from (or
// incrementally off) cached parent-state partitions; RefineSteps is the
// work that remained. Zero-valued while only the sequential engine has
// run.
func (s *Searcher) CoverCacheStats() conflict.CoverStats { return s.coverStats }

// FeasibilityFloor returns the smallest τ for which any repair can exist:
// α times a maximal matching over conflict edges that no LHS extension
// resolves (tuple pairs identical except on an FD's RHS). Find(tau) with
// tau below this returns φ without searching.
func (s *Searcher) FeasibilityFloor() int { return s.floor }

// node is an open-list entry.
type node struct {
	state State
	cost  float64 // g: dist_c of the state itself
	gc    float64 // estimated cost of the cheapest goal descendant (= cost for best-first)
	seq   int     // insertion order, for deterministic tie-breaking
	index int     // heap bookkeeping
}

type openList []*node

func (o openList) Len() int { return len(o) }
func (o openList) Less(i, j int) bool {
	if o[i].gc != o[j].gc {
		return o[i].gc < o[j].gc
	}
	if o[i].cost != o[j].cost {
		return o[i].cost < o[j].cost
	}
	return o[i].seq < o[j].seq
}
func (o openList) Swap(i, j int) {
	o[i], o[j] = o[j], o[i]
	o[i].index, o[j].index = i, j
}
func (o *openList) Push(x any) {
	n := x.(*node)
	n.index = len(*o)
	*o = append(*o, n)
}
func (o *openList) Pop() any {
	old := *o
	n := old[len(old)-1]
	old[len(old)-1] = nil
	*o = old[:len(old)-1]
	return n
}

// Find implements Algorithm 2 (Modify_FDs): it returns the FD repair of
// minimum dist_c whose δP is at most tau, or nil if none exists (which can
// only happen if some conflicting pair differs solely on an FD's RHS, so no
// LHS extension resolves it, and tau is too small to repair it by data
// changes). Cancelling ctx aborts the search with context.Cause(ctx).
func (s *Searcher) Find(ctx context.Context, tau int) (*Result, error) {
	res, err := s.run(ctx, tau, tau, nil)
	if err != nil {
		return nil, err
	}
	if len(res) == 0 {
		return nil, nil
	}
	return res[0], nil
}

// FindRange implements Algorithm 6 (Find_Repairs_FDs): it returns the FD
// repairs for every distinct relative-trust level with τ in [tauLow,
// tauHigh], ordered by decreasing τ (increasing FD cost), reusing one open
// list across levels instead of re-running the search per τ. Cancelling
// ctx aborts the search with context.Cause(ctx).
func (s *Searcher) FindRange(ctx context.Context, tauLow, tauHigh int) ([]*Result, error) {
	if tauLow > tauHigh {
		return nil, fmt.Errorf("search: tauLow %d exceeds tauHigh %d", tauLow, tauHigh)
	}
	return s.run(ctx, tauLow, tauHigh, nil)
}

// FindRangeStream is FindRange delivering each result as soon as it is
// proven final instead of collecting the list. A found goal is *held* until
// either a goal of strictly different cost arrives (Definition 4 lets a
// later equal-cost goal with smaller δP supersede the held one) or the
// search ends — so emit sees exactly the results, in exactly the order,
// that FindRange would return. Results emitted mid-search carry the effort
// accumulated up to their finalization; the final held result carries the
// whole run's stats (see LastStats). An error returned by emit aborts the
// search and is returned verbatim; cancellation returns context.Cause(ctx).
func (s *Searcher) FindRangeStream(ctx context.Context, tauLow, tauHigh int, emit func(*Result) error) error {
	if tauLow > tauHigh {
		return fmt.Errorf("search: tauLow %d exceeds tauHigh %d", tauLow, tauHigh)
	}
	_, err := s.run(ctx, tauLow, tauHigh, emit)
	return err
}

// run is the shared engine: a single-τ search is a range search whose first
// goal ends it. The emit hook, when non-nil, streams finalized results (see
// FindRangeStream). Workers > 1 selects the pipelined parallel engine,
// which returns results bit-identical to the sequential one (see runPar).
func (s *Searcher) run(ctx context.Context, tauLow, tauHigh int, emit func(*Result) error) ([]*Result, error) {
	if s.Opt.Workers > 1 {
		return s.runPar(ctx, tauLow, tauHigh, emit)
	}
	return s.runSeq(ctx, tauLow, tauHigh, emit)
}

// resultSink collects the goals of one run and streams them to an optional
// emit hook with a one-goal lag: the most recent goal stays held because a
// later goal of equal cost supersedes it (the Definition 4 tie-break by
// smaller data distance). Everything before the held tail is final and is
// delivered eagerly; finish flushes the tail once the run is over and its
// stats are final.
type resultSink struct {
	results []*Result
	emit    func(*Result) error
	emitted int
}

// add records a goal, superseding the held tail on an equal-cost tie, and
// streams every result that just became final.
func (k *resultSink) add(r *Result) error {
	if n := len(k.results); n > 0 && math.Abs(k.results[n-1].Cost-r.Cost) < 1e-9 {
		// The superseded tail was never emitted: flush stops short of it.
		k.results[n-1] = r
	} else {
		k.results = append(k.results, r)
	}
	return k.flush(len(k.results) - 1)
}

// finish flushes the held tail; the caller must have finalized its stats.
func (k *resultSink) finish() error { return k.flush(len(k.results)) }

func (k *resultSink) flush(upTo int) error {
	for k.emit != nil && k.emitted < upTo {
		if err := k.emit(k.results[k.emitted]); err != nil {
			return err
		}
		k.emitted++
	}
	return nil
}

// runSeq is the sequential engine: everything happens on the calling
// goroutine against the searcher's own analysis and cost cache.
func (s *Searcher) runSeq(ctx context.Context, tauLow, tauHigh int, emit func(*Result) error) ([]*Result, error) {
	start := time.Now()
	stats := Stats{}
	defer func() { s.lastStats = stats }()
	tau := tauHigh
	sigma := s.An.Sigma
	width := s.An.In.Schema.Width()

	// Permanent conflicts put a hard floor under δP of every relaxation:
	// below it there is no goal anywhere in the space, so don't search.
	if tau < s.floor {
		return nil, nil
	}

	gcOf := func(st State, cost float64, tau int) float64 {
		if s.Opt.BestFirst {
			return cost
		}
		stats.GCCalls++
		return s.h.gc(st, s.ds, tau)
	}

	sink := resultSink{emit: emit}
	pq := &openList{}
	heap.Init(pq)
	seq := 0
	root := Root(len(sigma))
	rootCost := s.costs.StateCost(root)
	heap.Push(pq, &node{state: root, cost: rootCost, gc: gcOf(root, rootCost, tau), seq: seq})
	var childBuf []State

	for pq.Len() > 0 && tau >= tauLow {
		if ctx.Err() != nil {
			stats.Duration = time.Since(start)
			return nil, context.Cause(ctx)
		}
		if stats.Visited >= s.Opt.MaxVisited {
			stats.Duration = time.Since(start)
			return nil, &MaxVisitedError{Stats: stats}
		}
		n := heap.Pop(pq).(*node)
		stats.Visited++
		coverSize := s.coverSize(n.state)
		if coverSize*s.alpha <= tau {
			stats.Duration = time.Since(start)
			r := &Result{
				State:     n.state,
				Sigma:     n.state.Apply(sigma),
				Cost:      n.cost,
				CoverSize: coverSize,
				DeltaP:    coverSize * s.alpha,
				Stats:     stats,
			}
			// Definition 4 breaks dist_c ties by the smaller data distance:
			// a later goal with equal cost has strictly smaller δP (τ was
			// tightened below the previous goal's δP before it was found),
			// so it supersedes the previous result instead of joining it —
			// the sink holds the tail back until it is final.
			if err := sink.add(r); err != nil {
				return nil, err
			}
			// Demand strictly fewer data changes for the next repair
			// (Algorithm 6, line 10) and re-estimate the open list under
			// the tightened τ.
			tau = coverSize*s.alpha - 1
			if tau < tauLow || tau < s.floor {
				break
			}
			rebuilt := (*pq)[:0]
			for _, m := range *pq {
				m.gc = gcOf(m.state, m.cost, tau)
				if !math.IsInf(m.gc, 1) {
					m.index = len(rebuilt)
					rebuilt = append(rebuilt, m)
				}
			}
			*pq = rebuilt
			heap.Init(pq)
		}
		childBuf = n.state.Children(width, sigma, childBuf[:0])
		for _, c := range childBuf {
			stats.Generated++
			cost := s.costs.StateCost(c)
			gc := gcOf(c, cost, tau)
			if math.IsInf(gc, 1) {
				continue // no goal state can descend from c within τ
			}
			seq++
			heap.Push(pq, &node{state: c, cost: cost, gc: gc, seq: seq})
		}
	}
	stats.Duration = time.Since(start)
	// A cancel that raced the final iterations must not be reported as
	// success: callers streaming partial results rely on the Canceled
	// verdict to know the frontier is incomplete.
	if ctx.Err() != nil {
		return nil, context.Cause(ctx)
	}
	// Stamp the full-run stats on the results not yet delivered (all of
	// them in batch mode); already-emitted results keep their documented
	// effort-so-far snapshots.
	for _, r := range sink.results[sink.emitted:] {
		r.Stats = stats
	}
	if err := sink.finish(); err != nil {
		return nil, err
	}
	return sink.results, nil
}

// runPar is the parallel engine behind Options.Workers: the same A* loop
// as runSeq, with the three expensive per-iteration evaluations fanned out
// over an evalPool (see pool.go):
//
//   - the popped state's goal-test CoverSize runs on one worker, usually
//     prefetched one iteration early — while the children of the previous
//     pop were still being scored — by speculating that the current heap
//     top wins the next pop (cover queries do not depend on τ, so only a
//     child overtaking the top invalidates the prefetch);
//   - the popped state's children are batch-scored (StateCost + gc) across
//     the workers, speculatively under the current τ, and re-scored in the
//     rare case a goal tightens τ underneath them;
//   - after a goal, the open-list re-estimation fans out in chunks.
//
// Determinism: scores land in generation order regardless of worker finish
// order, children receive exactly the seq tie-breakers runSeq would assign,
// the re-estimation compaction visits nodes in heap-array order, and every
// worker computes bit-identical floats (forked analyses share the immutable
// clusters; cost caches memoize one deterministic weights.Func). The pop
// sequence — and therefore results, goal order, and stats — matches runSeq
// exactly. Stats count logical evaluations: discarded speculative work is
// not reported, so effort numbers stay comparable across worker counts.
func (s *Searcher) runPar(ctx context.Context, tauLow, tauHigh int, emit func(*Result) error) ([]*Result, error) {
	start := time.Now()
	stats := Stats{}
	defer func() { s.lastStats = stats }()
	tau := tauHigh
	sigma := s.An.Sigma
	width := s.An.In.Schema.Width()

	// Permanent conflicts put a hard floor under δP of every relaxation:
	// below it there is no goal anywhere in the space, so don't search.
	if tau < s.floor {
		return nil, nil
	}

	// The deferred close drains every in-flight and queued task before the
	// workers exit and their forks are released, so an early return — error,
	// cancellation, emit abort — never leaks a goroutine and never recycles
	// a fork a worker is still touching.
	pool := newEvalPool(s, s.Opt.Workers)
	defer pool.close()

	sink := resultSink{emit: emit}
	pq := &openList{}
	heap.Init(pq)
	seq := 0
	root := Root(len(sigma))
	rootCost := s.costs.StateCost(root)
	rootGC := rootCost
	if !s.Opt.BestFirst {
		stats.GCCalls++
		rootGC = s.h.gc(root, s.ds, tau)
	}
	heap.Push(pq, &node{state: root, cost: rootCost, gc: rootGC, seq: seq})

	var childBuf []State
	var scoreBuf []childScore
	var prefetch *coverTask // speculative goal test of the predicted next pop
	for pq.Len() > 0 && tau >= tauLow {
		if ctx.Err() != nil {
			prefetch.discard()
			stats.Duration = time.Since(start)
			return nil, context.Cause(ctx)
		}
		if err := pool.err(); err != nil {
			prefetch.discard()
			stats.Duration = time.Since(start)
			return nil, err
		}
		if stats.Visited >= s.Opt.MaxVisited {
			prefetch.discard()
			stats.Duration = time.Since(start)
			return nil, &MaxVisitedError{Stats: stats}
		}
		n := heap.Pop(pq).(*node)
		stats.Visited++
		cover := prefetch
		prefetch = nil
		if cover != nil && cover.forNode != n {
			cover.discard() // mispredicted: a pushed child overtook the heap top
			cover = nil
		}
		if cover == nil {
			cover = pool.startCover(n.state, n)
		}
		if pq.Len() > 0 {
			prefetch = pool.startCover((*pq)[0].state, (*pq)[0])
		}
		// Score the children under the current τ while the goal test (and
		// the prefetch for the next pop) are in flight.
		childBuf = n.state.Children(width, sigma, childBuf[:0])
		batch := pool.startScore(childBuf, tau, scoreBuf)
		coverSize := cover.wait()
		// A panicked cover query completes with a poisoned size; check the
		// pool before treating it as a goal (or pushing children scored by a
		// panicked worker).
		if err := pool.err(); err != nil {
			batch.discard()
			prefetch.discard()
			stats.Duration = time.Since(start)
			return nil, err
		}
		if coverSize*s.alpha <= tau {
			stats.Duration = time.Since(start)
			r := &Result{
				State:     n.state,
				Sigma:     n.state.Apply(sigma),
				Cost:      n.cost,
				CoverSize: coverSize,
				DeltaP:    coverSize * s.alpha,
				Stats:     stats,
			}
			// Same tie-break-by-data-distance replacement as runSeq.
			if err := sink.add(r); err != nil {
				batch.discard()
				prefetch.discard()
				return nil, err
			}
			tau = coverSize*s.alpha - 1
			if tau < tauLow || tau < s.floor {
				batch.discard()
				break
			}
			// τ tightened underneath the speculative child scores: drop
			// them, fan out the open-list re-estimation, and re-score the
			// children under the new τ.
			batch.discard()
			if !s.Opt.BestFirst {
				stats.GCCalls += pq.Len() + len(childBuf)
			}
			pool.reestimate(*pq, tau)
			rebuilt := (*pq)[:0]
			for _, m := range *pq {
				if !math.IsInf(m.gc, 1) {
					m.index = len(rebuilt)
					rebuilt = append(rebuilt, m)
				}
			}
			*pq = rebuilt
			heap.Init(pq)
			batch = pool.startScore(childBuf, tau, scoreBuf)
		} else if !s.Opt.BestFirst {
			stats.GCCalls += len(childBuf)
		}
		scores := batch.wait()
		scoreBuf = scores // keep the (possibly grown) buffer for the next batch
		stats.Generated += len(childBuf)
		for i := range childBuf {
			if math.IsInf(scores[i].gc, 1) {
				continue // no goal state can descend from this child within τ
			}
			seq++
			heap.Push(pq, &node{state: childBuf[i], cost: scores[i].cost, gc: scores[i].gc, seq: seq})
		}
	}
	prefetch.discard()
	stats.Duration = time.Since(start)
	// Same as runSeq: a cancel racing the final iterations wins over a
	// completed-looking sweep, and only unemitted results get the final
	// stats stamp.
	if ctx.Err() != nil {
		return nil, context.Cause(ctx)
	}
	if err := pool.err(); err != nil {
		return nil, err
	}
	for _, r := range sink.results[sink.emitted:] {
		r.Stats = stats
	}
	if err := sink.finish(); err != nil {
		return nil, err
	}
	return sink.results, nil
}

// matchDiffs groups the difference sets of the analysis' matching sample,
// counting the sample edges that carry each, in order of first appearance.
func matchDiffs(an *conflict.Analysis, cap int) []diffCount {
	var out []diffCount
	index := make(map[relation.AttrSet]int)
	for _, d := range an.EdgeDiffs(an.MatchingEdgeSample(cap)) {
		i, ok := index[d]
		if !ok {
			i = len(out)
			index[d] = i
			out = append(out, diffCount{attrs: d})
		}
		out[i].count++
	}
	return out
}

// costCache adapts a weights.Func to the heuristic's costFunc, memoizing
// single-set weights (vector costs are sums of per-position weights).
type costCache struct {
	w     weights.Func
	cache map[relation.AttrSet]float64
}

// Weight returns w(y), memoized.
func (c *costCache) Weight(y relation.AttrSet) float64 {
	if y.IsEmpty() {
		return 0
	}
	if c.cache == nil {
		c.cache = make(map[relation.AttrSet]float64)
	}
	if v, ok := c.cache[y]; ok {
		return v
	}
	v := c.w.Weight(y)
	c.cache[y] = v
	return v
}

// StateCost returns dist_c(Σ, Σ′) for the extension vector.
func (c *costCache) StateCost(s State) float64 {
	total := 0.0
	for _, y := range s {
		total += c.Weight(y)
	}
	return total
}

// marginal returns w(cur ∪ {add}) − w(cur) from the two weights, clamped
// at 0 for safety against non-monotone user weightings.
func marginal(extended, cur float64) float64 {
	m := extended - cur
	if m < 0 {
		return 0
	}
	return m
}
