package search

import (
	"runtime/debug"
	"sync"
	"sync/atomic"

	"relatrust/internal/components"
	"relatrust/internal/conflict"
)

// This file implements the parallel evaluation engine behind
// Options.Workers: a pool of worker goroutines, each owning a forked
// conflict.Analysis (shared immutable clusters, private cover scratch), a
// private costCache over the searcher's shared weight memo, and a private
// heuristic, so CoverSize and gc(S) run lock-free once the memo is warm.
// The engine parallelizes the three hot sections of the A* loop:
//
//  1. the children of a popped state are batch-scored (StateCost + gc)
//     across the workers before being pushed;
//  2. the goal-test CoverSize of the popped state runs on one worker while
//     child scoring is still in flight — including, via a speculative
//     prefetch of the predicted next pop, while the children of the
//     previous pop are still being scored;
//  3. after a goal tightens τ, the open-list re-estimation fans out across
//     the workers.
//
// Determinism: workers only compute pure functions of (state, τ) — cover
// queries on forked analyses and gc under memoized deterministic weights
// return bit-identical values on every worker — and the coordinator commits
// results in generation order with the same seq tie-breakers the sequential
// loop would assign, so which worker finishes first never influences the
// search. See runPar in astar.go.

// worker holds the per-goroutine state of the pool.
type worker struct {
	an    *conflict.Analysis
	h     *heuristic
	costs *costCache
}

// evalPool runs evaluation tasks for one search call. Tasks are closures
// over result slots owned by the submitter; the pool guarantees that after
// the corresponding wait, all writes by the task happen-before the reader.
type evalPool struct {
	searcher *Searcher
	workers  []*worker
	tasks    chan func(*worker)
	wg       sync.WaitGroup

	panicMu  sync.Mutex
	panicErr error // first worker panic, as a *PanicError
}

// newEvalPool forks the searcher's analysis once per worker and starts the
// worker goroutines. n must be >= 1.
func newEvalPool(s *Searcher, n int) *evalPool {
	p := &evalPool{
		searcher: s,
		workers:  make([]*worker, n),
		tasks:    make(chan func(*worker), 4*n),
	}
	for i := range p.workers {
		costs := &costCache{w: s.W}
		an := s.An.Fork()
		// Each worker's fork carries its own partition cache — no locks,
		// dropped again when the fork is released. Both branches reset the
		// fork's cover stats, so close() aggregates this pool's effort
		// only.
		if s.Opt.NoPartitionCache {
			an.DisableCoverCache()
		} else {
			an.EnableCoverCache()
		}
		p.workers[i] = &worker{
			an:    an,
			h:     s.h.fork(costs),
			costs: costs,
		}
	}
	p.wg.Add(n)
	for i := range p.workers {
		go func(w *worker) {
			defer p.wg.Done()
			for task := range p.tasks {
				p.run(w, task)
			}
		}(p.workers[i])
	}
	return p
}

// run executes one task under a recover so a panicking evaluation fails the
// sweep instead of crashing the process. The first panic is recorded (with
// its stack) for the coordinator, which checks err at every commit point;
// later panics are dropped. The worker keeps draining tasks afterwards —
// submitters still block on their completion signals, and every task
// completes its slot via defer, so wait() never deadlocks on a panicked
// task.
func (p *evalPool) run(w *worker, task func(*worker)) {
	defer func() {
		if r := recover(); r != nil {
			p.panicMu.Lock()
			if p.panicErr == nil {
				p.panicErr = &PanicError{Value: r, Stack: debug.Stack()}
			}
			p.panicMu.Unlock()
		}
	}()
	task(w)
}

// err returns the first recorded worker panic, or nil.
func (p *evalPool) err() error {
	p.panicMu.Lock()
	defer p.panicMu.Unlock()
	return p.panicErr
}

// close shuts the pool down after all submitted tasks have run, folds the
// workers' cover-query counters into the searcher, and returns the forked
// analyses to the shared pool.
func (p *evalPool) close() {
	close(p.tasks)
	p.wg.Wait()
	// After a panic the forks' private scratch may be mid-update; dropping
	// them instead of releasing keeps the shared analysis pool clean, so
	// the session stays usable for the next sweep.
	poisoned := p.err() != nil
	for _, w := range p.workers {
		if poisoned {
			continue
		}
		p.searcher.coverStats = p.searcher.coverStats.Add(w.an.CoverStats())
		w.an.Release()
	}
}

// coverTask is one in-flight CoverSize query.
type coverTask struct {
	forNode *node // the open-list node this query was started for, if any
	ch      chan int
}

// startCover submits a CoverSize query for the state and returns without
// waiting. forNode tags speculative prefetches with the predicted node so
// the coordinator can match them against the actual next pop. With
// decomposition on, queries touching many components fan out across the
// workers (see startCoverDecomposed); otherwise one worker answers.
func (p *evalPool) startCover(st State, forNode *node) *coverTask {
	t := &coverTask{forNode: forNode, ch: make(chan int, 1)}
	if ev := p.searcher.decomp; ev != nil {
		p.startCoverDecomposed(ev, st, t)
		return t
	}
	p.tasks <- func(w *worker) {
		// The deferred send keeps wait() from deadlocking when CoverSize
		// panics; the coordinator sees the pool error before trusting the
		// zero result.
		size := -1
		defer func() { t.ch <- size }()
		size = w.an.CoverSize(st)
	}
	return t
}

// coverChunkMin is the minimum number of affected components worth a
// fan-out chunk; below 2× this, one worker answers the whole query.
const coverChunkMin = 8

// coverFanout gathers the per-chunk delta sums of one decomposed cover
// query. The sums are integers, so the combined result is independent of
// chunk completion order; the last chunk to finish — successful or not —
// sends on the task channel, so wait() never deadlocks even when a chunk
// panics (the coordinator checks the pool error before trusting -1).
type coverFanout struct {
	t       *coverTask
	ev      *components.Evaluator
	pending atomic.Int32
	dLen2   atomic.Int64
	dPairs  atomic.Int64
	failed  atomic.Bool
}

func (f *coverFanout) finish(ok bool, dLen2, dPairs int64) {
	if ok {
		f.dLen2.Add(dLen2)
		f.dPairs.Add(dPairs)
	} else {
		f.failed.Store(true)
	}
	if f.pending.Add(-1) != 0 {
		return
	}
	if f.failed.Load() {
		f.t.ch <- -1
		return
	}
	f.t.ch <- f.ev.Combine(f.dLen2.Load(), f.dPairs.Load())
}

// startCoverDecomposed answers one cover query through the component
// evaluator: enough affected components and workers → the components are
// chunked across the pool (cross-component parallelism per pop); small
// queries run on one worker, where the per-component memo usually answers
// most of the work anyway.
func (p *evalPool) startCoverDecomposed(ev *components.Evaluator, st State, t *coverTask) {
	comps := ev.Affected(st)
	if len(p.workers) < 2 || len(comps) < 2*coverChunkMin {
		p.tasks <- func(w *worker) {
			size := -1
			defer func() { t.ch <- size }()
			size = ev.CoverSize(w.an, st)
		}
		return
	}
	chunks := len(p.workers)
	if max := (len(comps) + coverChunkMin - 1) / coverChunkMin; chunks > max {
		chunks = max
	}
	ev.CountParallel(len(comps))
	f := &coverFanout{t: t, ev: ev}
	f.pending.Store(int32(chunks))
	per := (len(comps) + chunks - 1) / chunks
	for i := 0; i < chunks; i++ {
		lo := i * per
		hi := lo + per
		if hi > len(comps) {
			hi = len(comps)
		}
		chunk := comps[lo:hi]
		p.tasks <- func(w *worker) {
			ok := false
			var dLen2, dPairs int64
			defer func() { f.finish(ok, dLen2, dPairs) }()
			dLen2, dPairs = ev.EvalDelta(w.an, chunk, st)
			ok = true
		}
	}
}

// wait blocks until the query finishes and returns the cover size.
func (t *coverTask) wait() int { return <-t.ch }

// discard waits for the query to finish and drops the result. Tasks are
// never cancelled — workers must not outlive the buffers a task reads — so
// a mispredicted prefetch is simply drained.
func (t *coverTask) discard() {
	if t != nil {
		<-t.ch
	}
}

// childScore is the evaluation of one candidate child state.
type childScore struct {
	cost float64
	gc   float64
}

// scoreBatch is one in-flight batch evaluation of child states. Scores land
// at the index of their state, so gathering preserves generation order no
// matter which worker finished first.
type scoreBatch struct {
	states []State
	scores []childScore
	wg     sync.WaitGroup
}

// startScore submits one evaluation task per child under the given τ. The
// states slice and the dst buffer (reused across batches once the previous
// batch was waited or discarded) must stay untouched until wait or discard
// returns; scores are written at their child's position.
func (p *evalPool) startScore(states []State, tau int, dst []childScore) *scoreBatch {
	if cap(dst) < len(states) {
		dst = make([]childScore, len(states))
	}
	b := &scoreBatch{states: states, scores: dst[:len(states)]}
	b.wg.Add(len(states))
	heuristicOn := !p.searcher.Opt.BestFirst
	ds := p.searcher.ds
	for i := range states {
		i := i
		p.tasks <- func(w *worker) {
			defer b.wg.Done()
			cost := w.costs.StateCost(b.states[i])
			gc := cost
			if heuristicOn {
				gc = w.h.gc(b.states[i], ds, tau)
			}
			b.scores[i] = childScore{cost: cost, gc: gc}
		}
	}
	return b
}

// wait blocks until every child of the batch is scored.
func (b *scoreBatch) wait() []childScore {
	b.wg.Wait()
	return b.scores
}

// discard waits for the batch and drops the scores (used when a goal
// tightened τ underneath a speculative evaluation, or on early exit).
func (b *scoreBatch) discard() {
	if b != nil {
		b.wg.Wait()
	}
}

// reestimate recomputes gc for every open-list node under the tightened τ,
// fanning the nodes out across the workers in contiguous chunks. Nodes keep
// their slice positions, so the caller's sequential compaction pass visits
// them in exactly the order the sequential engine would.
func (p *evalPool) reestimate(nodes []*node, tau int) {
	heuristicOn := !p.searcher.Opt.BestFirst
	if !heuristicOn {
		for _, m := range nodes {
			m.gc = m.cost
		}
		return
	}
	ds := p.searcher.ds
	chunk := (len(nodes) + 4*len(p.workers) - 1) / (4 * len(p.workers))
	if chunk < 1 {
		chunk = 1
	}
	var wg sync.WaitGroup
	for lo := 0; lo < len(nodes); lo += chunk {
		hi := lo + chunk
		if hi > len(nodes) {
			hi = len(nodes)
		}
		part := nodes[lo:hi]
		wg.Add(1)
		p.tasks <- func(w *worker) {
			defer wg.Done()
			for _, m := range part {
				m.gc = w.h.gc(m.state, ds, tau)
			}
		}
	}
	wg.Wait()
}
