package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"relatrust/internal/components"
	"relatrust/internal/conflict"
	"relatrust/internal/discovery"
	"relatrust/internal/fd"
	"relatrust/internal/jobs"
	"relatrust/internal/live"
	"relatrust/internal/relation"
	"relatrust/internal/repair"
	"relatrust/internal/report"
	"relatrust/internal/search"
	"relatrust/internal/session"
	"relatrust/internal/store"
	"relatrust/internal/weights"
)

// The direct replay runs a client's operation sequence without HTTP, by
// calling the layers the server's handlers call, in the same order: the
// session engine, the component evaluator, the searcher, the cover query,
// the data repair, the live table, the discovery walk, the snapshot store
// and the job manager. With tracing on, a span from this file wraps each
// call; nothing inside the program is instrumented.

// span is one timed call. Spans of one operation share Op; Parent indexes
// the enclosing span of the same operation (-1 for the root).
type span struct {
	Op     int64  `json:"op"`
	Kind   string `json:"kind"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// opTrace collects one operation's spans and counts. A nil *opTrace
// records nothing, which is how the untraced replay runs. An operation's
// spans are opened and closed by one goroutine at a time (a job's sweep
// runs while its client waits), so only the weight counters, which the
// search may hit from its workers, are atomic.
type opTrace struct {
	id     int64
	kind   opKind
	epoch  time.Time
	spans  []span
	open   []int
	counts map[string]float64

	weightNS    atomic.Int64
	weightCalls atomic.Int64
}

func (t *opTrace) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, span{Op: t.id, Kind: t.kind.String(), ID: len(t.spans), Parent: parent, Name: name,
		Start: int64(time.Since(t.epoch))})
	t.open = append(t.open, len(t.spans)-1)
	return len(t.spans) - 1
}

func (t *opTrace) end(i int) {
	if t == nil {
		return
	}
	t.spans[i].End = int64(time.Since(t.epoch))
	t.open = t.open[:len(t.open)-1]
}

// add records a span whose bounds were taken elsewhere (the job queue
// wait, which starts on the client and ends on the sweep goroutine).
func (t *opTrace) add(name string, start, end time.Time) {
	if t == nil {
		return
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, span{Op: t.id, Kind: t.kind.String(), ID: len(t.spans), Parent: parent, Name: name,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))})
}

func (t *opTrace) count(name string, v float64) {
	if t != nil {
		t.counts[name] += v
	}
}

// timedWeights is the weights.Func wrapper that times every look-up.
type timedWeights struct {
	w weights.Func
	t *opTrace
}

func (tw timedWeights) Weight(y relation.AttrSet) float64 {
	start := time.Now()
	v := tw.w.Weight(y)
	tw.t.weightNS.Add(int64(time.Since(start)))
	tw.t.weightCalls.Add(1)
	return v
}

func (tw timedWeights) Name() string { return tw.w.Name() }

// directSet is one dataset of the replay.
type directSet struct {
	name  string
	sigma fd.Set
	fds   string // Σ as the job tier canonicalizes it
	in    *relation.Instance
	eng   *session.Engine
	table *live.Table // live_mix datasets mutate through the live tier
}

func (d *directSet) snapshot() (*relation.Instance, *session.Engine) {
	if d.table != nil {
		in, eng, _ := d.table.Snapshot()
		return in, eng
	}
	return d.in, d.eng
}

// replayer executes operations directly against the layers.
type replayer struct {
	tracing bool
	epoch   time.Time
	sets    map[string]*directSet
	store   *store.Store
	jobs    *jobs.Manager
	seq     atomic.Int64

	mu     sync.Mutex
	traces []*opTrace // finished operations (tracing only)
	setupT *opTrace   // dataset parsing and registration
	// Engine and evaluator counters are cumulative and shared between the
	// clients of one dataset; the replay sums each one's change from the
	// first time an operation touched it.
	engines map[*session.Engine]session.Stats
	evals   map[*components.Evaluator]int64
}

// newReplayer parses and registers every dataset the way the server does
// on upload (snapshot written to a store in dir), then warms each with the
// setup's budget repair.
func newReplayer(ctx context.Context, in *inputs, dir string, tracing bool) (*replayer, error) {
	st, err := store.Open(filepath.Join(dir, "data"), store.Options{})
	if err != nil {
		return nil, err
	}
	js, err := store.OpenJobs(filepath.Join(dir, "jobs"), store.Options{})
	if err != nil {
		return nil, err
	}
	r := &replayer{
		tracing: tracing,
		epoch:   time.Now(),
		sets:    map[string]*directSet{},
		store:   st,
		jobs:    jobs.New(jobs.Options{Store: js}),
		engines: map[*session.Engine]session.Stats{},
		evals:   map[*components.Evaluator]int64{},
	}
	r.setupT = r.newTrace(opSetup)
	for _, ds := range in.datasets {
		t := r.setupT
		sp := t.begin("relation.read_csv")
		inst, err := relation.ReadCSV(strings.NewReader(ds.csv))
		t.end(sp)
		if err != nil {
			return nil, err
		}
		sp = t.begin("store.save")
		err = st.Save(ds.name, inst)
		t.end(sp)
		if err != nil {
			return nil, err
		}
		sigma, err := fd.ParseSet(inst.Schema, in.fds)
		if err != nil {
			return nil, err
		}
		d := &directSet{name: ds.name, sigma: sigma, fds: sigma.Format(inst.Schema)}
		if ds.errorGroups != nil {
			d.table = live.NewTable(inst, 0)
		} else {
			d.in, d.eng = inst, session.New(inst)
		}
		r.sets[ds.name] = d
		if _, err := r.findAndRepair(ctx, nil, d, 1<<30, 0); err != nil {
			return nil, fmt.Errorf("warming %s: %w", ds.name, err)
		}
	}
	return r, nil
}

func (r *replayer) newTrace(kind opKind) *opTrace {
	if !r.tracing {
		return nil
	}
	return &opTrace{id: r.seq.Add(1), kind: kind, epoch: r.epoch, counts: map[string]float64{}}
}

// exec is the replay's per-client executor for closedLoop.
func (r *replayer) exec(int) func(context.Context, op) sample {
	return func(ctx context.Context, o op) sample {
		t := r.newTrace(o.kind)
		s := sample{kind: o.kind}
		start := time.Now()
		root := t.begin("op." + o.kind.String())
		switch o.kind {
		case opBudget:
			s.err = r.budget(ctx, t, o)
		case opFrontier:
			s.err = r.frontier(ctx, t, o, func() {
				if s.first == 0 {
					s.first = time.Since(start)
				}
			})
		case opJob:
			s.err = r.job(ctx, t, o)
		case opPatch:
			s.err = r.patch(t, o)
		case opDiscover:
			s.err = r.discover(ctx, t, o)
		}
		t.end(root)
		s.lat = time.Since(start)
		if t != nil {
			r.mu.Lock()
			r.traces = append(r.traces, t)
			r.mu.Unlock()
		}
		return s
	}
}

// track notes the counters of an engine and evaluator before an operation
// first uses them.
func (r *replayer) track(t *opTrace, eng *session.Engine, ev *components.Evaluator) {
	if t == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.engines[eng]; !ok {
		r.engines[eng] = eng.Stats()
	}
	if ev != nil {
		if _, ok := r.evals[ev]; !ok {
			r.evals[ev] = ev.Counters().Parallel
		}
	}
}

// searcher mirrors repair.NewSession: acquire a fork of the dataset's
// conflict analysis, fetch the shared component evaluator, and build a
// searcher with a fresh DistinctCount weighting, as the server does per
// request.
func (r *replayer) searcher(t *opTrace, d *directSet, in *relation.Instance, eng *session.Engine) (*conflict.Analysis, *search.Searcher) {
	r.track(t, eng, nil)
	var w weights.Func = weights.NewDistinctCount(in)
	if t != nil {
		w = timedWeights{w: w, t: t}
	}
	sp := t.begin("session.acquire")
	an := eng.Acquire(d.sigma)
	t.end(sp)
	sp = t.begin("components.evaluator")
	ev := eng.CoverEvaluator(d.sigma)
	t.end(sp)
	r.track(t, eng, ev)
	sp = t.begin("search.new_searcher")
	s := search.NewSearcher(an, w, search.Options{Decomp: ev})
	t.end(sp)
	return an, s
}

// searchStats records a finished search's effort.
func searchStats(t *opTrace, s *search.Searcher) {
	if t == nil {
		return
	}
	st, cs, comp := s.LastStats(), s.CoverCacheStats(), s.ComponentStats()
	t.count("search.visited", float64(st.Visited))
	t.count("search.generated", float64(st.Generated))
	t.count("search.gc_calls", float64(st.GCCalls))
	t.count("conflict.refine_steps", float64(cs.RefineSteps))
	t.count("conflict.cover_queries", float64(cs.Queries))
	t.count("conflict.cover_hits", float64(cs.Hits+cs.ParentHits))
	t.count("components.sweeps", 1)
	t.count("components.count", float64(comp.Components))
	t.count("components.largest", float64(comp.LargestComponent))
}

// materialize mirrors repair.Session.materialize: the cover of the found
// FD modification, then the data repair.
func materialize(t *opTrace, in *relation.Instance, eng *session.Engine, an *conflict.Analysis, res *search.Result, tau int, seed int64) (*repair.Repair, error) {
	sp := t.begin("conflict.cover")
	cover := an.Cover(res.State)
	t.end(sp)
	sp = t.begin("repair.data")
	data, err := repair.RepairData(in, res.Sigma, cover, seed, eng)
	t.end(sp)
	if err != nil {
		return nil, err
	}
	t.count("repair.cells_changed", float64(data.NumChanges()))
	return &repair.Repair{Sigma: res.Sigma, Ext: res.State, FDCost: res.Cost, Data: data,
		Tau: tau, DeltaP: res.DeltaP, Stats: res.Stats}, nil
}

// findAndRepair is Algorithm 1 as repair.Session.Run runs it.
func (r *replayer) findAndRepair(ctx context.Context, t *opTrace, d *directSet, tau int, seed int64) (report.Row, error) {
	in, eng := d.snapshot()
	an, s := r.searcher(t, d, in, eng)
	defer eng.Release(an)
	sp := t.begin("search.find")
	res, err := s.Find(ctx, tau)
	t.end(sp)
	if err != nil {
		return report.Row{}, err
	}
	searchStats(t, s)
	if res == nil {
		return report.Row{}, fmt.Errorf("no repair within τ=%d", tau)
	}
	rep, err := materialize(t, in, eng, an, res, tau, seed)
	if err != nil {
		return report.Row{}, err
	}
	return report.RowOf(in, 1, rep), nil
}

func (r *replayer) budget(ctx context.Context, t *opTrace, o op) error {
	row, err := r.findAndRepair(ctx, t, r.sets[o.dataset], o.tau, 0)
	if err != nil {
		return err
	}
	return sameRow(row, o.want.row)
}

// sweep is handleRepair's work: resolve δP, then Algorithm 6 with each
// Pareto point materialized and handed to emit as it is final.
func (r *replayer) sweep(ctx context.Context, t *opTrace, d *directSet, seed int64, emit func(report.Row) error) error {
	in, eng := d.snapshot()
	an, s := r.searcher(t, d, in, eng)
	sp := t.begin("conflict.cover")
	dp := s.DeltaPOriginal()
	t.end(sp)
	eng.Release(an)

	an, s = r.searcher(t, d, in, eng)
	defer eng.Release(an)
	tau, level := dp, 0
	sp = t.begin("search.find")
	err := s.FindRangeStream(ctx, 0, dp, func(res *search.Result) error {
		rep, err := materialize(t, in, eng, an, res, tau, seed)
		if err != nil {
			return err
		}
		tau = res.DeltaP - 1
		level++
		return emit(report.RowOf(in, level, rep))
	})
	t.end(sp)
	searchStats(t, s)
	return err
}

func (r *replayer) frontier(ctx context.Context, t *opTrace, o op, firstRow func()) error {
	var rows []report.Row
	err := r.sweep(ctx, t, r.sets[o.dataset], o.seed, func(row report.Row) error {
		firstRow()
		rows = append(rows, row)
		return nil
	})
	if err != nil {
		return err
	}
	return sameRows(rows, o.want.rows)
}

func sameRows(got, want []report.Row) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want))
	}
	for i := range got {
		if err := sameRow(got[i], want[i]); err != nil {
			return fmt.Errorf("row %d: %w", i+1, err)
		}
	}
	return nil
}

// job runs the sweep through the job manager with a durable job store, as
// POST /v1/jobs does, follows it to its terminal state, and deletes it.
func (r *replayer) job(ctx context.Context, t *opTrace, o op) error {
	d := r.sets[o.dataset]
	spec := jobs.Spec{Dataset: d.name, FDs: d.fds, TauHigh: -1, Weights: "distinct-count", Seed: o.seed}
	submitted := time.Now()
	j, started, err := r.jobs.Submit(spec, func(*jobs.Job) (jobs.Sweep, func(), error) {
		return func(ctx context.Context, emit func([]byte) error) error {
			t.add("jobs.wait", submitted, time.Now())
			sp := t.begin("jobs.run")
			defer t.end(sp)
			return r.sweep(ctx, t, d, o.seed, func(row report.Row) error {
				raw, err := json.Marshal(row)
				if err != nil {
					return err
				}
				sp := t.begin("store.append")
				err = emit(raw)
				t.end(sp)
				t.count("store.appends", 1)
				return err
			})
		}, func() {}, nil
	})
	if err != nil {
		return err
	}
	if !started {
		return fmt.Errorf("job %s coalesced with an earlier job", j.ID)
	}
	for {
		frames, st, wait := j.Next(0)
		if st.State != jobs.StateRunning {
			if st.State != jobs.StateCompleted {
				return fmt.Errorf("job %s ended %s: %s", j.ID, st.State, st.ErrorMessage)
			}
			if err := checkRows(frames, o.want.rows); err != nil {
				return fmt.Errorf("job frames: %w", err)
			}
			break
		}
		select {
		case <-wait:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	if found, removed := r.jobs.Cancel(j.ID); !found || !removed {
		return fmt.Errorf("deleting job %s: found=%v removed=%v", j.ID, found, removed)
	}
	return nil
}

// patch applies a batch through the live tier with the server's
// write-through: generation sidecar, then snapshot, before the commit.
func (r *replayer) patch(t *opTrace, o op) error {
	d := r.sets[o.dataset]
	ops := make([]live.Op, len(o.batch))
	userBytes := 0
	for i, u := range o.batch {
		tup := make(relation.Tuple, len(u.values))
		for a, v := range u.values {
			tup[a] = relation.Const(v)
			userBytes += len(v)
		}
		ops[i] = live.Op{Kind: live.OpUpdate, Row: u.row, Tuple: tup}
	}
	sp := t.begin("live.apply")
	res, err := d.table.Apply(ops, func(in *relation.Instance) error {
		sp := t.begin("store.save")
		defer t.end(sp)
		if err := r.store.SaveGeneration(d.name, o.want.generation); err != nil {
			return err
		}
		return r.store.Save(d.name, in)
	})
	t.end(sp)
	if err != nil {
		return err
	}
	if t != nil {
		fi, err := os.Stat(filepath.Join(r.store.Dir(), d.name+".snap"))
		if err != nil {
			return err
		}
		t.count("store.snapshot_bytes", float64(fi.Size()))
		t.count("store.user_bytes", float64(userBytes))
		t.count("live.components_dirtied", float64(res.ComponentsDirtied))
	}
	return samePatch(res.Generation, res.Applied, res.NewN, o.want)
}

// discover mines FDs over the current snapshot with the engine's shared
// partition store, as the Discoverer behind /v1/discover does.
func (r *replayer) discover(ctx context.Context, t *opTrace, o op) error {
	d := r.sets[o.dataset]
	in, eng := d.snapshot()
	var (
		frames []discoverFrame
		mined  fd.Set
	)
	opt := discovery.StreamOptions{MaxLHS: discoverMaxLHS, MaxError: discoverMaxError, Store: eng.Partitions()}
	sp := t.begin("discovery.stream")
	err := discovery.Stream(ctx, in, opt, func(f discovery.Found) error {
		frames = append(frames, discoverFrame{N: len(frames) + 1, FD: f.FD.Format(in.Schema), Level: f.Level, Error: f.Error})
		mined = append(mined, f.FD)
		return nil
	})
	t.end(sp)
	if err != nil {
		return err
	}
	t.count("discovery.fds_found", float64(len(frames)))
	if t != nil {
		t.counts["discovery.partition_store_peak"] = float64(eng.Partitions().Peak())
	}
	sortMined(mined)
	return sameDiscovery(frames, sigmaFrame{Sigma: mined.Format(in.Schema), FDs: len(mined)}, o.want)
}
