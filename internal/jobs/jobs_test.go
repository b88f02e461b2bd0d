package jobs

// Manager tests over fake sweeps: lifecycle, coalescing, checkpoint
// restart, shutdown/recover resume, dataset cascade, and eviction. The
// real sweep (A* over a dataset) lives behind the server; here a Sweep is
// just a function emitting canned frames, which is exactly the coupling
// the package boundary promises.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"sync/atomic"
	"testing"
	"time"

	"relatrust/internal/store"
)

func testManager(t *testing.T, opt Options) *Manager {
	t.Helper()
	if opt.Logger == nil {
		opt.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if opt.Now == nil {
		opt.Now = func() int64 { return 1700000000 }
	}
	m := New(opt)
	// A test returns on a job's terminal broadcast, while the sweep
	// goroutine may still be saving the record into a TempDir that cleanup
	// is about to remove.
	t.Cleanup(m.sweeps.Wait)
	return m
}

func testStore(t *testing.T) *store.JobStore {
	t.Helper()
	s, err := store.OpenJobs(t.TempDir(), store.Options{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func testSpec(dataset string) Spec {
	return Spec{Dataset: dataset, FDs: "A->B", TauLow: 0, TauHigh: -1, Weights: "unit", Seed: 7}
}

// TestSpecIDStability pins the content address across upgrades. The
// legacy digest (Kind == "") is frozen: a daemon upgraded across the Kind
// field addition must derive the same id for a persisted sweep record, or
// boot resume would orphan every job. The literal below pins that digest
// — a failure here means the wire-stable hash drifted.
func TestSpecIDStability(t *testing.T) {
	legacy := Spec{Dataset: "paper", FDs: "A->B; C->D", TauLow: 0, TauHigh: -1,
		Weights: "distinct-count", Seed: 9, IncludeChanges: true, Generation: 3}
	if got := legacy.ID(); got != "j4de424163deefe52" {
		t.Errorf("legacy spec id = %s, want j4de424163deefe52", got)
	}

	// Discovery knobs are outside the legacy address: a sweep spec with
	// stray knob values still derives the legacy id.
	stray := legacy
	stray.MaxLHS, stray.MaxError, stray.MaxResults, stray.Attrs = 4, 0.5, 10, "A,B"
	if got := stray.ID(); got != legacy.ID() {
		t.Errorf("sweep spec id depends on discovery knobs: %s vs %s", got, legacy.ID())
	}

	// A non-empty Kind extends the address, and every discovery knob
	// participates in it.
	disc := Spec{Dataset: "paper", Generation: 3, Kind: "discover", MaxLHS: 3}
	if disc.ID() == legacy.ID() {
		t.Error("discover spec collides with the legacy sweep spec")
	}
	seen := map[string]string{disc.ID(): "base"}
	for name, vary := range map[string]Spec{
		"max_lhs":     {Dataset: "paper", Generation: 3, Kind: "discover", MaxLHS: 4},
		"max_error":   {Dataset: "paper", Generation: 3, Kind: "discover", MaxLHS: 3, MaxError: 0.1},
		"max_results": {Dataset: "paper", Generation: 3, Kind: "discover", MaxLHS: 3, MaxResults: 5},
		"attrs":       {Dataset: "paper", Generation: 3, Kind: "discover", MaxLHS: 3, Attrs: "A,B"},
		"generation":  {Dataset: "paper", Generation: 4, Kind: "discover", MaxLHS: 3},
	} {
		id := vary.ID()
		if prev, dup := seen[id]; dup {
			t.Errorf("spec variant %q collides with %q", name, prev)
		}
		seen[id] = name
	}
}

// starter wraps a sweep body in a StartFunc and counts admissions and
// releases, so tests can assert coalescing never double-admits.
type starter struct {
	admitted atomic.Int64
	released atomic.Int64
}

func (s *starter) start(sw Sweep) StartFunc {
	return func(*Job) (Sweep, func(), error) {
		s.admitted.Add(1)
		return sw, func() { s.released.Add(1) }, nil
	}
}

// emitN returns a sweep that emits frames tagged level start..start+n-1
// and returns err.
func emitN(start, n int, err error) Sweep {
	return func(_ context.Context, emit func([]byte) error) error {
		for i := 0; i < n; i++ {
			if e := emit(fmt.Appendf(nil, `{"level":%d}`, start+i)); e != nil {
				return e
			}
		}
		return err
	}
}

// waitTerminal blocks until the job leaves StateRunning (or, when
// interrupted, sets the flag), using the follower protocol.
func waitTerminal(t *testing.T, j *Job) Status {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		_, st, change := j.Next(0)
		if st.State != StateRunning || st.Interrupted {
			return st
		}
		select {
		case <-change:
		case <-deadline:
			t.Fatalf("job %s still running", j.ID)
		}
	}
}

func TestSpecIDStableAndDistinct(t *testing.T) {
	a, b := testSpec("d"), testSpec("d")
	if a.ID() != b.ID() {
		t.Fatalf("identical specs got distinct ids %s and %s", a.ID(), b.ID())
	}
	variants := []Spec{testSpec("other"), a, a, a, a, a, a}
	variants[1].FDs = "A->C"
	variants[2].TauLow = 1
	variants[3].Weights = "distinct-count"
	variants[4].Seed = 8
	variants[5].IncludeChanges = true
	// A mutation bumps the generation: the same spec must address a new
	// job, never coalesce onto the pre-mutation frontier.
	variants[6].Generation = 1
	seen := map[string]int{a.ID(): -1}
	for i, v := range variants {
		id := v.ID()
		if prev, dup := seen[id]; dup {
			t.Errorf("variant %d collides with %d: %s", i, prev, id)
		}
		seen[id] = i
	}
}

func TestSubmitCompleteAndFollow(t *testing.T) {
	m := testManager(t, Options{})
	var adm starter
	j, started, err := m.Submit(testSpec("d"), adm.start(emitN(1, 3, nil)))
	if err != nil || !started {
		t.Fatalf("Submit = started=%v err=%v", started, err)
	}
	st := waitTerminal(t, j)
	if st.State != StateCompleted || st.Rows != 3 {
		t.Fatalf("terminal status %+v, want completed with 3 rows", st)
	}
	frames, _, _ := j.Next(1)
	if len(frames) != 2 || string(frames[0]) != `{"level":2}` {
		t.Fatalf("Next(1) = %q", frames)
	}
	if adm.admitted.Load() != 1 || adm.released.Load() != 1 {
		t.Errorf("admitted=%d released=%d, want 1/1", adm.admitted.Load(), adm.released.Load())
	}
	stats := m.Stats()
	if stats.Completed != 1 || stats.Active != 0 || stats.Coalesced != 0 {
		t.Errorf("stats %+v", stats)
	}
}

func TestCoalesceRunningAndCompleted(t *testing.T) {
	m := testManager(t, Options{})
	var adm starter
	gate := make(chan struct{})
	blocking := func(ctx context.Context, emit func([]byte) error) error {
		if err := emit([]byte(`{"level":1}`)); err != nil {
			return err
		}
		select {
		case <-gate:
			return nil
		case <-ctx.Done():
			return context.Cause(ctx)
		}
	}
	j1, started, err := m.Submit(testSpec("d"), adm.start(blocking))
	if err != nil || !started {
		t.Fatalf("first Submit = started=%v err=%v", started, err)
	}
	// While running: coalesce, no second admission.
	j2, started, err := m.Submit(testSpec("d"), adm.start(emitN(0, 0, nil)))
	if err != nil || started || j2 != j1 {
		t.Fatalf("running coalesce = job=%p started=%v err=%v, want %p/false/nil", j2, started, err, j1)
	}
	close(gate)
	waitTerminal(t, j1)
	// Completed: still coalesces, frontier served from the log.
	j3, started, err := m.Submit(testSpec("d"), adm.start(emitN(0, 0, nil)))
	if err != nil || started || j3 != j1 {
		t.Fatalf("completed coalesce = job=%p started=%v err=%v, want %p/false/nil", j3, started, err, j1)
	}
	if got := adm.admitted.Load(); got != 1 {
		t.Errorf("admitted %d times, want 1", got)
	}
	if got := m.Stats().Coalesced; got != 2 {
		t.Errorf("coalesced = %d, want 2", got)
	}
}

func TestCancelRunningThenRemoveTerminal(t *testing.T) {
	m := testManager(t, Options{})
	var adm starter
	running := make(chan struct{})
	j, _, err := m.Submit(testSpec("d"), adm.start(func(ctx context.Context, emit func([]byte) error) error {
		close(running)
		<-ctx.Done()
		return context.Cause(ctx)
	}))
	if err != nil {
		t.Fatal(err)
	}
	<-running
	found, removed := m.Cancel(j.ID)
	if !found || removed {
		t.Fatalf("Cancel(running) = %v,%v, want true,false", found, removed)
	}
	st := waitTerminal(t, j)
	if st.State != StateCancelled || st.ErrorCode != "cancelled" {
		t.Fatalf("after cancel: %+v", st)
	}
	if adm.released.Load() != 1 {
		t.Errorf("slot not released after cancel")
	}
	found, removed = m.Cancel(j.ID)
	if !found || !removed {
		t.Fatalf("Cancel(terminal) = %v,%v, want true,true", found, removed)
	}
	if m.Get(j.ID) != nil {
		t.Error("job still listed after terminal cancel")
	}
	if found, _ := m.Cancel(j.ID); found {
		t.Error("Cancel of unknown id reported found")
	}
}

func TestResubmitFailedResumesFromCheckpoint(t *testing.T) {
	m := testManager(t, Options{})
	var adm starter
	j, _, err := m.Submit(testSpec("d"), adm.start(emitN(1, 2, errors.New("boom"))))
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, j)
	if st.State != StateFailed || st.ErrorCode != "internal" || st.Rows != 2 {
		t.Fatalf("after failure: %+v", st)
	}
	// The restart sweep sees the two checkpointed rows and continues; a
	// restart that re-emitted from scratch would duplicate them.
	resume := func(ctx context.Context, emit func([]byte) error) error {
		if got := j.Rows(); got != 2 {
			return fmt.Errorf("resume saw %d checkpointed rows, want 2", got)
		}
		return emitN(3, 2, nil)(ctx, emit)
	}
	j2, started, err := m.Submit(testSpec("d"), adm.start(resume))
	if err != nil || !started || j2 != j {
		t.Fatalf("resubmit = job=%p started=%v err=%v", j2, started, err)
	}
	st = waitTerminal(t, j)
	if st.State != StateCompleted || st.Rows != 4 || st.ErrorCode != "" {
		t.Fatalf("after resume: %+v", st)
	}
	if got := m.Stats().Resumed; got != 1 {
		t.Errorf("resumed = %d, want 1", got)
	}
}

func TestErrorCodeClassifier(t *testing.T) {
	m := testManager(t, Options{ErrorCode: func(err error) string { return "classified" }})
	var adm starter
	j, _, err := m.Submit(testSpec("d"), adm.start(emitN(0, 0, errors.New("boom"))))
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, j); st.ErrorCode != "classified" {
		t.Fatalf("error code %q, want the classifier's", st.ErrorCode)
	}
}

func TestSweepPanicFailsJobOnly(t *testing.T) {
	m := testManager(t, Options{})
	var adm starter
	j, _, err := m.Submit(testSpec("d"), adm.start(func(context.Context, func([]byte) error) error {
		panic("sweep exploded")
	}))
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, j)
	if st.State != StateFailed {
		t.Fatalf("after panic: %+v", st)
	}
	if adm.released.Load() != 1 {
		t.Error("slot leaked by panicking sweep")
	}
}

func TestShutdownInterruptsAndRecoverResumes(t *testing.T) {
	dir := testStore(t)
	m := testManager(t, Options{Store: dir})
	var adm starter
	emitted := make(chan struct{})
	j, _, err := m.Submit(testSpec("d"), adm.start(func(ctx context.Context, emit func([]byte) error) error {
		if err := emit([]byte(`{"level":1}`)); err != nil {
			return err
		}
		if err := emit([]byte(`{"level":2}`)); err != nil {
			return err
		}
		close(emitted)
		<-ctx.Done()
		return context.Cause(ctx)
	}))
	if err != nil {
		t.Fatal(err)
	}
	<-emitted
	m.Shutdown()
	st := waitTerminal(t, j)
	if !st.Interrupted || st.State != StateRunning {
		t.Fatalf("after shutdown: %+v, want interrupted+running", st)
	}
	if adm.released.Load() != 1 {
		t.Fatal("slot not released by interrupted sweep")
	}

	// "Reboot": a fresh manager over the same store resumes the sweep from
	// the checkpointed rows.
	m2 := testManager(t, Options{Store: dir})
	var adm2 starter
	resumed := make(chan *Job, 1)
	n, err := m2.Recover(func(rj *Job) (Sweep, func(), error) {
		resumed <- rj
		adm2.admitted.Add(1)
		sw := func(ctx context.Context, emit func([]byte) error) error {
			if got := rj.Rows(); got != 2 {
				return fmt.Errorf("resume saw %d rows, want 2", got)
			}
			return emit([]byte(`{"level":3}`))
		}
		return sw, func() { adm2.released.Add(1) }, nil
	})
	if err != nil || n != 1 {
		t.Fatalf("Recover = %d, %v, want 1 resumed", n, err)
	}
	var rj *Job
	select {
	case rj = <-resumed:
	case <-time.After(5 * time.Second):
		t.Fatal("recovery never started the sweep")
	}
	if rj.ID != j.ID {
		t.Fatalf("recovered id %s, want %s", rj.ID, j.ID)
	}
	st = waitTerminal(t, rj)
	if st.State != StateCompleted || st.Rows != 3 {
		t.Fatalf("after recovery: %+v, want completed with 3 rows", st)
	}
	frames := rj.Frames()
	for i, want := range []string{`{"level":1}`, `{"level":2}`, `{"level":3}`} {
		if string(frames[i]) != want {
			t.Errorf("frame %d = %q, want %q (replay and live bytes must agree)", i, frames[i], want)
		}
	}
	if got := m2.Stats().Resumed; got != 1 {
		t.Errorf("resumed = %d, want 1", got)
	}

	// A third boot finds the completed record and resumes nothing.
	m3 := testManager(t, Options{Store: dir})
	n, err = m3.Recover(func(*Job) (Sweep, func(), error) {
		t.Error("completed job restarted at boot")
		return nil, nil, errors.New("unreachable")
	})
	if err != nil || n != 0 {
		t.Fatalf("third Recover = %d, %v, want 0 resumed", n, err)
	}
	j3 := m3.Get(j.ID)
	if j3 == nil {
		t.Fatal("completed job not rehydrated")
	}
	if st := j3.Status(); st.State != StateCompleted || st.Rows != 3 {
		t.Fatalf("rehydrated terminal job: %+v", st)
	}
}

func TestRecoverDatasetGone(t *testing.T) {
	dir := testStore(t)
	m := testManager(t, Options{Store: dir})
	rec := store.JobRecord{
		ID: testSpec("ghost").ID(), Dataset: "ghost", FDs: "A->B",
		TauHigh: -1, Weights: "unit", Seed: 7, State: "running",
	}
	if err := dir.SaveRecord(rec); err != nil {
		t.Fatal(err)
	}
	n, err := m.Recover(func(*Job) (Sweep, func(), error) {
		return nil, nil, fmt.Errorf("%w: dataset %q is not registered", ErrDatasetDeleted, "ghost")
	})
	if err != nil || n != 1 {
		t.Fatalf("Recover = %d, %v", n, err)
	}
	// The job cancels and its durable trace drops (async: start runs on a
	// goroutine).
	deadline := time.After(5 * time.Second)
	for m.Get(rec.ID) != nil {
		select {
		case <-deadline:
			t.Fatalf("dataset-gone job still present: %+v", m.Get(rec.ID).Status())
		case <-time.After(5 * time.Millisecond):
		}
	}
	if got, err := dir.LoadAll(); err != nil || len(got) != 0 {
		t.Fatalf("durable trace survived dataset-gone recovery: %d jobs, %v", len(got), err)
	}
}

func TestCancelDatasetCascade(t *testing.T) {
	dir := testStore(t)
	m := testManager(t, Options{Store: dir})
	var adm starter
	// A completed job and a running job on "a", a completed job on "b".
	ja, _, err := m.Submit(testSpec("a"), adm.start(emitN(1, 1, nil)))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, ja)
	jb, _, err := m.Submit(testSpec("b"), adm.start(emitN(1, 1, nil)))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, jb)
	running := make(chan struct{})
	spec2 := testSpec("a")
	spec2.Seed = 99
	jrun, _, err := m.Submit(spec2, adm.start(func(ctx context.Context, emit func([]byte) error) error {
		close(running)
		<-ctx.Done()
		return context.Cause(ctx)
	}))
	if err != nil {
		t.Fatal(err)
	}
	<-running

	m.CancelDataset("a")
	st := waitTerminal(t, jrun)
	if st.State != StateCancelled || st.ErrorCode != "dataset_deleted" {
		t.Fatalf("running job after dataset delete: %+v", st)
	}
	deadline := time.After(5 * time.Second)
	for m.Get(jrun.ID) != nil || m.Get(ja.ID) != nil {
		select {
		case <-deadline:
			t.Fatal("dataset-a jobs still listed")
		case <-time.After(5 * time.Millisecond):
		}
	}
	if m.Get(jb.ID) == nil {
		t.Fatal("dataset-b job was collateral damage")
	}
	recovered, err := dir.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 1 || recovered[0].Record.ID != jb.ID {
		t.Fatalf("durable store after cascade holds %d jobs, want only %s", len(recovered), jb.ID)
	}
}

func TestEvictionOldestTerminalFirst(t *testing.T) {
	dir := testStore(t)
	// Each completed job's log is 27 bytes (8 magic + 8 framing + 11
	// payload); a 60-byte cap holds two logs but not three.
	m := testManager(t, Options{Store: dir, MaxResultBytes: 60})
	var adm starter
	specs := []Spec{testSpec("a"), testSpec("b"), testSpec("c")}
	jobsByID := make([]*Job, len(specs))
	for i, sp := range specs {
		j, _, err := m.Submit(sp, adm.start(emitN(1, 1, nil)))
		if err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, j)
		jobsByID[i] = j
	}
	if m.Get(jobsByID[0].ID) != nil {
		t.Error("oldest terminal job not evicted")
	}
	if m.Get(jobsByID[2].ID) == nil {
		t.Error("newest terminal job evicted")
	}
	if got := m.Stats().ResultsEvictedBytes; got <= 0 {
		t.Errorf("results_evicted_bytes = %d, want > 0", got)
	}
	// The evicted job's durable trace is gone too.
	recovered, err := dir.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recovered {
		if r.Record.ID == jobsByID[0].ID {
			t.Error("evicted job still on disk")
		}
	}
	// A running job is never evicted, no matter how much it logs.
	running := make(chan struct{})
	release := make(chan struct{})
	spec := testSpec("big")
	jr, _, err := m.Submit(spec, adm.start(func(ctx context.Context, emit func([]byte) error) error {
		for i := 0; i < 20; i++ {
			if err := emit(fmt.Appendf(nil, `{"level":%d,"pad":"xxxxxxxxxxxxxxxx"}`, i+1)); err != nil {
				return err
			}
		}
		close(running)
		select {
		case <-release:
			return nil
		case <-ctx.Done():
			return context.Cause(ctx)
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	<-running
	if m.Get(jr.ID) == nil {
		t.Fatal("running job evicted")
	}
	close(release)
	waitTerminal(t, jr)
}
