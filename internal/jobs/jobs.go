// Package jobs runs τ-sweeps as durable, resumable, content-addressed
// jobs, detached from any client connection.
//
// # Model
//
// A job is one frontier sweep identified by its spec — (dataset, FD set,
// τ-range, weighting, seed, include_changes). The id is a hash of the
// spec, so identical submissions coalesce onto the running (or finished)
// job instead of admitting a second sweep, and a restarted daemon derives
// the same id for the same work. The manager owns every job's lifecycle:
//
//	running ──→ completed            (sweep finished the range)
//	        ──→ failed               (sweep error or recovered panic)
//	        ──→ cancelled            (DELETE, or the dataset was deleted)
//
// A daemon shutdown is none of these: the sweep is interrupted, the
// durable record keeps saying "running", and the next boot resumes it.
//
// # Checkpoint/replay invariants
//
// The search layer emits a frontier row only once no equal-cost goal can
// supersede it (the result sink holds the most recent goal back until a
// goal of strictly different cost arrives), so every row the sweep yields
// is final. The manager exploits that:
//
//  1. Each emitted row is appended to the job's durable result log
//     (crc-framed, fsynced) BEFORE it becomes visible to streaming
//     followers. A row a client saw is a row that survives a crash.
//  2. Rows are strictly append-only and never rewritten, so a follower at
//     offset k and a replay from the log agree byte-for-byte.
//  3. Resuming re-runs the sweep over [tauLow, lastRow.DeltaP-1]: the
//     uninterrupted sweep would have continued with exactly that budget
//     after emitting lastRow, so the concatenation of replayed rows and
//     the resumed sweep's rows is identical to an uninterrupted run
//     (Repairer.FrontierRange pins this contract). A last row with
//     DeltaP-1 below tauLow means the frontier was already complete.
//
// The manager never parses row bytes itself — the sweep callback supplied
// by the server owns the wire format, including deriving the resume bound
// from the last replayed row.
package jobs

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"log/slog"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"relatrust/internal/store"
)

// State is a job's lifecycle state.
type State string

const (
	StateRunning   State = "running"
	StateCompleted State = "completed"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Cancellation causes. The manager cancels a job's context with one of
// these; the facade surfaces context.Cause, so the sweep's terminal error
// matches them with errors.Is and finish classifies accordingly.
var (
	// ErrCancelled is the cause of an explicit DELETE of a running job.
	ErrCancelled = errors.New("jobs: cancelled by request")
	// ErrDatasetDeleted is the cause when the job's dataset was deleted
	// out from under it; it is also the start error a recovery uses when
	// the dataset no longer exists at boot.
	ErrDatasetDeleted = errors.New("jobs: dataset deleted")
	// ErrInterrupted is the shutdown cause: the job is not terminal — its
	// durable record stays "running" and the next boot resumes it.
	ErrInterrupted = errors.New("jobs: interrupted by shutdown")
	// ErrDatasetMutated is the start error when a recovered job's
	// generation no longer matches the dataset's: its partial results
	// answer for rows that were since rewritten, so the job fails rather
	// than resume against the wrong data.
	ErrDatasetMutated = errors.New("jobs: dataset mutated since the job was recorded")
	// ErrCheckpoint wraps a result-log append failure, so the serving
	// layer can map it to its storage error code.
	ErrCheckpoint = errors.New("jobs: checkpoint append failed")
)

// Spec is a job's content address. Engine tuning knobs (workers,
// best-first, visit caps) are deliberately excluded: they do not change
// the frontier, so submissions differing only in them coalesce (first
// submission's knobs win). Seed and IncludeChanges are included because
// they change the row bytes.
type Spec struct {
	Dataset string
	// FDs is the canonical, schema-formatted FD set.
	FDs    string
	TauLow int
	// TauHigh < 0 means δP(Σ, I).
	TauHigh        int
	Weights        string
	Seed           int64
	IncludeChanges bool
	// Generation is the dataset's mutation generation at submission:
	// mutating a dataset re-addresses every job against it, so a
	// resubmitted spec runs a fresh sweep instead of replaying answers
	// computed over rows that no longer exist.
	Generation int64

	// Kind selects the job body: "" is a frontier sweep (the original job
	// kind), "discover" an FD-mining run. The discovery knobs below are
	// part of the address only when Kind is non-empty.
	Kind       string
	MaxLHS     int
	MaxError   float64
	MaxResults int
	// Attrs is the canonical comma-separated attribute-name restriction.
	Attrs string
}

// ID derives the job id from the spec: a short hex digest with a "j"
// prefix. Identical specs — including across process restarts — get
// identical ids; that is what coalescing and boot resume key on. The
// legacy sweep digest (Kind == "") is frozen: a daemon upgraded across
// this field addition must derive the same id for a persisted sweep job,
// or boot resume would orphan every record.
func (sp Spec) ID() string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\x1f%s\x1f%d\x1f%d\x1f%s\x1f%d\x1f%t\x1f%d",
		sp.Dataset, sp.FDs, sp.TauLow, sp.TauHigh, sp.Weights, sp.Seed, sp.IncludeChanges,
		sp.Generation)
	if sp.Kind != "" {
		fmt.Fprintf(h, "\x1f%s\x1f%d\x1f%g\x1f%d\x1f%s",
			sp.Kind, sp.MaxLHS, sp.MaxError, sp.MaxResults, sp.Attrs)
	}
	return "j" + hex.EncodeToString(h.Sum(nil))[:16]
}

// Sweep runs one job's τ-sweep: it must call emit with each finished
// frontier row's wire bytes, in order, and return the sweep's terminal
// error (nil when the range is exhausted). When the job already holds
// replayed rows the sweep must continue from them, not restart. An emit
// error must abort the sweep and be returned.
type Sweep func(ctx context.Context, emit func(frame []byte) error) error

// StartFunc admits one job's sweep: it acquires whatever slot the serving
// layer rations, and returns the sweep body plus a release invoked exactly
// once when the sweep goroutine finishes. An error (e.g. load shedding)
// aborts the submission with nothing admitted.
type StartFunc func(j *Job) (Sweep, func(), error)

// Job is one managed sweep. The embedded Spec and ID are immutable; the
// mutable state is guarded by mu and observed through Status and Next.
type Job struct {
	Spec
	ID string

	m *Manager

	mu          sync.Mutex
	state       State
	errCode     string
	errMsg      string
	interrupted bool // shutdown detached the runner; record still "running"
	frames      [][]byte
	bytes       int64 // result-log bytes (framing included) for eviction
	change      chan struct{}
	cancel      context.CancelCauseFunc
	doneSeq     int64 // terminal order; eviction drops the oldest first
	createdUnix int64
}

// Status is a consistent snapshot of a job's observable state.
type Status struct {
	ID string
	Spec
	State        State
	Rows         int
	ErrorCode    string
	ErrorMessage string
	// Interrupted reports a running job whose sweep was detached by
	// shutdown; it resumes on the next boot.
	Interrupted bool
}

// Status returns a snapshot.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return Status{
		ID: j.ID, Spec: j.Spec, State: j.state, Rows: len(j.frames),
		ErrorCode: j.errCode, ErrorMessage: j.errMsg, Interrupted: j.interrupted,
	}
}

// Rows returns how many frontier rows the job holds.
func (j *Job) Rows() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.frames)
}

// Frames returns the rows emitted so far. The returned slice is a
// snapshot; the frame byte slices are shared and must not be mutated.
func (j *Job) Frames() [][]byte {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([][]byte(nil), j.frames...)
}

// Next is the follower protocol: it returns every frame from offset `from`
// on, the current status, and a channel that closes on the next state or
// frame change. A follower drains frames, re-checks, and when no frames
// remain and the status is terminal (or interrupted) ends its stream;
// otherwise it waits on the channel.
func (j *Job) Next(from int) ([][]byte, Status, <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	var frames [][]byte
	if from >= 0 && from < len(j.frames) {
		frames = append(frames, j.frames[from:]...)
	}
	st := Status{
		ID: j.ID, Spec: j.Spec, State: j.state, Rows: len(j.frames),
		ErrorCode: j.errCode, ErrorMessage: j.errMsg, Interrupted: j.interrupted,
	}
	return frames, st, j.change
}

// broadcastLocked wakes every waiter (close-and-replace; j.mu held).
func (j *Job) broadcastLocked() {
	close(j.change)
	j.change = make(chan struct{})
}

// Options tunes a Manager.
type Options struct {
	// Store, when non-nil, makes jobs durable: records and result logs
	// persist, and Recover resumes interrupted sweeps at boot. nil keeps
	// the whole tier in memory (jobs still coalesce and stream).
	Store *store.JobStore
	// MaxResultBytes bounds the bytes held by terminal jobs' result logs;
	// when exceeded the oldest terminal jobs are evicted (memory and
	// disk), never a running job and never the most recent terminal one.
	// 0 = unbounded.
	MaxResultBytes int64
	// ErrorCode classifies a failed sweep's terminal error into the wire
	// code recorded on the job. nil records "internal".
	ErrorCode func(error) string
	// Logger receives panic stacks and storage trouble. nil selects
	// slog.Default().
	Logger *slog.Logger
	// Now supplies record timestamps (unix seconds). nil selects the wall
	// clock; tests freeze it.
	Now func() int64
}

// Manager owns every job. Lock order: Manager.mu before Job.mu.
type Manager struct {
	opt Options
	log *slog.Logger

	mu        sync.Mutex
	jobs      map[string]*Job
	finishSeq int64

	// sweeps tracks the sweep goroutines, which outlive the terminal
	// broadcast by the record save that follows it (see finish).
	sweeps sync.WaitGroup

	resumed         atomic.Int64
	coalesced       atomic.Int64
	checkpointBytes atomic.Int64
	evictedBytes    atomic.Int64
}

// Stats is the manager's counter snapshot (exported via /statz and
// /metrics).
type Stats struct {
	Active    int
	Completed int
	Failed    int
	Cancelled int
	// Resumed counts sweeps restarted from a checkpoint — at boot, or by
	// resubmission of a failed/cancelled job.
	Resumed int64
	// Coalesced counts submissions answered by an already-known job.
	Coalesced int64
	// CheckpointBytes counts bytes appended to durable result logs.
	CheckpointBytes int64
	// ResultsEvictedBytes counts result-log bytes dropped by eviction.
	ResultsEvictedBytes int64
}

// New returns a Manager with no jobs.
func New(opt Options) *Manager {
	if opt.Logger == nil {
		opt.Logger = slog.Default()
	}
	if opt.Now == nil {
		opt.Now = func() int64 { return time.Now().Unix() }
	}
	return &Manager{opt: opt, log: opt.Logger, jobs: make(map[string]*Job)}
}

// Stats returns the counter snapshot.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := Stats{
		Resumed:             m.resumed.Load(),
		Coalesced:           m.coalesced.Load(),
		CheckpointBytes:     m.checkpointBytes.Load(),
		ResultsEvictedBytes: m.evictedBytes.Load(),
	}
	for _, j := range m.jobs {
		j.mu.Lock()
		switch j.state {
		case StateRunning:
			st.Active++
		case StateCompleted:
			st.Completed++
		case StateFailed:
			st.Failed++
		case StateCancelled:
			st.Cancelled++
		}
		j.mu.Unlock()
	}
	return st
}

// Get returns the job, or nil.
func (m *Manager) Get(id string) *Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.jobs[id]
}

// List returns every job in sorted id order.
func (m *Manager) List() []*Job {
	m.mu.Lock()
	out := make([]*Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		out = append(out, j)
	}
	m.mu.Unlock()
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}

// Submit coalesces or starts the job for the spec. A running or completed
// job with the same id is returned as-is (started=false) — coalescing
// costs no admission slot. A failed or cancelled job is restarted from its
// checkpoints. Otherwise a new job is admitted through start; its record
// is persisted before the sweep runs, and a record that cannot be written
// aborts the submission (the slot is released) — a job that would silently
// lose durability is not admitted.
func (m *Manager) Submit(spec Spec, start StartFunc) (j *Job, started bool, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	id := spec.ID()
	if j := m.jobs[id]; j != nil {
		j.mu.Lock()
		st := j.state
		j.mu.Unlock()
		if st == StateRunning || st == StateCompleted {
			m.coalesced.Add(1)
			return j, false, nil
		}
		// Failed or cancelled: restart from whatever was checkpointed.
		sw, release, err := start(j)
		if err != nil {
			return nil, false, err
		}
		j.mu.Lock()
		j.state = StateRunning
		j.errCode, j.errMsg = "", ""
		j.interrupted = false
		j.broadcastLocked()
		j.mu.Unlock()
		m.resumed.Add(1)
		m.saveRecordBestEffort(j)
		m.run(j, sw, release)
		return j, true, nil
	}
	j = &Job{Spec: spec, ID: id, m: m, state: StateRunning,
		change: make(chan struct{}), createdUnix: m.opt.Now()}
	sw, release, err := start(j)
	if err != nil {
		return nil, false, err
	}
	if m.opt.Store != nil {
		if err := m.opt.Store.SaveRecord(m.record(j)); err != nil {
			release()
			return nil, false, err
		}
	}
	m.jobs[id] = j
	m.run(j, sw, release)
	return j, true, nil
}

// run spawns the sweep goroutine for a job already marked running.
func (m *Manager) run(j *Job, sw Sweep, release func()) {
	ctx, cancel := context.WithCancelCause(context.Background())
	j.mu.Lock()
	j.cancel = cancel
	j.mu.Unlock()
	m.sweeps.Add(1)
	go func() {
		defer m.sweeps.Done()
		defer release()
		err := m.sweep(ctx, j, sw)
		if err != nil {
			// The facade reports context.Cause, but be robust to layers
			// that surface the bare context error.
			if cause := context.Cause(ctx); cause != nil && errors.Is(err, context.Canceled) {
				err = cause
			}
		}
		cancel(nil)
		m.finish(j, err)
	}()
}

// sweep runs the sweep body with checkpoint-then-publish emits and a
// panic net: a panic on the sweep goroutine fails this job, not the
// process.
func (m *Manager) sweep(ctx context.Context, j *Job, sw Sweep) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			m.log.Error("jobs: panic in sweep",
				"job", j.ID, "panic", rec, "stack", string(debug.Stack()))
			err = fmt.Errorf("jobs: panic running job %s: %v", j.ID, rec)
		}
	}()
	emit := func(frame []byte) error {
		var diskBytes int64
		if m.opt.Store != nil {
			n, aerr := m.opt.Store.AppendResult(j.ID, frame)
			if aerr != nil {
				return fmt.Errorf("%w: %w", ErrCheckpoint, aerr)
			}
			diskBytes = n
			m.checkpointBytes.Add(n)
		} else {
			diskBytes = int64(len(frame)) + 8
		}
		j.mu.Lock()
		j.frames = append(j.frames, frame)
		j.bytes += diskBytes
		j.broadcastLocked()
		j.mu.Unlock()
		return nil
	}
	return sw(ctx, emit)
}

// finish classifies the sweep's terminal error, persists the terminal
// record, and wakes followers. A shutdown interruption is special: the
// durable record is left saying "running" so the next boot resumes the
// sweep; in memory the job is flagged interrupted and followers are told
// to re-attach after the restart.
func (m *Manager) finish(j *Job, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j.mu.Lock()
	j.cancel = nil
	datasetGone := false
	switch {
	case err == nil:
		j.state = StateCompleted
	case errors.Is(err, ErrInterrupted):
		j.interrupted = true
		j.broadcastLocked()
		j.mu.Unlock()
		return
	case errors.Is(err, ErrDatasetDeleted):
		j.state = StateCancelled
		j.errCode, j.errMsg = "dataset_deleted", err.Error()
		datasetGone = true
	case errors.Is(err, ErrCancelled), errors.Is(err, context.Canceled):
		j.state = StateCancelled
		j.errCode, j.errMsg = "cancelled", err.Error()
	default:
		j.state = StateFailed
		j.errCode, j.errMsg = m.errorCode(err), err.Error()
	}
	m.finishSeq++
	j.doneSeq = m.finishSeq
	j.broadcastLocked()
	j.mu.Unlock()
	if datasetGone {
		// The dataset no longer exists; the partial frontier describes
		// nothing, so drop the durable trace and let the id be reused if
		// the dataset name ever comes back.
		delete(m.jobs, j.ID)
		m.deleteDurable(j.ID)
	} else {
		m.saveRecordBestEffort(j)
	}
	m.evictLocked()
}

func (m *Manager) errorCode(err error) string {
	if errors.Is(err, ErrCheckpoint) {
		return "storage"
	}
	if m.opt.ErrorCode != nil {
		return m.opt.ErrorCode(err)
	}
	return "internal"
}

// record builds the durable record from the job's current state (j.mu NOT
// held by the caller is fine; it locks).
func (m *Manager) record(j *Job) store.JobRecord {
	j.mu.Lock()
	defer j.mu.Unlock()
	return store.JobRecord{
		ID: j.ID, Dataset: j.Dataset, FDs: j.FDs,
		TauLow: j.TauLow, TauHigh: j.TauHigh, Weights: j.Weights,
		Seed: j.Seed, IncludeChanges: j.IncludeChanges, Generation: j.Generation,
		Kind: j.Kind, MaxLHS: j.MaxLHS, MaxError: j.MaxError,
		MaxResults: j.MaxResults, Attrs: j.Attrs,
		State: string(j.state), ErrorCode: j.errCode, ErrorMessage: j.errMsg,
		CreatedUnix: j.createdUnix, UpdatedUnix: m.opt.Now(),
	}
}

// saveRecordBestEffort persists the record, logging (not failing) on
// error: by the time a terminal record write fails the sweep already
// happened, and the worst case of a stale "running" record is a redundant
// resume of work whose log is already complete.
func (m *Manager) saveRecordBestEffort(j *Job) {
	if m.opt.Store == nil {
		return
	}
	if err := m.opt.Store.SaveRecord(m.record(j)); err != nil {
		m.log.Error("jobs: persisting job record", "job", j.ID, "err", err)
	}
}

func (m *Manager) deleteDurable(id string) {
	if m.opt.Store == nil {
		return
	}
	if err := m.opt.Store.DeleteJob(id); err != nil {
		m.log.Error("jobs: deleting durable job", "job", id, "err", err)
	}
}

// Cancel resolves a DELETE: a running job's sweep is cancelled (the state
// transition lands when the sweep unwinds; removed=false), a terminal job
// is removed outright with its durable trace (removed=true).
func (m *Manager) Cancel(id string) (found, removed bool) {
	m.mu.Lock()
	j := m.jobs[id]
	if j == nil {
		m.mu.Unlock()
		return false, false
	}
	j.mu.Lock()
	if j.state == StateRunning {
		cancel := j.cancel
		if cancel == nil {
			// Interrupted by shutdown: no runner to unwind, transition
			// directly.
			j.state = StateCancelled
			j.errCode, j.errMsg = "cancelled", ErrCancelled.Error()
			m.finishSeq++
			j.doneSeq = m.finishSeq
			j.broadcastLocked()
			j.mu.Unlock()
			m.saveRecordBestEffort(j)
			m.mu.Unlock()
			return true, false
		}
		j.mu.Unlock()
		m.mu.Unlock()
		cancel(ErrCancelled)
		return true, false
	}
	j.mu.Unlock()
	delete(m.jobs, id)
	m.deleteDurable(id)
	m.mu.Unlock()
	return true, true
}

// CancelDataset handles DELETE of a dataset: running jobs over it are
// cancelled with the dataset_deleted cause (their followers receive the
// structured error and their slots free as the sweeps unwind), and
// terminal jobs over it are dropped with their durable traces — a
// frontier for data that no longer exists is not served.
func (m *Manager) CancelDataset(name string) {
	m.mu.Lock()
	var cancels []context.CancelCauseFunc
	for id, j := range m.jobs {
		if j.Dataset != name {
			continue
		}
		j.mu.Lock()
		if j.state == StateRunning && j.cancel != nil {
			cancels = append(cancels, j.cancel)
			j.mu.Unlock()
			continue
		}
		j.mu.Unlock()
		delete(m.jobs, id)
		m.deleteDurable(id)
	}
	m.mu.Unlock()
	for _, cancel := range cancels {
		cancel(ErrDatasetDeleted)
	}
}

// Shutdown interrupts every running sweep with ErrInterrupted. Their
// durable records keep saying "running", which is exactly what makes the
// next boot resume them; followers are woken with the interrupted flag.
// The caller's drain (the serving layer's sweep WaitGroup) observes the
// unwinding sweeps as usual.
func (m *Manager) Shutdown() {
	m.mu.Lock()
	var cancels []context.CancelCauseFunc
	for _, j := range m.jobs {
		j.mu.Lock()
		if j.cancel != nil {
			cancels = append(cancels, j.cancel)
		}
		j.mu.Unlock()
	}
	m.mu.Unlock()
	for _, cancel := range cancels {
		cancel(ErrInterrupted)
	}
}

// Recover rehydrates persisted jobs at boot: terminal jobs come back with
// their result logs replayed and are immediately streamable; jobs whose
// records still say "running" are resumed — start runs on a per-job
// goroutine (it may block on admission at boot) and the sweep continues
// from the last checkpointed row. A resume whose dataset no longer exists
// should fail start with ErrDatasetDeleted; the job is then cancelled and
// its durable trace dropped. Returns how many sweeps were resumed.
func (m *Manager) Recover(start StartFunc) (int, error) {
	if m.opt.Store == nil {
		return 0, nil
	}
	recovered, err := m.opt.Store.LoadAll()
	if err != nil {
		return 0, err
	}
	var toStart []*Job
	m.mu.Lock()
	for _, r := range recovered {
		if _, ok := m.jobs[r.Record.ID]; ok {
			continue // already live (Recover after jobs were submitted)
		}
		j := &Job{
			Spec: Spec{
				Dataset: r.Record.Dataset, FDs: r.Record.FDs,
				TauLow: r.Record.TauLow, TauHigh: r.Record.TauHigh,
				Weights: r.Record.Weights, Seed: r.Record.Seed,
				IncludeChanges: r.Record.IncludeChanges,
				Generation:     r.Record.Generation,
				Kind:           r.Record.Kind,
				MaxLHS:         r.Record.MaxLHS,
				MaxError:       r.Record.MaxError,
				MaxResults:     r.Record.MaxResults,
				Attrs:          r.Record.Attrs,
			},
			ID: r.Record.ID, m: m,
			state:       State(r.Record.State),
			errCode:     r.Record.ErrorCode,
			errMsg:      r.Record.ErrorMessage,
			frames:      r.Frames,
			bytes:       r.LogBytes,
			change:      make(chan struct{}),
			createdUnix: r.Record.CreatedUnix,
		}
		switch j.state {
		case StateRunning:
			toStart = append(toStart, j)
		case StateCompleted, StateFailed, StateCancelled:
			m.finishSeq++
			j.doneSeq = m.finishSeq
		default:
			m.log.Error("jobs: skipping record with unknown state",
				"job", j.ID, "state", r.Record.State)
			continue
		}
		m.jobs[j.ID] = j
	}
	m.mu.Unlock()
	for _, j := range toStart {
		m.resumed.Add(1)
		m.sweeps.Add(1)
		go func(j *Job) {
			defer m.sweeps.Done()
			sw, release, err := start(j)
			if err != nil {
				m.finish(j, err)
				return
			}
			m.runSync(j, sw, release)
		}(j)
	}
	return len(toStart), nil
}

// runSync is run's body without the extra goroutine (Recover already runs
// per-job goroutines).
func (m *Manager) runSync(j *Job, sw Sweep, release func()) {
	ctx, cancel := context.WithCancelCause(context.Background())
	j.mu.Lock()
	j.cancel = cancel
	j.mu.Unlock()
	defer release()
	err := m.sweep(ctx, j, sw)
	if err != nil {
		if cause := context.Cause(ctx); cause != nil && errors.Is(err, context.Canceled) {
			err = cause
		}
	}
	cancel(nil)
	m.finish(j, err)
}

// evictLocked enforces MaxResultBytes over terminal jobs (m.mu held):
// oldest-finished first, never a running job, never the most recently
// finished one — the job a client just completed stays streamable.
func (m *Manager) evictLocked() {
	max := m.opt.MaxResultBytes
	if max <= 0 {
		return
	}
	type victim struct {
		j     *Job
		bytes int64
		seq   int64
	}
	var terminal []victim
	var total int64
	for _, j := range m.jobs {
		j.mu.Lock()
		if j.state != StateRunning {
			terminal = append(terminal, victim{j, j.bytes, j.doneSeq})
			total += j.bytes
		}
		j.mu.Unlock()
	}
	if total <= max || len(terminal) <= 1 {
		return
	}
	sort.Slice(terminal, func(i, k int) bool { return terminal[i].seq < terminal[k].seq })
	for _, v := range terminal[:len(terminal)-1] {
		if total <= max {
			break
		}
		delete(m.jobs, v.j.ID)
		m.deleteDurable(v.j.ID)
		m.evictedBytes.Add(v.bytes)
		total -= v.bytes
		m.log.Info("jobs: evicted terminal job results",
			"job", v.j.ID, "bytes", v.bytes)
	}
}
