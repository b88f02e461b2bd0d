package server

// The durable job tier: POST /v1/jobs runs a frontier sweep detached from
// any connection, checkpointing every Pareto point through the job store
// the moment its τ finishes. Followers attach (and re-attach, after a
// disconnect or a daemon restart) with GET /v1/jobs/{id}/stream?from=N:
// persisted rows replay first, then the stream follows live — the
// concatenation is byte-identical to an uninterrupted /v1/repair stream
// of the same spec. Jobs are content-addressed (see jobs.Spec.ID), so
// identical submissions coalesce onto one sweep and one admission slot,
// and completed frontiers are served from the result log without
// re-admission. Jobs respect the same sweep caps as request sweeps: a
// saturated server sheds a NEW job with 429 + Retry-After (coalesced
// submissions are never shed — they cost nothing).

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"relatrust"

	"relatrust/internal/jobs"
	"relatrust/internal/report"
	"relatrust/internal/weights"
)

// JobInfo is the wire description of a job (POST /v1/jobs and
// GET /v1/jobs/{id}).
type JobInfo struct {
	ID      string `json:"id"`
	Dataset string `json:"dataset"`
	FDs     string `json:"fds"`
	TauLow  int    `json:"tau_low"`
	// TauHigh is -1 when the sweep starts from δP(Σ, I).
	TauHigh        int    `json:"tau_high"`
	Weights        string `json:"weights"`
	Seed           int64  `json:"seed,omitempty"`
	IncludeChanges bool   `json:"include_changes,omitempty"`
	// Generation is the dataset mutation generation the job answers for.
	Generation int64 `json:"generation,omitempty"`
	// Kind distinguishes job bodies: "" is a frontier sweep, "discover"
	// an FD-mining run addressed by the discovery knobs below.
	Kind       string  `json:"kind,omitempty"`
	MaxLHS     int     `json:"max_lhs,omitempty"`
	MaxError   float64 `json:"max_error,omitempty"`
	MaxResults int     `json:"max_results,omitempty"`
	Attrs      string  `json:"attrs,omitempty"`
	State      string  `json:"state"`
	// Rows is how many frontier rows are checkpointed and streamable.
	Rows  int          `json:"rows"`
	Error *ErrorDetail `json:"error,omitempty"`
}

func jobInfo(st jobs.Status) JobInfo {
	info := JobInfo{
		ID: st.ID, Dataset: st.Dataset, FDs: st.FDs,
		TauLow: st.TauLow, TauHigh: st.TauHigh, Weights: st.Weights,
		Seed: st.Seed, IncludeChanges: st.IncludeChanges,
		Generation: st.Generation,
		Kind:       st.Kind, MaxLHS: st.MaxLHS, MaxError: st.MaxError,
		MaxResults: st.MaxResults, Attrs: st.Attrs,
		State: string(st.State), Rows: st.Rows,
	}
	if st.ErrorCode != "" {
		info.Error = &ErrorDetail{Code: st.ErrorCode, Message: st.ErrorMessage}
	}
	return info
}

// jobSpec canonicalizes the request into the job's content address: FDs
// are re-formatted against the schema (so "A ,B->C" and "A,B->C" address
// the same job), the weighting name is validated and defaulted, and the
// dataset's current mutation generation is stamped in — so resubmitting a
// spec after a PATCH addresses a new job over the new rows instead of
// coalescing onto the stale frontier.
func (s *Server) jobSpec(d *dataset, req RepairRequest, sigma relatrust.FDSet) (jobs.Spec, error) {
	if req.TauLow < 0 {
		return jobs.Spec{}, fmt.Errorf("tau_low must be non-negative")
	}
	hi := -1
	if req.TauHigh != nil && *req.TauHigh >= 0 {
		hi = *req.TauHigh
	}
	if hi >= 0 && req.TauLow > hi {
		return jobs.Spec{}, fmt.Errorf("tau_low %d exceeds tau_high %d", req.TauLow, hi)
	}
	wname := req.Weights
	if wname == "" {
		wname = "distinct-count"
	}
	if _, err := weights.Canonical(wname); err != nil {
		return jobs.Spec{}, err
	}
	in := d.live.Rows()
	parts := make([]string, len(sigma))
	for i, f := range sigma {
		parts[i] = f.Format(in.Schema)
	}
	return jobs.Spec{
		Dataset:        d.name,
		FDs:            strings.Join(parts, "; "),
		TauLow:         req.TauLow,
		TauHigh:        hi,
		Weights:        wname,
		Seed:           req.Seed,
		IncludeChanges: req.IncludeChanges,
		Generation:     d.live.Generation(),
	}, nil
}

// handleSubmitJob admits (or coalesces) a job. 201 with the job body when
// a sweep was started (new or resumed from a checkpoint), 200 when an
// existing job answered the submission.
func (s *Server) handleSubmitJob(w http.ResponseWriter, r *http.Request) {
	req, err := decodeRepairRequest(http.MaxBytesReader(w, r.Body, s.opt.MaxUploadBytes))
	if err != nil {
		writeErrorCode(w, http.StatusBadRequest, codeBadRequest, "decoding job request: %v", err)
		return
	}
	d := s.lookup(req.Dataset)
	if d == nil {
		writeErrorCode(w, http.StatusNotFound, codeUnknownDataset, "dataset %q is not registered", req.Dataset)
		return
	}
	schema := d.live.Rows().Schema
	sigma, err := relatrust.ParseFDs(schema, req.FDs)
	if err != nil {
		writeErrorCode(w, http.StatusBadRequest, codeBadFDs, "parsing FDs: %v", err)
		return
	}
	if len(sigma) == 0 {
		status, body := mapError(relatrust.ErrEmptyFDSet, schema)
		writeError(w, status, body)
		return
	}
	spec, err := s.jobSpec(d, req, sigma)
	if err != nil {
		writeErrorCode(w, http.StatusBadRequest, codeBadRequest, "%v", err)
		return
	}
	j, started, err := s.jobs.Submit(spec, s.jobStarter(d, req))
	switch {
	case errors.Is(err, ErrShuttingDown):
		writeErrorCode(w, http.StatusServiceUnavailable, codeShuttingDown, "server is shutting down")
		return
	case errors.Is(err, errOverloaded):
		d.mu.Lock()
		d.sweepsShed++
		d.mu.Unlock()
		w.Header().Set("Retry-After", "1")
		writeErrorCode(w, http.StatusTooManyRequests, codeOverloaded,
			"sweep capacity for dataset %q is saturated; retry shortly", d.name)
		return
	case err != nil:
		// The only remaining submission failure is the durable record
		// write; the job was not admitted.
		writeErrorCode(w, http.StatusInternalServerError, codeStorage, "%v", err)
		return
	}
	status := http.StatusOK
	if started {
		status = http.StatusCreated
	}
	writeJSON(w, status, jobInfo(j.Status()))
}

// jobStarter adapts a submission to the manager's StartFunc: non-blocking
// admission under the same caps as request sweeps, counted against the
// dataset like any other sweep.
func (s *Server) jobStarter(d *dataset, req RepairRequest) jobs.StartFunc {
	return func(j *jobs.Job) (jobs.Sweep, func(), error) {
		if err := s.beginSweepSlot(d); err != nil {
			return nil, nil, err
		}
		d.mu.Lock()
		d.sweepsStarted++
		d.mu.Unlock()
		return s.jobSweep(d, req, j), func() { s.endSweepSlot(d) }, nil
	}
}

// discoverJobSpec canonicalizes a discovery submission into its content
// address: attribute names are resolved and re-formatted against the
// schema, and MaxLHS is defaulted before hashing, so "max_lhs": 0 and
// "max_lhs": 3 coalesce onto one job.
func (s *Server) discoverJobSpec(d *dataset, req DiscoverRequest) (jobs.Spec, error) {
	if req.Mode != "" {
		return jobs.Spec{}, fmt.Errorf("discovery jobs run the mining phase only; mode must be empty")
	}
	if req.MaxLHS < 0 || req.MaxResults < 0 {
		return jobs.Spec{}, fmt.Errorf("max_lhs and max_results must be non-negative")
	}
	if req.MaxError < 0 || req.MaxError > 1 {
		return jobs.Spec{}, fmt.Errorf("max_error must be within [0, 1]")
	}
	in := d.live.Rows()
	attrs := ""
	if req.Attrs != "" {
		set, err := in.Schema.ParseAttrs(req.Attrs)
		if err != nil {
			return jobs.Spec{}, err
		}
		attrs = set.Names(in.Schema)
	}
	maxLHS := req.MaxLHS
	if maxLHS == 0 {
		maxLHS = 3 // the facade default, pinned into the address
	}
	return jobs.Spec{
		Dataset:    d.name,
		Generation: d.live.Generation(),
		Kind:       "discover",
		MaxLHS:     maxLHS,
		MaxError:   req.MaxError,
		MaxResults: req.MaxResults,
		Attrs:      attrs,
	}, nil
}

// handleSubmitDiscoverJob admits (or coalesces) a discovery job: the
// mining phase of /v1/discover, detached from the connection, with the
// same checkpoint/replay contract as sweep jobs — each fd frame persists
// before a follower sees it, and the stream of a resumed job is
// byte-identical to an uninterrupted run because mining is deterministic.
func (s *Server) handleSubmitDiscoverJob(w http.ResponseWriter, r *http.Request) {
	req, err := decodeDiscoverRequest(http.MaxBytesReader(w, r.Body, s.opt.MaxUploadBytes))
	if err != nil {
		writeErrorCode(w, http.StatusBadRequest, codeBadRequest, "decoding discover job request: %v", err)
		return
	}
	d := s.lookup(req.Dataset)
	if d == nil {
		writeErrorCode(w, http.StatusNotFound, codeUnknownDataset, "dataset %q is not registered", req.Dataset)
		return
	}
	spec, err := s.discoverJobSpec(d, req)
	if err != nil {
		writeErrorCode(w, http.StatusBadRequest, codeBadRequest, "%v", err)
		return
	}
	j, started, err := s.jobs.Submit(spec, s.discoverJobStarter(d))
	switch {
	case errors.Is(err, ErrShuttingDown):
		writeErrorCode(w, http.StatusServiceUnavailable, codeShuttingDown, "server is shutting down")
		return
	case errors.Is(err, errOverloaded):
		d.mu.Lock()
		d.sweepsShed++
		d.mu.Unlock()
		w.Header().Set("Retry-After", "1")
		writeErrorCode(w, http.StatusTooManyRequests, codeOverloaded,
			"sweep capacity for dataset %q is saturated; retry shortly", d.name)
		return
	case err != nil:
		writeErrorCode(w, http.StatusInternalServerError, codeStorage, "%v", err)
		return
	}
	status := http.StatusOK
	if started {
		status = http.StatusCreated
	}
	writeJSON(w, status, jobInfo(j.Status()))
}

// discoverJobStarter is jobStarter for discovery jobs: same admission,
// same slot accounting, a mining body instead of a sweep.
func (s *Server) discoverJobStarter(d *dataset) jobs.StartFunc {
	return func(j *jobs.Job) (jobs.Sweep, func(), error) {
		if err := s.beginSweepSlot(d); err != nil {
			return nil, nil, err
		}
		d.mu.Lock()
		d.sweepsStarted++
		d.mu.Unlock()
		return s.discoverJobSweep(d, j), func() { s.endSweepSlot(d) }, nil
	}
}

// isSigmaFrame reports whether a checkpointed frame is the terminal sigma
// frame — its presence in the log is how a resume knows mining finished
// and only the terminal record write was lost.
func isSigmaFrame(frame []byte) bool {
	var probe struct {
		Sigma *string `json:"sigma"`
	}
	return json.Unmarshal(frame, &probe) == nil && probe.Sigma != nil
}

// discoverJobSweep builds the manager's sweep body for a discovery job.
// Resume leans on determinism instead of a τ bound: mining emits FDs in a
// fixed order for a fixed (instance, knobs), so a job holding k
// checkpointed frames re-runs the walk and skips the first k emissions —
// the concatenation is byte-identical to an uninterrupted run. A log
// whose last frame is the sigma frame is already complete.
func (s *Server) discoverJobSweep(d *dataset, j *jobs.Job) jobs.Sweep {
	return func(ctx context.Context, emit func(frame []byte) error) (err error) {
		rows := 0
		defer func() {
			if rec := recover(); rec != nil {
				stack := debug.Stack()
				s.panics.Add(1)
				s.log.Error("server: panic during discovery job",
					"dataset", d.name, "job", j.ID, "panic", rec, "stack", string(stack))
				err = &relatrust.PanicError{Value: rec, Stack: stack}
			}
			d.sweepDone(rows, err)
		}()
		in, sess, gen := s.snapshotFor(d)
		if j.Generation != gen {
			return fmt.Errorf("%w: job answers for generation %d, dataset is at %d",
				jobs.ErrDatasetMutated, j.Generation, gen)
		}
		skip := j.Rows()
		if frames := j.Frames(); skip > 0 && isSigmaFrame(frames[skip-1]) {
			return nil // mining finished; the crash hit before the terminal record
		}
		var attrs relatrust.AttrSet
		if j.Attrs != "" {
			if attrs, err = in.Schema.ParseAttrs(j.Attrs); err != nil {
				return err
			}
		}
		opt := relatrust.DiscoverOptions{
			MaxLHS: j.MaxLHS, MaxError: j.MaxError, MaxResults: j.MaxResults,
			Attrs: attrs, Session: sess,
		}
		if observe := s.opt.ObserveDiscovery; observe != nil {
			opt.Progress = func(level, sets int) { observe(d.name, level, sets) }
		}
		dv, err := relatrust.NewDiscoverer(in, opt)
		if err != nil {
			return err
		}
		n := 0
		var mined relatrust.FDSet
		for f, ferr := range dv.Stream(ctx) {
			if ferr != nil {
				return ferr
			}
			n++
			mined = append(mined, f.FD)
			if n <= skip {
				continue // deterministic replay of an already-checkpointed frame
			}
			raw, merr := json.Marshal(discoverFrame{N: n, FD: f.FD.Format(in.Schema), Level: f.Level, Error: f.Error})
			if merr != nil {
				return merr
			}
			if eerr := emit(raw); eerr != nil {
				return eerr
			}
			rows++
		}
		sortSigma(mined)
		raw, merr := json.Marshal(sigmaFrame{Sigma: mined.Format(in.Schema), FDs: len(mined)})
		if merr != nil {
			return merr
		}
		if eerr := emit(raw); eerr != nil {
			return eerr
		}
		rows++
		return nil
	}
}

// RecoverJobs rehydrates persisted jobs after Rehydrate: terminal jobs
// become streamable from their result logs, and records still "running"
// resume sweeping from their last checkpointed row. Boot-time admission
// waits for a slot (per-job goroutine) instead of shedding — resumed work
// was already admitted once. Returns how many sweeps were resumed.
func (s *Server) RecoverJobs() (int, error) {
	return s.jobs.Recover(func(j *jobs.Job) (jobs.Sweep, func(), error) {
		d := s.lookup(j.Dataset)
		if d == nil {
			return nil, nil, fmt.Errorf("%w: dataset %q is not registered", jobs.ErrDatasetDeleted, j.Dataset)
		}
		if j.Kind == "discover" {
			if err := s.waitSweepSlot(d); err != nil {
				return nil, nil, err
			}
			d.mu.Lock()
			d.sweepsStarted++
			d.mu.Unlock()
			return s.discoverJobSweep(d, j), func() { s.endSweepSlot(d) }, nil
		}
		req := RepairRequest{
			Dataset: j.Dataset, FDs: j.FDs, TauLow: j.TauLow,
			Weights: j.Weights, Seed: j.Seed, IncludeChanges: j.IncludeChanges,
			Workers: s.opt.Workers,
		}
		if j.TauHigh >= 0 {
			hi := j.TauHigh
			req.TauHigh = &hi
		}
		if err := s.waitSweepSlot(d); err != nil {
			return nil, nil, err
		}
		d.mu.Lock()
		d.sweepsStarted++
		d.mu.Unlock()
		return s.jobSweep(d, req, j), func() { s.endSweepSlot(d) }, nil
	})
}

// waitSweepSlot is beginSweepSlot with patience, for boot-time resume:
// overload waits and retries instead of shedding; only shutdown refuses.
func (s *Server) waitSweepSlot(d *dataset) error {
	for {
		err := s.beginSweepSlot(d)
		if !errors.Is(err, errOverloaded) {
			return err
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// jobSweep builds the manager's sweep body for one job: it re-derives the
// Repairer from the job's canonical spec, continues from the last
// checkpointed row when the job holds replayed frames (the resume bound
// is that row's δP−1 — see the package doc of internal/jobs for why that
// reproduces the uninterrupted stream exactly), and emits each row's wire
// bytes through the manager's checkpoint-then-publish path. The sweep
// pins the dataset's snapshot at start and refuses to run if its
// generation no longer matches the job's — checkpointed rows of a
// pre-mutation frontier must never be continued over different data
// (this is the boot-resume path after a restart that followed a PATCH).
func (s *Server) jobSweep(d *dataset, req RepairRequest, j *jobs.Job) jobs.Sweep {
	return func(ctx context.Context, emit func(frame []byte) error) (err error) {
		rows := 0
		defer func() {
			if rec := recover(); rec != nil {
				stack := debug.Stack()
				s.panics.Add(1)
				s.log.Error("server: panic during job sweep",
					"dataset", d.name, "job", j.ID, "panic", rec, "stack", string(stack))
				err = &relatrust.PanicError{Value: rec, Stack: stack}
			}
			d.sweepDone(rows, err)
		}()
		in, sess, gen := s.snapshotFor(d)
		if j.Generation != gen {
			return fmt.Errorf("%w: job answers for generation %d, dataset is at %d",
				jobs.ErrDatasetMutated, j.Generation, gen)
		}
		sigma, err := relatrust.ParseFDs(in.Schema, j.FDs)
		if err != nil {
			return err
		}
		opt, err := s.options(d, req, sess)
		if err != nil {
			return err
		}
		rp, err := relatrust.NewRepairer(in, sigma, opt)
		if err != nil {
			return err
		}
		lo, hi := j.TauLow, j.TauHigh
		level := j.Rows()
		if level > 0 {
			last, err := lastDeltaP(j.Frames())
			if err != nil {
				return err
			}
			hi = last - 1
			if hi < lo {
				// The checkpoints already hold the full frontier; the crash
				// hit between the last row and the completion record.
				return nil
			}
		}
		for rep, ferr := range rp.FrontierRange(ctx, lo, hi) {
			if ferr != nil {
				return ferr
			}
			level++
			frame := frontierFrame{Row: report.RowOf(in, level, rep)}
			if j.IncludeChanges {
				frame.Changes = changesOf(in, rep.Data)
			}
			raw, merr := json.Marshal(frame)
			if merr != nil {
				return merr
			}
			if eerr := emit(raw); eerr != nil {
				return eerr
			}
			rows++
		}
		return nil
	}
}

// lastDeltaP parses the resume bound out of the last checkpointed row.
func lastDeltaP(frames [][]byte) (int, error) {
	var row report.Row
	if err := json.Unmarshal(frames[len(frames)-1], &row); err != nil {
		return 0, fmt.Errorf("decoding checkpointed row: %w", err)
	}
	return row.DeltaP, nil
}

func (s *Server) handleListJobs(w http.ResponseWriter, _ *http.Request) {
	all := s.jobs.List()
	infos := make([]JobInfo, 0, len(all))
	for _, j := range all {
		infos = append(infos, jobInfo(j.Status()))
	}
	writeJSON(w, http.StatusOK, struct {
		Jobs []JobInfo `json:"jobs"`
	}{infos})
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	j := s.jobs.Get(r.PathValue("id"))
	if j == nil {
		writeErrorCode(w, http.StatusNotFound, codeUnknownJob, "job %q is not known", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, jobInfo(j.Status()))
}

// handleDeleteJob cancels a running job (202; the cancelled state lands
// when its sweep unwinds) or removes a terminal one with its durable
// trace (204).
func (s *Server) handleDeleteJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	found, removed := s.jobs.Cancel(id)
	if !found {
		writeErrorCode(w, http.StatusNotFound, codeUnknownJob, "job %q is not known", id)
		return
	}
	if removed {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	j := s.jobs.Get(id)
	if j == nil { // removed by a concurrent delete
		w.WriteHeader(http.StatusNoContent)
		return
	}
	writeJSON(w, http.StatusAccepted, jobInfo(j.Status()))
}

// handleJobStream attaches to a job's frontier stream: rows [from, ...)
// replay from the checkpoint log, then the stream follows live until the
// job reaches a terminal state — completion ends the stream like a
// finished /v1/repair sweep (EOF for NDJSON, "done" for SSE); failure and
// cancellation arrive as the same in-band error frames. A job interrupted
// by shutdown reports shutting_down: re-attach after the restart and the
// replay continues where it left off.
func (s *Server) handleJobStream(w http.ResponseWriter, r *http.Request) {
	j := s.jobs.Get(r.PathValue("id"))
	if j == nil {
		writeErrorCode(w, http.StatusNotFound, codeUnknownJob, "job %q is not known", r.PathValue("id"))
		return
	}
	from := 0
	if q := r.URL.Query().Get("from"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 0 {
			writeErrorCode(w, http.StatusBadRequest, codeBadRequest, "from must be a non-negative row offset")
			return
		}
		from = v
	}
	st := newStream(w, r)
	i := from
	for {
		frames, status, wait := j.Next(i)
		for _, f := range frames {
			if err := st.rawRow(f); err != nil {
				return // client gone; the job sweeps on regardless
			}
			i++
		}
		if len(frames) > 0 {
			continue // drain everything visible before deciding to wait
		}
		switch {
		case status.State == jobs.StateCompleted:
			st.done(i)
			return
		case status.State == jobs.StateFailed || status.State == jobs.StateCancelled:
			st.fail(ErrorBody{Error: ErrorDetail{Code: status.ErrorCode, Message: status.ErrorMessage}})
			return
		case status.Interrupted:
			st.fail(ErrorBody{Error: ErrorDetail{
				Code:    codeShuttingDown,
				Message: "server is shutting down; re-attach after restart to resume the stream",
			}})
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-wait:
		}
	}
}
