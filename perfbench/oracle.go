package main

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"

	"relatrust"
	"relatrust/internal/report"
)

// The oracle computes every reply the benchmark can receive through the
// library's public facade (relatrust.Repairer, Discoverer, LiveDataset),
// outside the timed window. The HTTP run and the direct replay are both
// checked against these answers, so they also agree with each other.

// budgetFractions is the τ/δP cycle of census_budget, from "trust the data"
// (deep searches) to the data-only repair.
var budgetFractions = []float64{0.02, 0.05, 0.1, 0.2, 0.5, 1.0}

// discoverFrame is one mined FD as /v1/discover streams it.
type discoverFrame struct {
	N     int     `json:"n"`
	FD    string  `json:"fd"`
	Level int     `json:"level"`
	Error float64 `json:"error,omitempty"`
}

// sigmaFrame closes a /v1/discover stream.
type sigmaFrame struct {
	Sigma string `json:"sigma"`
	FDs   int    `json:"fds"`
}

// expect is the correct reply to one operation.
type expect struct {
	row   report.Row      // budget
	rows  []report.Row    // frontier and job
	fds   []discoverFrame // discover, in mining order
	sigma sigmaFrame      // discover
	// patch: the generation the batch commits, and the batch size.
	generation int64
	applied    int
	tuples     int
}

// budgetCase is one τ of the census_budget cycle.
type budgetCase struct {
	tau  int
	want *expect
}

// liveState is the reference for one state of a live_mix cycle.
type liveState struct {
	deltaP   int
	discover *expect
	budget   *expect
}

// references holds every answer of a run.
type references struct {
	budget   []budgetCase  // census_budget
	frontier *expect       // blocked_frontier, shared by both datasets
	live     [][]liveState // live_mix, per client and cycle state
}

func parseDataset(d datasetInput, fds string) (*relatrust.Instance, relatrust.FDSet, error) {
	in, err := relatrust.ReadCSV(strings.NewReader(d.csv))
	if err != nil {
		return nil, nil, fmt.Errorf("parsing %s: %w", d.name, err)
	}
	sigma, err := relatrust.ParseFDs(in.Schema, fds)
	if err != nil {
		return nil, nil, fmt.Errorf("parsing FDs of %s: %w", d.name, err)
	}
	return in, sigma, nil
}

func oracleCensus(ctx context.Context, in *inputs, _ int64) (*references, error) {
	inst, sigma, err := parseDataset(in.datasets[0], in.fds)
	if err != nil {
		return nil, err
	}
	rp, err := relatrust.NewRepairer(inst, sigma, relatrust.Options{})
	if err != nil {
		return nil, err
	}
	dp, err := rp.MaxBudget(ctx)
	if err != nil {
		return nil, err
	}
	refs := &references{}
	for _, f := range budgetFractions {
		tau := int(f*float64(dp) + 0.5)
		rep, err := rp.RepairWithBudget(ctx, tau)
		if err != nil {
			return nil, fmt.Errorf("reference repair at τ=%d: %w", tau, err)
		}
		refs.budget = append(refs.budget, budgetCase{tau: tau, want: &expect{row: report.RowOf(inst, 1, rep)}})
	}
	return refs, nil
}

func frontierRows(ctx context.Context, inst *relatrust.Instance, sigma relatrust.FDSet, seed int64) ([]report.Row, error) {
	rp, err := relatrust.NewRepairer(inst, sigma, relatrust.Options{Seed: seed})
	if err != nil {
		return nil, err
	}
	var rows []report.Row
	for rep, err := range rp.Frontier(ctx) {
		if err != nil {
			return nil, err
		}
		rows = append(rows, report.RowOf(inst, len(rows)+1, rep))
	}
	return rows, nil
}

// oracleBlocked computes the frontier once (both datasets hold the same
// rows). Every frontier and job carries a fresh repair seed; the reference
// is only valid for all of them if the seed does not change any row, which
// is checked here against a second seed.
func oracleBlocked(ctx context.Context, in *inputs, seed int64) (*references, error) {
	inst, sigma, err := parseDataset(in.datasets[0], in.fds)
	if err != nil {
		return nil, err
	}
	rows, err := frontierRows(ctx, inst, sigma, 0)
	if err != nil {
		return nil, err
	}
	probe, err := frontierRows(ctx, inst, sigma, pairSeed(seed, 0, 0))
	if err != nil {
		return nil, err
	}
	if !reflect.DeepEqual(rows, probe) {
		return nil, fmt.Errorf("blocked_frontier: the frontier depends on the repair seed; one reference cannot check every job")
	}
	return &references{frontier: &expect{rows: rows}}, nil
}

// oracleLive replays each client's batch cycle on a mirror LiveDataset and
// records, per cycle state, the mined FDs and the budget repair at τ=δP.
func oracleLive(ctx context.Context, in *inputs, _ int64) (*references, error) {
	refs := &references{live: make([][]liveState, len(in.datasets))}
	errs := make([]error, len(in.datasets))
	var wg sync.WaitGroup
	for c := range in.datasets {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			refs.live[c], errs[c] = mirrorCycle(ctx, &in.datasets[c], in.fds)
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return refs, nil
}

func mirrorCycle(ctx context.Context, d *datasetInput, fds string) ([]liveState, error) {
	inst, _, err := parseDataset(*d, fds)
	if err != nil {
		return nil, err
	}
	mirror := relatrust.NewLiveDataset(inst)
	states := make([]liveState, len(d.errorGroups))
	for k := range states {
		if k > 0 {
			if _, err := mirror.Apply(rowOps(d.batch(int64(k))), nil); err != nil {
				return nil, fmt.Errorf("mirror batch %d: %w", k, err)
			}
		}
		snap, sess, _ := mirror.Snapshot()
		sigma, err := relatrust.ParseFDs(snap.Schema, fds)
		if err != nil {
			return nil, err
		}
		dv, err := relatrust.NewDiscoverer(snap, relatrust.DiscoverOptions{MaxLHS: discoverMaxLHS, MaxError: discoverMaxError, Session: sess})
		if err != nil {
			return nil, err
		}
		disc := &expect{}
		var mined relatrust.FDSet
		for f, err := range dv.Stream(ctx) {
			if err != nil {
				return nil, err
			}
			disc.fds = append(disc.fds, discoverFrame{N: len(disc.fds) + 1, FD: f.FD.Format(snap.Schema), Level: f.Level, Error: f.Error})
			mined = append(mined, f.FD)
		}
		sortMined(mined)
		disc.sigma = sigmaFrame{Sigma: mined.Format(snap.Schema), FDs: len(mined)}

		rp, err := relatrust.NewRepairer(snap, sigma, relatrust.Options{Session: sess})
		if err != nil {
			return nil, err
		}
		dp, err := rp.MaxBudget(ctx)
		if err != nil {
			return nil, err
		}
		rep, err := rp.RepairWithBudget(ctx, dp)
		if err != nil {
			return nil, fmt.Errorf("mirror state %d budget repair: %w", k, err)
		}
		states[k] = liveState{deltaP: dp, discover: disc, budget: &expect{row: report.RowOf(snap, 1, rep)}}
	}
	return states, nil
}

// sortMined orders a mined Σ as Discoverer.Discover documents it: by RHS,
// then LHS size, then LHS.
func sortMined(set relatrust.FDSet) {
	sort.Slice(set, func(i, j int) bool {
		if set[i].RHS != set[j].RHS {
			return set[i].RHS < set[j].RHS
		}
		if set[i].LHS.Len() != set[j].LHS.Len() {
			return set[i].LHS.Len() < set[j].LHS.Len()
		}
		return set[i].LHS < set[j].LHS
	})
}

func rowOps(batch []rowUpdate) []relatrust.RowOp {
	ops := make([]relatrust.RowOp, len(batch))
	for i, u := range batch {
		t := make(relatrust.Tuple, len(u.values))
		for a, v := range u.values {
			t[a] = relatrust.Const(v)
		}
		ops[i] = relatrust.RowOp{Kind: relatrust.RowUpdate, Row: u.row, Tuple: t}
	}
	return ops
}
