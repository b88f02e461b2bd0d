package search

import (
	"context"
	"math/rand"
	"testing"

	"relatrust/internal/conflict"
	"relatrust/internal/gen"
	"relatrust/internal/weights"
)

// matchingSize is the reference the incremental matching replaced: the
// size of a greedy maximal matching of the edge list, rebuilt from scratch
// over a fresh vertex set.
func matchingSize(edges []conflict.Edge) int {
	matched := make(map[int32]struct{}, len(edges))
	size := 0
	for _, e := range edges {
		if _, ok := matched[e.T1]; ok {
			continue
		}
		if _, ok := matched[e.T2]; ok {
			continue
		}
		matched[e.T1] = struct{}{}
		matched[e.T2] = struct{}{}
		size++
	}
	return size
}

// TestIncrementalMatchingMatchesRebuild drives the heuristic's matching
// scratch through random exclude/rollback sequences, as descend's
// recursion does, and pins its size after every step to the from-scratch
// greedy matching of the edges excluded on the current path.
func TestIncrementalMatchingMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(40)
		h := &heuristic{n: n, matched: make([]bool, n)}
		randomEdges := func() []conflict.Edge {
			es := make([]conflict.Edge, rng.Intn(8))
			for i := range es {
				a := int32(rng.Intn(n))
				b := int32(rng.Intn(n - 1))
				if b >= a {
					b++
				}
				es[i] = conflict.Edge{T1: a, T2: b}
			}
			return es
		}
		// path holds the excluded edge lists and their marks, innermost last.
		var path [][]conflict.Edge
		var marks []int
		for step := 0; step < 60; step++ {
			if len(path) > 0 && rng.Intn(3) == 0 {
				h.rollbackMatching(marks[len(marks)-1])
				path, marks = path[:len(path)-1], marks[:len(marks)-1]
			} else {
				es := randomEdges()
				marks = append(marks, h.extendMatching(es))
				path = append(path, es)
			}
			var acc []conflict.Edge
			for _, es := range path {
				acc = append(acc, es...)
			}
			if want := matchingSize(acc); h.msize != want {
				t.Fatalf("trial %d step %d: incremental size %d, rebuilt %d", trial, step, h.msize, want)
			}
		}
		h.rollbackMatching(0)
		for v, m := range h.matched {
			if m {
				t.Fatalf("trial %d: vertex %d still marked after a full rollback", trial, v)
			}
		}
		if h.msize != 0 || len(h.undo) != 0 {
			t.Fatalf("trial %d: size %d, undo %d after a full rollback", trial, h.msize, len(h.undo))
		}
	}
}

// TestCensusSearchEffortPinned pins the search effort of A* on a census
// workload (the 12-attribute census subset, two FDs, 34% FD error, 1%
// data error, n=2000) at five budgets and two worker counts. The numbers
// were recorded with the map-rebuilding matching; the heuristic's bounds
// and hence the search order must not depend on how the matching is
// maintained.
func TestCensusSearchEffortPinned(t *testing.T) {
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
	in := dp.Instance
	want := []struct {
		div                         int // τ = δP/div
		visited, generated, gcCalls int
	}{
		{40, 22, 150, 151},
		{20, 26, 169, 170},
		{10, 98, 372, 373},
		{4, 50, 212, 213},
		{2, 12, 64, 65},
	}
	for _, workers := range []int{1, 2} {
		opt := DefaultOptions()
		opt.Workers = workers
		s := NewSearcher(conflict.New(in, fp.Sigma), weights.NewDistinctCount(in), opt)
		for _, w := range want {
			tau := s.DeltaPOriginal() / w.div
			if _, err := s.Find(context.Background(), tau); err != nil {
				t.Fatal(err)
			}
			st := s.LastStats()
			if st.Visited != w.visited || st.Generated != w.generated || st.GCCalls != w.gcCalls {
				t.Errorf("workers=%d τ=δP/%d: visited %d generated %d gc %d, want %d %d %d",
					workers, w.div, st.Visited, st.Generated, st.GCCalls, w.visited, w.generated, w.gcCalls)
			}
		}
	}
}
