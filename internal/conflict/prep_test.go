package conflict

import (
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"relatrust/internal/fd"
	"relatrust/internal/gen"
	"relatrust/internal/relation"
)

// referenceDiffSets is DiffSets as it was built before the per-root memo:
// every sampled pair's difference set from the string Tuple.DiffSet, one
// seen-map probe per pair, and a sampler that filters phase-2 pairs
// through a map of the matched pairs.
func referenceDiffSets(a *Analysis, capPerCluster int) []DiffSet {
	type agg struct {
		attrs relation.AttrSet
		edges []Edge
	}
	byAttrs := make(map[relation.AttrSet]*agg)
	seen := make(map[int64]bool)
	n := int64(a.In.N())
	for fi, f := range a.Sigma {
		for _, g := range a.clusters[fi] {
			referenceSampleClusterEdges(a, g, f.RHS, capPerCluster, func(e Edge) {
				id := int64(e.T1)*n + int64(e.T2)
				if seen[id] {
					return
				}
				seen[id] = true
				d := a.In.Tuples[e.T1].DiffSet(a.In.Tuples[e.T2])
				ag, ok := byAttrs[d]
				if !ok {
					ag = &agg{attrs: d}
					byAttrs[d] = ag
				}
				ag.edges = append(ag.edges, e)
			})
		}
	}
	out := make([]DiffSet, 0, len(byAttrs))
	for _, ag := range byAttrs {
		out = append(out, DiffSet{Attrs: ag.attrs, Edges: ag.edges})
	}
	sort.Slice(out, func(i, j int) bool {
		if len(out[i].Edges) != len(out[j].Edges) {
			return len(out[i].Edges) > len(out[j].Edges)
		}
		return out[i].Attrs < out[j].Attrs
	})
	return out
}

func referenceSampleClusterEdges(a *Analysis, g []int32, rhs int, cap int, emit func(Edge)) {
	sp := a.part.Split(g, rhs)
	if sp.NumGroups() < 2 {
		return
	}
	emitted := 0
	send := func(t1, t2 int32) bool {
		if t1 > t2 {
			t1, t2 = t2, t1
		}
		emit(Edge{T1: t1, T2: t2})
		emitted++
		return cap > 0 && emitted >= cap
	}
	flat, offs := sp.Tuples, sp.Offsets
	inMatching := make(map[[2]int32]bool)
	i, j := 0, len(flat)-1
	sgi, sgj := 0, sp.NumGroups()-1
	for i < j && sgi != sgj {
		t1, t2 := flat[i], flat[j]
		if t1 > t2 {
			t1, t2 = t2, t1
		}
		inMatching[[2]int32{t1, t2}] = true
		if send(t1, t2) {
			return
		}
		i++
		j--
		for int32(i) >= offs[sgi+1] {
			sgi++
		}
		for int32(j) < offs[sgj] {
			sgj--
		}
	}
	for round := 0; ; round++ {
		any := false
		for x := 0; x < sp.NumGroups(); x++ {
			for y := x + 1; y < sp.NumGroups(); y++ {
				sx, sy := sp.Group(x), sp.Group(y)
				ai := round % len(sx)
				bj := round / len(sx)
				if bj >= len(sy) {
					continue
				}
				any = true
				t1, t2 := sx[ai], sy[bj]
				if t1 > t2 {
					t1, t2 = t2, t1
				}
				if inMatching[[2]int32{t1, t2}] {
					continue
				}
				if send(t1, t2) {
					return
				}
			}
		}
		if !any {
			return
		}
	}
}

// sameDiffSets compares difference-set lists element by element (an empty
// list equals a nil one).
func sameDiffSets(a, b []DiffSet) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Attrs != b[i].Attrs || !reflect.DeepEqual(a[i].Edges, b[i].Edges) {
			return false
		}
	}
	return true
}

type prepWorkload struct {
	name  string
	in    *relation.Instance
	sigma fd.Set
}

// prepWorkloads returns the census workload at n=2000 (two FDs tying the
// tuples into one conflict component, FD error 0.34, data error 0.01) and
// V-instances holding shared and fresh variables under two or three FDs
// with overlapping attributes.
func prepWorkloads(t *testing.T) []prepWorkload {
	t.Helper()
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
	ws := []prepWorkload{{name: "census", in: dp.Instance, sigma: fp.Sigma}}
	rng := rand.New(rand.NewSource(8))
	for len(ws) < 9 {
		in, sigma := randConflictWorkload(rng)
		vars := 0
		for _, tp := range in.Tuples {
			for _, v := range tp {
				if v.IsVar() {
					vars++
				}
			}
		}
		if vars > 0 && New(in, sigma).ViolatingTuples() > 0 {
			ws = append(ws, prepWorkload{name: "v-instance", in: in, sigma: sigma})
		}
	}
	return ws
}

// TestPrepRacingForksMatchReference: forks of one root ask for the per-root
// memo's queries for the first time from 8 goroutines at once, each in a
// different cap order, so the first builds race each other (run under
// -race in CI). Every fork must get exactly what a fresh analysis computes
// and what the string-keyed reference computes.
func TestPrepRacingForksMatchReference(t *testing.T) {
	caps := []int{0, 5, 50}
	const goroutines = 8
	for _, w := range prepWorkloads(t) {
		root := New(w.in, w.sigma)
		type result struct {
			ds      map[int][]DiffSet
			samples map[int][]Edge
			perm    int
			cover   int
		}
		results := make([]result, goroutines)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				f := root.Fork()
				defer f.Release()
				r := result{ds: map[int][]DiffSet{}, samples: map[int][]Edge{}}
				<-start
				for i := range caps {
					c := caps[(g+i)%len(caps)]
					if g%2 == 0 {
						r.ds[c] = f.DiffSets(c)
						r.samples[c] = f.MatchingEdgeSample(c)
					} else {
						r.samples[c] = f.MatchingEdgeSample(c)
						r.ds[c] = f.DiffSets(c)
					}
				}
				r.perm = f.PermanentMatching()
				r.cover = f.BaseCoverSize()
				results[g] = r
			}(g)
		}
		close(start)
		wg.Wait()

		fresh := New(w.in, w.sigma)
		width := w.in.Schema.Width()
		ext := make([]relation.AttrSet, len(w.sigma))
		for i, f := range w.sigma {
			ext[i] = relation.FullSet(width).Diff(f.LHS).Remove(f.RHS)
		}
		wantPerm, wantCover := fresh.MatchingSize(ext), fresh.CoverSize(nil)
		for _, c := range caps {
			ref := referenceDiffSets(New(w.in, w.sigma), c)
			if len(ref) == 0 {
				t.Fatalf("%s cap %d: the reference found no difference sets", w.name, c)
			}
			wantDS := New(w.in, w.sigma).DiffSets(c)
			if !sameDiffSets(wantDS, ref) {
				t.Fatalf("%s cap %d: code-keyed DiffSets differ from the string reference:\ngot  %v\nwant %v", w.name, c, wantDS, ref)
			}
			wantSample := New(w.in, w.sigma).MatchingEdgeSample(c)
			for g, r := range results {
				if !sameDiffSets(r.ds[c], ref) {
					t.Fatalf("%s cap %d goroutine %d: DiffSets differ from the reference", w.name, c, g)
				}
				if !reflect.DeepEqual(r.samples[c], wantSample) {
					t.Fatalf("%s cap %d goroutine %d: MatchingEdgeSample differs from a fresh build", w.name, c, g)
				}
			}
		}
		for g, r := range results {
			if r.perm != wantPerm || r.cover != wantCover {
				t.Fatalf("%s goroutine %d: PermanentMatching %d, BaseCoverSize %d; fresh %d, %d",
					w.name, g, r.perm, r.cover, wantPerm, wantCover)
			}
		}
		// The memo hands every fork the same entry.
		if &results[0].ds[50][0] != &results[goroutines-1].ds[50][0] {
			t.Fatalf("%s: forks got separately built difference sets", w.name)
		}
	}
}

// TestEdgeDiffsMatchTupleDiffSet: the code-keyed difference set of every
// sampled edge equals the string Tuple.DiffSet of its pair.
func TestEdgeDiffsMatchTupleDiffSet(t *testing.T) {
	for _, w := range prepWorkloads(t) {
		a := New(w.in, w.sigma)
		edges := a.MatchingEdgeSample(0)
		for i, d := range a.EdgeDiffs(edges) {
			e := edges[i]
			if want := w.in.Tuples[e.T1].DiffSet(w.in.Tuples[e.T2]); d != want {
				t.Fatalf("%s: edge %v: code diff %v, string diff %v", w.name, e, d, want)
			}
		}
	}
}
