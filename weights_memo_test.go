package relatrust_test

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"relatrust"
	"relatrust/internal/gen"
	"relatrust/internal/testkit"
)

// TestLiveDatasetWeightsFreshPerGeneration: a sweep over a mutated
// dataset prices extensions through the new snapshot's memo only. After
// warming the old snapshot's memo and inserting rows with unseen values
// (which changes the distinct count of every attribute set), every weight
// the new snapshot's memo answers, including those its sweep cached,
// equals a weighting built fresh over the new rows.
func TestLiveDatasetWeightsFreshPerGeneration(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const width = 5
	base := testkit.RandomInstance(rng, 40, width, 3)
	sigma := testkit.RandomFDs(rng, width, 2, 2)
	ds := relatrust.NewLiveDataset(base)

	sweep := func(in *relatrust.Instance, sess *relatrust.Session) string {
		rp, err := relatrust.NewRepairer(in, sigma, relatrust.Options{Seed: 3, Workers: 2, Session: sess})
		if err != nil {
			t.Fatal(err)
		}
		return frontierFingerprint(t, rp)
	}
	in0, sess0, _ := ds.Snapshot()
	sweep(in0, sess0)
	old, err := sess0.Weights("distinct-count")
	if err != nil {
		t.Fatal(err)
	}

	var ops []relatrust.RowOp
	for i := 0; i < 3; i++ {
		row := make(relatrust.Tuple, width)
		for a := range row {
			row[a] = relatrust.Const(fmt.Sprintf("new%d-%d", i, a))
		}
		ops = append(ops, relatrust.RowOp{Kind: relatrust.RowInsert, Tuple: row})
	}
	if _, err := ds.Apply(ops, nil); err != nil {
		t.Fatal(err)
	}
	in1, sess1, _ := ds.Snapshot()
	got := sweep(in1, sess1)
	memo, err := sess1.Weights("distinct-count")
	if err != nil {
		t.Fatal(err)
	}
	if memo == old {
		t.Fatal("the new generation reuses the old generation's weight memo")
	}
	fresh := relatrust.DistinctCountWeights(in1)
	for y := relatrust.AttrSet(1); y < 1<<width; y++ {
		if old.Weight(y) == fresh.Weight(y) {
			t.Fatalf("mutation left w(%v) unchanged; the test cannot see a stale memo", y)
		}
		if memo.Weight(y) != fresh.Weight(y) {
			t.Fatalf("w(%v) = %v through the new snapshot, %v fresh", y, memo.Weight(y), fresh.Weight(y))
		}
	}
	if want := sweep(in1.Clone(), nil); got != want {
		t.Fatalf("frontier over the new snapshot diverged from a private session\nlive:\n%s\nfresh:\n%s", got, want)
	}
}

// TestSharedSessionConcurrentRepairers runs two Repairers over one
// Session at once (run under -race): they share the session's analyses
// and weight memo, and each repair must be bit-identical to the one a
// Repairer over a private session returns.
func TestSharedSessionConcurrentRepairers(t *testing.T) {
	spec := gen.SubSpec(gen.CensusSpec(), 12)
	base := gen.TwoFDs(spec)
	clean, err := gen.Generate(spec, base, 500, 42)
	if err != nil {
		t.Fatal(err)
	}
	dp, err := gen.PerturbData(clean, base, 0.01, 43)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := gen.PerturbFDs(base, 0.34, 44)
	if err != nil {
		t.Fatal(err)
	}
	in, sigma := dp.Instance, fp.Sigma

	render := func(r *relatrust.Repair) string {
		return fmt.Sprintf("sigma=%s cost=%v deltap=%d changed=%v rows=%v",
			r.Sigma, r.FDCost, r.DeltaP, r.Data.Changed, r.Data.Instance.Tuples)
	}
	repairAll := func(rp *relatrust.Repairer, taus []int) []string {
		out := make([]string, len(taus))
		for i, tau := range taus {
			r, err := rp.RepairWithBudget(context.Background(), tau)
			if err != nil {
				t.Error(err)
				return nil
			}
			out[i] = render(r)
		}
		return out
	}

	private, err := relatrust.NewRepairer(in, sigma, relatrust.Options{Seed: 5, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	dP, err := private.MaxBudget(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	taus := []int{dP / 10, dP / 4, dP / 2, dP}

	sess := relatrust.NewSession(in)
	got := make([][]string, 2)
	var wg sync.WaitGroup
	for i := range got {
		rp, err := relatrust.NewRepairer(in, sigma, relatrust.Options{Seed: 5, Workers: 2, Session: sess})
		if err != nil {
			t.Fatal(err)
		}
		// The two Repairers walk the budgets in opposite orders, so each
		// meets weights the other has not priced yet.
		order := append([]int(nil), taus...)
		if i == 1 {
			for l, r := 0, len(order)-1; l < r; l, r = l+1, r-1 {
				order[l], order[r] = order[r], order[l]
			}
		}
		wg.Add(1)
		go func(i int, rp *relatrust.Repairer, order []int) {
			defer wg.Done()
			got[i] = repairAll(rp, order)
			if i == 1 {
				for l, r := 0, len(got[i])-1; l < r; l, r = l+1, r-1 {
					got[i][l], got[i][r] = got[i][r], got[i][l]
				}
			}
		}(i, rp, order)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for k, tau := range taus {
		want := repairAll(private, []int{tau})
		for i := range got {
			if got[i][k] != want[0] {
				t.Fatalf("repairer %d at τ=%d over the shared session:\n%s\nprivate session:\n%s", i, tau, got[i][k], want[0])
			}
		}
	}
}
