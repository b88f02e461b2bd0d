package live

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"relatrust/internal/components"
	"relatrust/internal/conflict"
	"relatrust/internal/fd"
	"relatrust/internal/relation"
	"relatrust/internal/session"
	"relatrust/internal/testkit"
)

// randTuple draws a random tuple over the small test domain — the same
// value space testkit.RandomInstance uses, so mutations both create and
// destroy violations.
func randTuple(rng *rand.Rand, width, dom int) relation.Tuple {
	t := make(relation.Tuple, width)
	for a := range t {
		t[a] = relation.Const(fmt.Sprintf("v%d", rng.Intn(dom)))
	}
	return t
}

// randBatch draws a mixed batch of 1..6 ops against a table of n rows and
// returns the expected row count after it.
func randBatch(rng *rand.Rand, n, width, dom int) ([]Op, int) {
	k := 1 + rng.Intn(6)
	ops := make([]Op, 0, k)
	for i := 0; i < k; i++ {
		switch {
		case n == 0 || rng.Intn(3) == 0:
			ops = append(ops, Op{Kind: OpInsert, Tuple: randTuple(rng, width, dom)})
			n++
		case rng.Intn(2) == 0:
			ops = append(ops, Op{Kind: OpUpdate, Row: rng.Intn(n), Tuple: randTuple(rng, width, dom)})
		default:
			ops = append(ops, Op{Kind: OpDelete, Row: rng.Intn(n)})
			n--
		}
	}
	return ops, n
}

// randExt draws a random extension vector; a third of the draws are nil
// (the base cover query).
func randExt(rng *rand.Rand, sigma fd.Set, width int) []relation.AttrSet {
	if rng.Intn(3) == 0 {
		return nil
	}
	ext := make([]relation.AttrSet, len(sigma))
	for fi := range ext {
		for a := 0; a < width; a++ {
			if rng.Intn(width+1) == 0 {
				ext[fi] = ext[fi].Add(a)
			}
		}
	}
	return ext
}

// checkAgainstRebuild asserts the table's current spliced analysis and
// evaluator for sigma answer bit-identically to a from-scratch rebuild of
// the current instance: cluster arenas equal in content AND order (the
// capped samplers are order-sensitive), and CoverSize equal over random
// extension vectors through both the analysis and the spliced evaluator.
func checkAgainstRebuild(t *testing.T, tb *Table, sigma fd.Set, rng *rand.Rand, trials int) {
	t.Helper()
	cur, eng, _ := tb.Snapshot()
	spliced := eng.Acquire(sigma)
	defer eng.Release(spliced)
	fresh := conflict.New(cur, sigma)
	for fi := range sigma {
		if got, want := spliced.NumClusters(fi), fresh.NumClusters(fi); got != want {
			t.Fatalf("FD %d: spliced has %d clusters, rebuild has %d", fi, got, want)
		}
		for ci := 0; ci < fresh.NumClusters(fi); ci++ {
			g, w := spliced.ClusterTuples(fi, ci), fresh.ClusterTuples(fi, ci)
			if len(g) != len(w) {
				t.Fatalf("FD %d cluster %d: spliced %v, rebuild %v", fi, ci, g, w)
			}
			for i := range g {
				if g[i] != w[i] {
					t.Fatalf("FD %d cluster %d: spliced %v, rebuild %v", fi, ci, g, w)
				}
			}
		}
	}
	ev := eng.CoverEvaluator(sigma)
	width := cur.Schema.Width()
	for trial := 0; trial < trials; trial++ {
		ext := randExt(rng, sigma, width)
		want := fresh.CoverSize(ext)
		if got := spliced.CoverSize(ext); got != want {
			t.Fatalf("trial %d: spliced CoverSize = %d, rebuild = %d (ext %v)", trial, got, want, ext)
		}
		if got := ev.CoverSize(spliced, ext); got != want {
			t.Fatalf("trial %d: spliced evaluator CoverSize = %d, rebuild = %d (ext %v)", trial, got, want, ext)
		}
	}
}

// TestApplyMatchesRebuild is the tier's core oracle: over randomized
// insert/update/delete streams, after every batch the incrementally
// spliced analysis and component evaluator must be indistinguishable from
// throwing everything away and re-analyzing the mutated instance.
func TestApplyMatchesRebuild(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			const width, dom = 4, 2
			in := testkit.RandomInstance(rng, 30+rng.Intn(30), width, dom)
			sigma := testkit.RandomFDs(rng, width, 2, 2)
			tb := NewTable(in, 1)

			// Warm the root and its evaluator so batches splice rather than
			// cold-build.
			_, eng, _ := tb.Snapshot()
			eng.Release(eng.Acquire(sigma))
			eng.CoverEvaluator(sigma)

			n := in.N()
			for batch := 0; batch < 30; batch++ {
				ops, wantN := randBatch(rng, n, width, dom)
				res, err := tb.Apply(ops, nil)
				if err != nil {
					t.Fatalf("batch %d: %v", batch, err)
				}
				if res.NewN != wantN {
					t.Fatalf("batch %d: NewN = %d, want %d", batch, res.NewN, wantN)
				}
				n = res.NewN
				if got := tb.Generation(); got != res.Generation {
					t.Fatalf("batch %d: table generation %d, result says %d", batch, got, res.Generation)
				}
				checkAgainstRebuild(t, tb, sigma, rng, 40)
			}
			st := tb.Stats()
			if st.MutationsApplied == 0 {
				t.Fatalf("no mutations recorded")
			}
		})
	}
}

// TestSnapshotIsolation pins the structural isolation guarantee: an
// engine acquired before a batch keeps answering for its own instance —
// bit-identically to a rebuild of that instance — after arbitrarily many
// later batches have been committed.
func TestSnapshotIsolation(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const width, dom = 4, 2
	in := testkit.RandomInstance(rng, 50, width, dom)
	sigma := testkit.RandomFDs(rng, width, 2, 2)
	tb := NewTable(in, 7)

	oldIn, oldEng, oldGen := tb.Snapshot()
	oldEng.Release(oldEng.Acquire(sigma))
	oldEng.CoverEvaluator(sigma)
	if oldGen != 7 {
		t.Fatalf("initial generation = %d, want 7", oldGen)
	}

	n := in.N()
	for batch := 0; batch < 10; batch++ {
		ops, wantN := randBatch(rng, n, width, dom)
		if _, err := tb.Apply(ops, nil); err != nil {
			t.Fatal(err)
		}
		n = wantN
	}
	if g := tb.Generation(); g == oldGen {
		t.Fatalf("generation did not advance")
	}

	// The old engine — the one a mid-sweep materialization would re-acquire
	// from — still answers for the pre-mutation instance.
	a := oldEng.Acquire(sigma)
	defer oldEng.Release(a)
	ref := conflict.New(oldIn, sigma)
	ev := oldEng.CoverEvaluator(sigma)
	for trial := 0; trial < 60; trial++ {
		ext := randExt(rng, sigma, width)
		want := ref.CoverSize(ext)
		if got := a.CoverSize(ext); got != want {
			t.Fatalf("old snapshot drifted: CoverSize = %d, want %d", got, want)
		}
		if got := ev.CoverSize(a, ext); got != want {
			t.Fatalf("old evaluator drifted: CoverSize = %d, want %d", got, want)
		}
	}
}

// TestEvictThenApply checks Evict drops the warm state without losing
// correctness: the next batch cold-rebuilds and the oracle still holds.
func TestEvictThenApply(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const width, dom = 4, 2
	in := testkit.RandomInstance(rng, 40, width, dom)
	sigma := testkit.RandomFDs(rng, width, 2, 2)
	tb := NewTable(in, 1)
	n := in.N()
	for batch := 0; batch < 4; batch++ {
		ops, wantN := randBatch(rng, n, width, dom)
		if _, err := tb.Apply(ops, nil); err != nil {
			t.Fatal(err)
		}
		n = wantN
	}
	gen := tb.Generation()
	tb.Evict()
	if g := tb.Generation(); g != gen {
		t.Fatalf("Evict changed the generation: %d -> %d", gen, g)
	}
	_, eng, _ := tb.Snapshot()
	eng.Release(eng.Acquire(sigma))
	eng.CoverEvaluator(sigma)
	for batch := 0; batch < 4; batch++ {
		ops, wantN := randBatch(rng, n, width, dom)
		if _, err := tb.Apply(ops, nil); err != nil {
			t.Fatal(err)
		}
		n = wantN
		checkAgainstRebuild(t, tb, sigma, rng, 30)
	}
}

// TestSwapRemoveMoves pins the delete renumbering contract: deleting a
// non-last row moves the last row into its slot and reports the move.
func TestSwapRemoveMoves(t *testing.T) {
	in := testkit.Build([]string{"A", "B"}, [][]string{
		{"a0", "b0"},
		{"a1", "b1"},
		{"a2", "b2"},
	})
	tb := NewTable(in, 1)
	res, err := tb.Apply([]Op{{Kind: OpDelete, Row: 0}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Moves) != 1 || res.Moves[0] != (Move{From: 2, To: 0}) {
		t.Fatalf("moves = %v, want [{2 0}]", res.Moves)
	}
	if res.NewN != 2 {
		t.Fatalf("NewN = %d, want 2", res.NewN)
	}
	cur, _, _ := tb.Snapshot()
	if got := cur.Tuples[0][0].Str(); got != "a2" {
		t.Fatalf("row 0 = %q after swap-remove, want a2", got)
	}
	// Deleting the last row moves nothing.
	res, err = tb.Apply([]Op{{Kind: OpDelete, Row: 1}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Moves) != 0 {
		t.Fatalf("deleting the last row reported moves %v", res.Moves)
	}
}

// TestBadOpsRejectWholeBatch checks validation: any invalid op aborts the
// whole batch with ErrBadOp and the table unchanged.
func TestBadOpsRejectWholeBatch(t *testing.T) {
	in := testkit.Build([]string{"A", "B"}, [][]string{{"a", "b"}, {"a", "c"}})
	tb := NewTable(in, 3)
	bad := [][]Op{
		{{Kind: OpUpdate, Row: 5, Tuple: relation.Tuple{relation.Const("x"), relation.Const("y")}}},
		{{Kind: OpUpdate, Row: -1, Tuple: relation.Tuple{relation.Const("x"), relation.Const("y")}}},
		{{Kind: OpDelete, Row: 2}},
		{{Kind: OpInsert, Tuple: relation.Tuple{relation.Const("x")}}},
		{{Kind: OpKind(99)}},
		// Valid prefix, invalid tail: the prefix must not stick either.
		{
			{Kind: OpInsert, Tuple: relation.Tuple{relation.Const("x"), relation.Const("y")}},
			{Kind: OpDelete, Row: 40},
		},
	}
	for i, ops := range bad {
		if _, err := tb.Apply(ops, nil); !errors.Is(err, ErrBadOp) {
			t.Fatalf("batch %d: err = %v, want ErrBadOp", i, err)
		}
		if g := tb.Generation(); g != 3 {
			t.Fatalf("batch %d advanced the generation to %d", i, g)
		}
		if cur, _, _ := tb.Snapshot(); cur.N() != 2 {
			t.Fatalf("batch %d changed the instance", i)
		}
	}
	// Row indices address the evolving batch state: deleting row 1 twice
	// from a 2-row table is invalid, but insert-then-update-the-insert is
	// valid.
	if _, err := tb.Apply([]Op{{Kind: OpDelete, Row: 1}, {Kind: OpDelete, Row: 1}}, nil); !errors.Is(err, ErrBadOp) {
		t.Fatalf("double delete of the shrunk row accepted")
	}
	res, err := tb.Apply([]Op{
		{Kind: OpInsert, Tuple: relation.Tuple{relation.Const("p"), relation.Const("q")}},
		{Kind: OpUpdate, Row: 2, Tuple: relation.Tuple{relation.Const("p"), relation.Const("r")}},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Applied != 2 || res.NewN != 3 {
		t.Fatalf("insert+update batch: applied %d rows %d", res.Applied, res.NewN)
	}
}

// TestNoOpBatch checks identical updates and empty batches commit nothing.
func TestNoOpBatch(t *testing.T) {
	in := testkit.Build([]string{"A", "B"}, [][]string{{"a", "b"}})
	tb := NewTable(in, 2)
	res, err := tb.Apply([]Op{
		{Kind: OpUpdate, Row: 0, Tuple: relation.Tuple{relation.Const("a"), relation.Const("b")}},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Applied != 0 || res.Generation != 2 {
		t.Fatalf("no-op update committed: applied %d generation %d", res.Applied, res.Generation)
	}
	res, err = tb.Apply(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Generation != 2 || res.NewN != 1 {
		t.Fatalf("empty batch committed: %+v", res)
	}
}

// TestPrecommitAbort checks a precommit error rolls the batch back: the
// table keeps its generation, instance, and engine, and a later batch
// still splices correctly.
func TestPrecommitAbort(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const width, dom = 4, 2
	in := testkit.RandomInstance(rng, 30, width, dom)
	sigma := testkit.RandomFDs(rng, width, 2, 2)
	tb := NewTable(in, 1)
	_, eng, _ := tb.Snapshot()
	eng.Release(eng.Acquire(sigma))

	boom := errors.New("disk full")
	var sawN int
	_, err := tb.Apply([]Op{{Kind: OpInsert, Tuple: randTuple(rng, width, dom)}}, func(next *relation.Instance) error {
		sawN = next.N()
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the precommit error", err)
	}
	if sawN != 31 {
		t.Fatalf("precommit saw %d rows, want the post-batch 31", sawN)
	}
	if g := tb.Generation(); g != 1 {
		t.Fatalf("aborted batch advanced the generation to %d", g)
	}
	cur, curEng, _ := tb.Snapshot()
	if cur != in || curEng != eng {
		t.Fatalf("aborted batch swapped the snapshot")
	}
	// The tier still works after the abort.
	if _, err := tb.Apply([]Op{{Kind: OpInsert, Tuple: randTuple(rng, width, dom)}}, nil); err != nil {
		t.Fatal(err)
	}
	checkAgainstRebuild(t, tb, sigma, rng, 30)
}

// TestDirtiedCounter sanity-checks the observability counter: a batch
// that rewrites a violating cluster reports at least one dirtied
// component when the root had an evaluator.
func TestDirtiedCounter(t *testing.T) {
	in := testkit.Build([]string{"A", "B"}, [][]string{
		{"a", "b1"},
		{"a", "b2"},
		{"c", "d"},
	})
	sigma := fd.MustParseSet(in.Schema, "A->B")
	tb := NewTable(in, 1)
	_, eng, _ := tb.Snapshot()
	eng.Release(eng.Acquire(sigma))
	eng.CoverEvaluator(sigma)
	res, err := tb.Apply([]Op{
		{Kind: OpUpdate, Row: 1, Tuple: relation.Tuple{relation.Const("a"), relation.Const("b1")}},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.ComponentsDirtied == 0 {
		t.Fatalf("repairing the only violation dirtied no component")
	}
	if st := tb.Stats(); st.ComponentsDirtied == 0 || st.MutationsApplied != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// The violation is gone now.
	cur, eng2, _ := tb.Snapshot()
	a := eng2.Acquire(sigma)
	defer eng2.Release(a)
	if a.ViolatingTuples() != 0 {
		t.Fatalf("violations remain after the repair update: %s", a.DescribeClusters())
	}
	if ev := eng2.CoverEvaluator(sigma); ev.Decomposition().Components() != 0 {
		t.Fatalf("components remain after the repair update")
	}
	_ = cur
}

// TestSplicedSamplersMatch pins the order-sensitive surfaces: the capped
// edge and diff-set samplers of a spliced analysis must equal a rebuild's
// byte for byte (they iterate the cluster arenas in order).
func TestSplicedSamplersMatch(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	const width, dom = 4, 2
	in := testkit.RandomInstance(rng, 60, width, dom)
	sigma := testkit.RandomFDs(rng, width, 2, 2)
	tb := NewTable(in, 1)
	_, eng, _ := tb.Snapshot()
	eng.Release(eng.Acquire(sigma))
	n := in.N()
	for batch := 0; batch < 8; batch++ {
		ops, wantN := randBatch(rng, n, width, dom)
		if _, err := tb.Apply(ops, nil); err != nil {
			t.Fatal(err)
		}
		n = wantN
	}
	cur, eng2, _ := tb.Snapshot()
	spliced := eng2.Acquire(sigma)
	defer eng2.Release(spliced)
	fresh := conflict.New(cur, sigma)
	if got, want := spliced.DescribeClusters(), fresh.DescribeClusters(); got != want {
		t.Fatalf("cluster description diverged:\nspliced: %s\nrebuild: %s", got, want)
	}
	gotE, wantE := spliced.MatchingEdgeSample(16), fresh.MatchingEdgeSample(16)
	if len(gotE) != len(wantE) {
		t.Fatalf("edge samples diverged: %d vs %d edges", len(gotE), len(wantE))
	}
	for i := range gotE {
		if gotE[i] != wantE[i] {
			t.Fatalf("edge sample %d diverged: %v vs %v", i, gotE[i], wantE[i])
		}
	}
	gotD, wantD := spliced.DiffSets(8), fresh.DiffSets(8)
	if len(gotD) != len(wantD) {
		t.Fatalf("diff sets diverged: %d vs %d", len(gotD), len(wantD))
	}
	for i := range gotD {
		if gotD[i].Attrs != wantD[i].Attrs || gotD[i].Count() != wantD[i].Count() {
			t.Fatalf("diff set %d diverged: %+v vs %+v", i, gotD[i], wantD[i])
		}
	}
	// The evaluator derived through the whole batch sequence still matches.
	ev := eng2.CoverEvaluator(sigma)
	fev := components.NewEvaluator(fresh)
	for trial := 0; trial < 40; trial++ {
		ext := randExt(rng, sigma, width)
		if got, want := ev.CoverSize(spliced, ext), fev.CoverSize(fresh, ext); got != want {
			t.Fatalf("trial %d: spliced evaluator %d, fresh evaluator %d", trial, got, want)
		}
	}
}

// TestPrepMemoPerGeneration: the per-root memo behind DiffSets and the
// other searcher inputs answers for one snapshot only. With the memo warm
// at every generation, the generation each PATCH publishes must answer as
// a fresh build of its instance does, and the previous generation must
// keep answering for its own instance.
func TestPrepMemoPerGeneration(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	const width, dom = 5, 2
	in := testkit.RandomInstance(rng, 60, width, dom)
	sigma := testkit.RandomFDs(rng, width, 2, 2)
	tb := NewTable(in, 1)
	check := func(cur *relation.Instance, eng *session.Engine, label string) {
		t.Helper()
		a := eng.Acquire(sigma)
		defer eng.Release(a)
		fresh := conflict.New(cur, sigma)
		for _, c := range []int{0, 8} {
			if got, want := a.DiffSets(c), fresh.DiffSets(c); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s cap %d: DiffSets %v, fresh build %v", label, c, got, want)
			}
			if got, want := a.MatchingEdgeSample(c), fresh.MatchingEdgeSample(c); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s cap %d: MatchingEdgeSample %v, fresh build %v", label, c, got, want)
			}
		}
		if got, want := a.PermanentMatching(), fresh.PermanentMatching(); got != want {
			t.Fatalf("%s: PermanentMatching %d, fresh build %d", label, got, want)
		}
		if got, want := a.BaseCoverSize(), fresh.CoverSize(nil); got != want {
			t.Fatalf("%s: BaseCoverSize %d, fresh build %d", label, got, want)
		}
	}
	prevIn, prevEng, _ := tb.Snapshot()
	check(prevIn, prevEng, "generation 1")
	n := in.N()
	for batch := 0; batch < 12; batch++ {
		ops, wantN := randBatch(rng, n, width, dom)
		if _, err := tb.Apply(ops, nil); err != nil {
			t.Fatal(err)
		}
		n = wantN
		cur, eng, gen := tb.Snapshot()
		check(cur, eng, fmt.Sprintf("generation %d", gen))
		check(prevIn, prevEng, fmt.Sprintf("generation %d after the next PATCH", gen-1))
		prevIn, prevEng = cur, eng
	}
}
