package repair

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"relatrust/internal/conflict"
	"relatrust/internal/fd"
	"relatrust/internal/gen"
	"relatrust/internal/relation"
	"relatrust/internal/search"
	"relatrust/internal/testkit"
	"relatrust/internal/weights"
)

// censusFixture is the census shape of the serving benchmark at size n:
// 12 census attributes, the two-FD workload, 1% injected data errors drawn
// with seed, and a 34% FD perturbation. It returns the dirty instance and
// the perturbed Σ.
func censusFixture(t *testing.T, n int, seed int64) (*relation.Instance, fd.Set) {
	t.Helper()
	spec := gen.SubSpec(gen.CensusSpec(), 12)
	base := gen.TwoFDs(spec)
	clean, err := gen.Generate(spec, base, n, 42)
	if err != nil {
		t.Fatal(err)
	}
	dp, err := gen.PerturbData(clean, base, 0.01, seed)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := gen.PerturbFDs(base, 0.34, 44)
	if err != nil {
		t.Fatal(err)
	}
	return dp.Instance, fp.Sigma
}

// blockedFixture builds n rows whose Blk,A->B violations stay inside
// 4-row blocks, the blocked shape of the serving benchmark.
func blockedFixture(t *testing.T, n int) (*relation.Instance, fd.Set) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	in := relation.NewInstance(relation.MustSchema("Blk", "A", "B", "C", "D", "E", "F"))
	for i := 0; i < n; i++ {
		err := in.AppendConsts(
			fmt.Sprintf("b%d", i/4),
			fmt.Sprintf("v%d", rng.Intn(2)),
			fmt.Sprintf("v%d", rng.Intn(2)),
			fmt.Sprintf("v%d", rng.Intn(3)),
			fmt.Sprintf("v%d", rng.Intn(3)),
			fmt.Sprintf("v%d", rng.Intn(3)),
			fmt.Sprintf("v%d", rng.Intn(3)),
		)
		if err != nil {
			t.Fatal(err)
		}
	}
	return in, fd.Set{fd.MustNew(relation.NewAttrSet(0, 1), 2)}
}

// repairDigest hashes the changed cells of a repair, in order, together
// with the value each now holds (variables as ?vN).
func repairDigest(rep *DataRepair) string {
	h := sha256.New()
	var buf [16]byte
	for _, c := range rep.Changed {
		binary.LittleEndian.PutUint64(buf[:8], uint64(c.Tuple))
		binary.LittleEndian.PutUint64(buf[8:], uint64(c.Attr))
		h.Write(buf[:])
		h.Write([]byte(rep.Instance.Tuples[c.Tuple][c.Attr].String()))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// TestRepairDataOutputPinned pins the exact output of the three data
// repairs — which cells change, to which values, and the ?vN numbering of
// the fresh variables — on census and blocked fixtures. The digests are
// those of the value-hashing clean index the code-keyed one replaced; any
// drift in tuple order, attribute order, chase order or variable numbering
// changes them.
func TestRepairDataOutputPinned(t *testing.T) {
	want := map[string]string{
		"census/seed=1":   "3251d310ba9fcdef",
		"census/seed=2":   "391747691054cf44",
		"census/seed=3":   "cc356e9a118ba8b3",
		"census/seed=4":   "03b879c9d6e056af",
		"census/seed=5":   "75c0554d8ff08347",
		"census/cellwise": "7cc39ac2a5015729",
		"census/pinned":   "f4175af87612a169",
		"blocked/point=0": "e4e9834dbd2124e1",
		"blocked/point=1": "e4baccac42e61bfe",
		"blocked/point=2": "20a66c606f226de5",
		"blocked/point=3": "cf1b86a892eef3de",
		"blocked/point=4": "34194134f07cc7dc",
	}
	got := map[string]string{}
	for seed := int64(1); seed <= 5; seed++ {
		in, sigma := censusFixture(t, 2000, seed)
		rep, err := RepairData(in, sigma, nil, seed, nil)
		if err != nil {
			t.Fatal(err)
		}
		got[fmt.Sprintf("census/seed=%d", seed)] = repairDigest(rep)
		if seed == 1 {
			cw, err := RepairDataCellwise(in, sigma, nil, seed, nil)
			if err != nil {
				t.Fatal(err)
			}
			got["census/cellwise"] = repairDigest(cw)
			pinned := map[relation.CellRef]bool{}
			for i := 0; i < 200; i++ {
				pinned[relation.CellRef{Tuple: 10 * i, Attr: i % in.Schema.Width()}] = true
			}
			pr, err := RepairDataPinned(in, sigma, pinned, seed, nil)
			if err != nil {
				t.Fatal(err)
			}
			got["census/pinned"] = repairDigest(pr)
		}
	}
	in, sigma := blockedFixture(t, 2000)
	an := conflict.New(in, sigma)
	s := search.NewSearcher(an, weights.NewDistinctCount(in), search.DefaultOptions())
	frontier, err := s.FindRange(context.Background(), 0, s.DeltaPOriginal())
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range frontier {
		rep, err := RepairData(in, res.Sigma, an.Cover(res.State), 7, nil)
		if err != nil {
			t.Fatal(err)
		}
		got[fmt.Sprintf("blocked/point=%d", i)] = repairDigest(rep)
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("%s: digest %s, want %s", k, got[k], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("%d digests, want %d", len(got), len(want))
	}
}

// TestRepairRejectsNonCover pins the safety check of the three data
// repairs. Dropping one tuple from a valid cover of a census fixture
// either leaves a vertex cover — the repair must then succeed — or leaves
// a conflict edge uncovered, and then RepairData, the pinned repair and
// the cellwise repair must each fail with ErrNotVertexCover. The pinned
// repair computes its own cover, so it is driven through its loop with a
// supplied one and pins on tuples outside it.
func TestRepairRejectsNonCover(t *testing.T) {
	in, sigma := censusFixture(t, 1000, 3)
	cover := conflict.New(in, sigma).Cover(nil)
	edges := testkit.Edges(in, sigma)
	if !testkit.IsVertexCover(edges, cover) {
		t.Fatal("fixture cover is not a vertex cover")
	}
	inCover := map[int32]bool{}
	for _, c := range cover {
		inCover[c] = true
	}
	pinned := map[relation.CellRef]bool{}
	for ti := 0; ti < in.N() && len(pinned) < 50; ti += 7 {
		if !inCover[int32(ti)] {
			pinned[relation.CellRef{Tuple: ti, Attr: ti % in.Schema.Width()}] = true
		}
	}
	rejected, accepted := 0, 0
	for i := range cover {
		reduced := append(append([]int32(nil), cover[:i]...), cover[i+1:]...)
		stillCover := testkit.IsVertexCover(edges, reduced)
		if stillCover {
			accepted++
		} else {
			rejected++
		}
		runs := []struct {
			name string
			run  func() (*DataRepair, error)
		}{
			{"data", func() (*DataRepair, error) { return RepairData(in, sigma, reduced, int64(i), nil) }},
			{"pinned", func() (*DataRepair, error) { return repairTuples(in, sigma, reduced, pinned, int64(i)) }},
			{"cellwise", func() (*DataRepair, error) { return RepairDataCellwise(in, sigma, reduced, int64(i), nil) }},
		}
		for _, r := range runs {
			rep, err := r.run()
			switch {
			case stillCover && err != nil:
				t.Fatalf("%s without tuple %d (still a cover): %v", r.name, cover[i], err)
			case stillCover && !sigma.SatisfiedBy(rep.Instance):
				t.Fatalf("%s without tuple %d (still a cover): output violates Σ", r.name, cover[i])
			case !stillCover && !errors.Is(err, ErrNotVertexCover):
				t.Fatalf("%s without tuple %d (not a cover): err = %v, want ErrNotVertexCover", r.name, cover[i], err)
			}
		}
	}
	if rejected < 20 {
		t.Fatalf("only %d of %d removals broke the cover; the fixture does not exercise the check", rejected, len(cover))
	}
	t.Logf("%d removals rejected, %d still covers", rejected, accepted)
}

// TestFreshVariablesAvoidInputVariables repairs a census instance,
// re-perturbs the repaired V-instance by copying LHS cells (variables
// included) between tuples, and repairs it again. Every variable a repair
// writes must be new: a fresh variable numbered like one of the input's
// would equal it under V-instance semantics. The chase only adopts RHS
// values of the clean part, which are constants in these fixtures, so any
// input variable in a changed cell is a fresh one that aliased it.
func TestFreshVariablesAvoidInputVariables(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		in, sigma := censusFixture(t, 400, seed)
		first, err := RepairData(in, sigma, nil, seed, nil)
		if err != nil {
			t.Fatal(err)
		}
		v := first.Instance.Clone()
		if v.CountVars() == 0 {
			t.Fatalf("seed %d: first repair introduced no variables", seed)
		}
		rng := rand.New(rand.NewSource(seed))
		for k := 0; k < 20; k++ {
			f := sigma[rng.Intn(len(sigma))]
			ti, tj := rng.Intn(v.N()), rng.Intn(v.N())
			f.LHS.ForEach(func(a int) bool {
				v.Tuples[ti][a] = v.Tuples[tj][a]
				return true
			})
		}
		inputVars := map[int64]bool{}
		for _, tup := range v.Tuples {
			for _, c := range tup {
				if c.IsVar() {
					inputVars[c.VarID()] = true
				}
			}
		}
		runs := []struct {
			name string
			run  func() (*DataRepair, error)
		}{
			{"data", func() (*DataRepair, error) { return RepairData(v, sigma, nil, seed, nil) }},
			{"pinned", func() (*DataRepair, error) { return RepairDataPinned(v, sigma, nil, seed, nil) }},
			{"cellwise", func() (*DataRepair, error) { return RepairDataCellwise(v, sigma, nil, seed, nil) }},
		}
		for _, r := range runs {
			rep, err := r.run()
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, r.name, err)
			}
			if !sigma.SatisfiedBy(rep.Instance) {
				t.Fatalf("seed %d %s: output violates Σ", seed, r.name)
			}
			for _, c := range rep.Changed {
				if x := rep.Instance.Tuples[c.Tuple][c.Attr]; x.IsVar() && inputVars[x.VarID()] {
					t.Fatalf("seed %d %s: changed cell %v holds %v, a variable of the input", seed, r.name, c, x)
				}
			}
		}
	}
}
