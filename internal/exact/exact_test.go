package exact

import (
	"math/rand"
	"testing"

	"relatrust/internal/conflict"
	"relatrust/internal/fd"
	"relatrust/internal/relation"
	"relatrust/internal/repair"
	"relatrust/internal/testkit"
)

func TestDeltaOptSatisfiedInstance(t *testing.T) {
	in := testkit.Build([]string{"A", "B"}, [][]string{{"1", "x"}, {"2", "y"}})
	sigma := fd.MustParseSet(in.Schema, "A->B")
	d, witness, err := DeltaOpt(in, sigma)
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 || !sigma.SatisfiedBy(witness) {
		t.Fatalf("δopt = %d, want 0", d)
	}
}

func TestDeltaOptSingleViolation(t *testing.T) {
	in := testkit.Build([]string{"A", "B"}, [][]string{{"1", "x"}, {"1", "y"}})
	sigma := fd.MustParseSet(in.Schema, "A->B")
	d, witness, err := DeltaOpt(in, sigma)
	if err != nil {
		t.Fatal(err)
	}
	if d != 1 {
		t.Fatalf("δopt = %d, want 1", d)
	}
	if !sigma.SatisfiedBy(witness) {
		t.Fatal("witness invalid")
	}
}

func TestDeltaOptNeedsEqualizing(t *testing.T) {
	// Two pairs sharing a middle tuple: A->B with groups (1,1,1): values
	// x,y,z — two changes needed (make two of them equal the third), and
	// fresh variables alone cannot help.
	in := testkit.Build([]string{"A", "B"}, [][]string{
		{"1", "x"}, {"1", "y"}, {"1", "z"},
	})
	sigma := fd.MustParseSet(in.Schema, "A->B")
	d, _, err := DeltaOpt(in, sigma)
	if err != nil {
		t.Fatal(err)
	}
	if d != 2 {
		t.Fatalf("δopt = %d, want 2", d)
	}
}

func TestDeltaOptRefusesLargeInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	in := testkit.RandomInstance(rng, 10, 5, 2)
	if _, _, err := DeltaOpt(in, testkit.RandomFDs(rng, 5, 1, 2)); err == nil {
		t.Fatal("oversized instance must be rejected")
	}
}

// TestTheorem3EndToEnd verifies the paper's headline approximation bound
// on exhaustively-checkable instances: Repair_Data changes at most
// 2·min{|R|−1,|Σ|}·δopt cells, and the vertex-cover-based δP bound indeed
// sandwiches δopt ≤ δP ≤ 2α·δopt... the left inequality (δopt ≤ α·|C2opt|
// as an upper bound on the performed changes) and the global factor are
// what Theorem 3 promises.
func TestTheorem3EndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	checked := 0
	for trial := 0; trial < 200 && checked < 60; trial++ {
		width := 2 + rng.Intn(2) // ≤ 3 attrs × ≤ 8 tuples = ≤ 24 cells
		n := 4 + rng.Intn(5)
		if n*width > MaxCells {
			continue
		}
		in := testkit.RandomInstance(rng, n, width, 2)
		sigma := testkit.RandomFDs(rng, width, 1+rng.Intn(2), 1)
		dopt, _, err := DeltaOpt(in, sigma)
		if err != nil {
			t.Fatal(err)
		}
		if dopt == 0 {
			continue
		}
		checked++
		alpha := width - 1
		if len(sigma) < alpha {
			alpha = len(sigma)
		}
		rep, err := repair.RepairData(in, sigma, nil, int64(trial), nil)
		if err != nil {
			t.Fatal(err)
		}
		bound := 2 * alpha * dopt
		if rep.NumChanges() > bound {
			t.Fatalf("trial %d: repair changed %d cells > 2α·δopt = %d (δopt=%d, α=%d)\nΣ=%v\n%s",
				trial, rep.NumChanges(), bound, dopt, alpha, sigma, in)
		}
		// And the certified budget itself respects the factor.
		an := conflict.New(in, sigma)
		if deltaP := alpha * an.CoverSize(nil); deltaP > bound {
			t.Fatalf("trial %d: δP=%d exceeds 2α·δopt=%d", trial, deltaP, bound)
		}
		// Sanity: a minimum vertex cover never exceeds δopt.
		edges := testkit.Edges(in, sigma)
		if opt := testkit.MinVertexCover(edges); opt > dopt {
			t.Fatalf("trial %d: min vertex cover %d exceeds δopt %d", trial, opt, dopt)
		}
	}
	if checked < 20 {
		t.Fatalf("only %d violating instances checked; generator too clean", checked)
	}
}

// TestDeltaOptFreshVariablesAvoidInput: the cheapest repair of the first
// pair breaks its A agreement with a fresh variable. The input already
// holds ?v1 in column A; a fresh variable numbered like it would equal it,
// re-creating a violation with the third tuple, so the search must number
// its variables above the input's.
func TestDeltaOptFreshVariablesAvoidInput(t *testing.T) {
	in := testkit.Build([]string{"A", "B"}, [][]string{{"1", "x"}, {"1", "y"}, {"_", "z"}})
	var vg relation.VarGen
	held := vg.Fresh()
	in.Tuples[2][0] = held
	sigma := fd.MustParseSet(in.Schema, "A->B")
	d, witness, err := DeltaOpt(in, sigma)
	if err != nil {
		t.Fatal(err)
	}
	if d != 1 || !sigma.SatisfiedBy(witness) {
		t.Fatalf("δopt = %d, want 1 with a valid witness", d)
	}
	got := witness.Tuples[0][0]
	if !got.IsVar() || got.Equal(held) {
		t.Fatalf("witness t0[A] = %v, want a fresh variable other than the input's %v", got, held)
	}
}
