package weights

import (
	"math/rand"
	"sync"
	"testing"

	"relatrust/internal/relation"
	"relatrust/internal/testkit"
)

// TestMemoConcurrentMatchesUnderlying prices every attribute set from
// several goroutines at once, each in its own order, through one memo over
// an unsynchronized weighting (run under -race), and pins every answer to
// a private weighting's.
func TestMemoConcurrentMatchesUnderlying(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const width = 6
	in := testkit.RandomInstance(rng, 200, width, 4)
	ref := NewDistinctCount(in)
	m := NewMemo(NewDistinctCount(in))
	sets := make([]relation.AttrSet, 0, 1<<width)
	for y := relation.AttrSet(0); y < 1<<width; y++ {
		sets = append(sets, y)
	}
	const goroutines = 8
	got := make([]map[relation.AttrSet]float64, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		order := append([]relation.AttrSet(nil), sets...)
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g] = make(map[relation.AttrSet]float64, len(order))
			for _, y := range order {
				got[g][y] = m.Weight(y)
			}
		}(g)
	}
	wg.Wait()
	for _, y := range sets {
		want := ref.Weight(y)
		for g := range got {
			if got[g][y] != want {
				t.Fatalf("goroutine %d: Weight(%v) = %v, want %v", g, y, got[g][y], want)
			}
		}
	}
	if m.Name() != "distinct-count" {
		t.Errorf("Name() = %q", m.Name())
	}
}

func TestCanonical(t *testing.T) {
	for name, want := range map[string]string{
		"": "attr-count", "count": "attr-count", "attr-count": "attr-count",
		"distinct": "distinct-count", "distinct-count": "distinct-count",
		"entropy": "entropy", "mdl": "mdl",
	} {
		got, err := Canonical(name)
		if err != nil || got != want {
			t.Errorf("Canonical(%q) = %q, %v; want %q", name, got, err, want)
		}
		w, err := ByName(name, sample())
		if err != nil || w.Name() != want {
			t.Errorf("ByName(%q) named %q, %v; want %q", name, w.Name(), err, want)
		}
	}
	if _, err := Canonical("nope"); err == nil {
		t.Error("unknown name must fail")
	}
}
