package repair

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"relatrust/internal/fd"
	"relatrust/internal/relation"
)

// refCleanIndex is the seed's string-keyed clean index, kept as the
// equivalence oracle for the code-keyed cleanIndex: same adds, same
// violations, on tuples mixing constants, shared variables, and the fresh
// variables findAssignment generates.
type refCleanIndex struct {
	sigma fd.Set
	idx   []map[string]relation.Value
}

func newRefCleanIndex(sigma fd.Set) *refCleanIndex {
	r := &refCleanIndex{sigma: sigma, idx: make([]map[string]relation.Value, len(sigma))}
	for i := range sigma {
		r.idx[i] = map[string]relation.Value{}
	}
	return r
}

func refKeyOf(t relation.Tuple, X relation.AttrSet) string {
	var b strings.Builder
	X.ForEach(func(a int) bool {
		b.WriteString(t[a].Key())
		b.WriteByte(0x1f)
		return true
	})
	return b.String()
}

func (r *refCleanIndex) add(t relation.Tuple) {
	for i, f := range r.sigma {
		r.idx[i][refKeyOf(t, f.LHS)] = t[f.RHS]
	}
}

func (r *refCleanIndex) violation(tc relation.Tuple) (int, relation.Value, bool) {
	for i, f := range r.sigma {
		v, ok := r.idx[i][refKeyOf(tc, f.LHS)]
		if ok && !tc[f.RHS].Equal(v) {
			return i, v, true
		}
	}
	return 0, relation.Value{}, false
}

// TestQuickCleanIndexMatchesStringReference drives the code-keyed
// cleanIndex and the string-keyed reference through identical random
// interleavings and asserts identical answers at every step. As in the
// repair loop, the index starts from the rows outside a random cover;
// cover rows are then rewritten in place — cells replaced by fresh
// variables (coded past the column's range) or by another row's cell
// (carrying its code) — probed, and registered as clean, after which they
// never change again. Rows hold constants and variables shared across
// rows, and some FDs have an empty LHS.
func TestQuickCleanIndexMatchesStringReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		width := 3 + rng.Intn(3)
		names := make([]string, width)
		for i := range names {
			names[i] = string(rune('A' + i))
		}
		schema := relation.MustSchema(names...)

		nfd := 1 + rng.Intn(3)
		sigma := make(fd.Set, 0, nfd)
		for len(sigma) < nfd {
			rhs := rng.Intn(width)
			var lhs relation.AttrSet
			if rng.Intn(6) > 0 {
				lhs = relation.NewAttrSet((rhs + 1) % width)
				if rng.Intn(2) == 0 {
					lhs = lhs.Add((rhs + 2) % width)
				}
			}
			sigma = append(sigma, fd.MustNew(lhs, rhs))
		}

		var vg relation.VarGen
		shared := []relation.Value{vg.Fresh(), vg.Fresh()}
		mk := func() relation.Tuple {
			tp := make(relation.Tuple, width)
			for a := range tp {
				switch rng.Intn(10) {
				case 0:
					tp[a] = shared[rng.Intn(len(shared))]
				case 1:
					tp[a] = vg.Fresh()
				default:
					tp[a] = relation.Const(string(rune('a' + rng.Intn(3))))
				}
			}
			return tp
		}
		in := relation.NewInstance(schema)
		for i := 0; i < 40; i++ {
			if err := in.Append(mk()); err != nil {
				return false
			}
		}
		out := in.Clone()
		inCover := make([]bool, in.N())
		var cover []int32
		for i := range inCover {
			if inCover[i] = rng.Intn(2) == 0; inCover[i] {
				cover = append(cover, int32(i))
			}
		}
		ci := newCleanIndex(in, out, sigma, cover)
		ref := newRefCleanIndex(sigma)
		codes := make([][]int32, in.N())
		for r := range codes {
			codes[r] = make([]int32, width)
			ci.codesOf(int32(r), codes[r])
			if !inCover[r] {
				ref.add(out.Tuples[r])
			}
		}

		same := func(r int) bool {
			gi, ge, gok := ci.violation(codes[r])
			wi, wv, wok := ref.violation(out.Tuples[r])
			if gok != wok || gi != wi {
				return false
			}
			return !gok || ci.rows[ge.tuple][sigma[gi].RHS].Equal(wv)
		}
		for step := 0; step < 60; step++ {
			r := rng.Intn(in.N())
			if inCover[r] {
				for a := 0; a < width; a++ {
					switch rng.Intn(4) {
					case 0:
						out.Tuples[r][a], codes[r][a] = ci.fresh(a)
					case 1:
						u := rng.Intn(in.N())
						out.Tuples[r][a], codes[r][a] = out.Tuples[u][a], codes[u][a]
					}
				}
			}
			if !same(r) {
				return false
			}
			if inCover[r] && rng.Intn(2) == 0 {
				ci.add(int32(r), codes[r])
				ref.add(out.Tuples[r])
				inCover[r] = false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
