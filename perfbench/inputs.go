package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"

	"relatrust/internal/fd"
	"relatrust/internal/gen"
	"relatrust/internal/relation"
)

// size scales a whole run. full is what the benchmark measures; the
// self-test runs tiny.
type size struct {
	censusN  int // tuples of the census_budget dataset
	blockedN int // tuples of each blocked_frontier dataset
	liveN    int // tuples of each live_mix dataset
	// liveStates is the period of the live_mix batch cycle: how many
	// disjoint groups of injected errors take turns being reverted.
	liveStates int
	// groupRows is how many rows each live_mix batch reverts (and
	// re-injects): a batch carries 2·groupRows updates.
	groupRows int
	// setups is how many times setup_s is measured per run.
	setups int
}

var (
	fullSize = size{censusN: 10000, blockedN: 12000, liveN: 10000, liveStates: 8, groupRows: 8, setups: 3}
	tinySize = size{censusN: 2000, blockedN: 2000, liveN: 2000, liveStates: 2, groupRows: 8, setups: 1}
)

// The census-shape datasets pin their clean relation and their FD
// perturbation; the workload seed picks the injected data errors. Which
// LHS attributes PerturbFDs removes decides how deep the A* search goes:
// over four seeds the mean budget repair ranged from 140 to 480 ms, which
// would swamp any difference between two commits. The clean relation's
// near-duplicate structure moves the deepest searches by another 15%
// between seeds. With both pinned, the seed still changes every conflict
// the repairs resolve, and δP by under 1%. The pins are the generator
// seeds of the repository's census micro-benchmarks (MakeWorkload seed 42,
// FD seed 42+2).
const (
	cleanSeed = 42
	fdSeed    = 44
)

// datasetInput is one dataset the benchmark uploads, as the CSV text the
// server receives.
type datasetInput struct {
	name string
	csv  string
	rows int
	// live_mix only: errorGroups[k] lists the rows reverted to their clean
	// tuple in cycle state k, and clean/dirty hold both versions of every
	// row in any group.
	errorGroups [][]int
	clean       map[int][]string
	dirty       map[int][]string
	attrs       []string
}

// inputs is everything one run sends the server, generated from its seed.
type inputs struct {
	fds      string
	datasets []datasetInput
}

// censusInstance generates the census shape: 12 census attributes, the
// two-FD workload, 1% injected data errors drawn with errSeed, and the
// pinned 34% FD perturbation. It returns the clean and dirty instances,
// the perturbed Σ and the injected cells.
func censusInstance(n int, errSeed int64) (clean, dirty *relation.Instance, sigma fd.Set, cells []relation.CellRef, err error) {
	spec := gen.SubSpec(gen.CensusSpec(), 12)
	base := gen.TwoFDs(spec)
	clean, err = gen.Generate(spec, base, n, cleanSeed)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	dp, err := gen.PerturbData(clean, base, 0.01, errSeed)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	fp, err := gen.PerturbFDs(base, 0.34, fdSeed)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	return clean, dp.Instance, fp.Sigma, dp.Cells, nil
}

func csvOf(in *relation.Instance) (string, error) {
	var buf bytes.Buffer
	if err := relation.WriteCSV(&buf, in); err != nil {
		return "", err
	}
	return buf.String(), nil
}

func tupleStrings(t relation.Tuple) []string {
	out := make([]string, len(t))
	for i, v := range t {
		out[i] = v.String()
	}
	return out
}

// genCensus builds census_budget's single dataset.
func genCensus(sz size, seed int64) (*inputs, error) {
	_, dirty, sigma, _, err := censusInstance(sz.censusN, seed)
	if err != nil {
		return nil, err
	}
	text, err := csvOf(dirty)
	if err != nil {
		return nil, err
	}
	return &inputs{
		fds:      sigma.Format(dirty.Schema),
		datasets: []datasetInput{{name: "census", csv: text}},
	}, nil
}

// genBlocked builds blocked_frontier's data: Blk,A→B violations confined
// to 4-row blocks (the shape of the repository's benchBlockWorkload), so
// the conflict hypergraph splits into thousands of small components. Each
// client gets its own copy: a job's sweep slot is released just after its
// terminal frame is published, so two clients sharing one dataset's two
// slots could see a spurious 429 in that gap.
func genBlocked(sz size, seed int64) (*inputs, error) {
	rng := rand.New(rand.NewSource(seed))
	in := relation.NewInstance(relation.MustSchema("Blk", "A", "B", "C", "D", "E", "F"))
	for t := 0; t < sz.blockedN; t++ {
		err := in.AppendConsts(
			fmt.Sprintf("b%d", t/4),
			fmt.Sprintf("v%d", rng.Intn(2)),
			fmt.Sprintf("v%d", rng.Intn(2)),
			fmt.Sprintf("v%d", rng.Intn(3)),
			fmt.Sprintf("v%d", rng.Intn(3)),
			fmt.Sprintf("v%d", rng.Intn(3)),
			fmt.Sprintf("v%d", rng.Intn(3)),
		)
		if err != nil {
			return nil, err
		}
	}
	text, err := csvOf(in)
	if err != nil {
		return nil, err
	}
	return &inputs{
		fds: "Blk,A->B",
		datasets: []datasetInput{
			{name: "blocked-0", csv: text},
			{name: "blocked-1", csv: text},
		},
	}, nil
}

// genLive builds one census-shape dataset per live_mix client, with its
// injected errors split into sz.liveStates disjoint groups of
// sz.groupRows rows. Cycle state k has group k reverted to the clean
// tuples and every other injected error in place; the uploaded dataset is
// state 0. Batch g moves state (g−1) mod P to g mod P: it reverts group
// g mod P and re-injects group (g−1) mod P. The error count, and so δP,
// stays stationary, and the data repeats with period P, which lets the
// oracle answer every generation from P mirrored states.
func genLive(sz size, seed int64) (*inputs, error) {
	out := &inputs{}
	for c := 0; c < clients; c++ {
		cseed := seed*7919 + int64(c) + 1
		clean, dirty, sigma, cells, err := censusInstance(sz.liveN, cseed)
		if err != nil {
			return nil, err
		}
		out.fds = sigma.Format(dirty.Schema)
		rows := distinctTuples(cells)
		need := sz.liveStates * sz.groupRows
		if len(rows) < need {
			return nil, fmt.Errorf("live_mix: %d perturbed rows, need %d", len(rows), need)
		}
		rng := rand.New(rand.NewSource(cseed))
		rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
		d := datasetInput{
			name:  fmt.Sprintf("live-%d", c),
			rows:  dirty.N(),
			clean: map[int][]string{},
			dirty: map[int][]string{},
			attrs: dirty.Schema.Names(),
		}
		for k := 0; k < sz.liveStates; k++ {
			group := append([]int(nil), rows[k*sz.groupRows:(k+1)*sz.groupRows]...)
			sort.Ints(group)
			d.errorGroups = append(d.errorGroups, group)
			for _, r := range group {
				d.clean[r] = tupleStrings(clean.Tuples[r])
				d.dirty[r] = tupleStrings(dirty.Tuples[r])
			}
		}
		state0 := dirty.Clone()
		for _, r := range d.errorGroups[0] {
			state0.Tuples[r] = clean.Tuples[r].Clone()
		}
		if d.csv, err = csvOf(state0); err != nil {
			return nil, err
		}
		out.datasets = append(out.datasets, d)
	}
	return out, nil
}

func distinctTuples(cells []relation.CellRef) []int {
	seen := map[int]bool{}
	var rows []int
	for _, c := range cells {
		if !seen[c.Tuple] {
			seen[c.Tuple] = true
			rows = append(rows, c.Tuple)
		}
	}
	sort.Ints(rows)
	return rows
}

// rowUpdate is one PATCH op: replace row's tuple with values.
type rowUpdate struct {
	row    int
	values []string
}

// batch returns the updates that move a live_mix dataset to generation g.
func (d *datasetInput) batch(g int64) []rowUpdate {
	p := int64(len(d.errorGroups))
	revert, inject := d.errorGroups[g%p], d.errorGroups[(g-1)%p]
	ops := make([]rowUpdate, 0, len(revert)+len(inject))
	for _, r := range revert {
		ops = append(ops, rowUpdate{row: r, values: d.clean[r]})
	}
	for _, r := range inject {
		ops = append(ops, rowUpdate{row: r, values: d.dirty[r]})
	}
	return ops
}
