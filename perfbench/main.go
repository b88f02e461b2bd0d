// Command perfbench is the relatrustd benchmark. It boots server.New in
// process (configured like `relatrustd -data-dir -jobs-dir` with default
// flags and fresh directories), uploads seeded datasets, and drives the
// server over loopback HTTP with two closed-loop clients: each sends its
// next request only when the previous reply is complete, as an analyst
// waiting for a repair does. Every reply is checked against answers the
// library's public facade computes outside the timed window.
//
//	perfbench --workload census_budget --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the last line of standard output is a JSON object with
// the end-to-end metrics; with --trace 1 the run replays the same seeded
// operation sequence by calling each layer's functions directly, records a
// span around each call, and prints the per-layer metrics instead. The
// lines above the result describe the environment and every metric by
// name and unit. See README.md for the workloads, the metric map and the
// sizing.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"
)

// clients is the number of closed-loop clients, one per vCPU of the box
// the benchmark was sized on.
const clients = 2

// The /v1/discover request of live_mix.
const (
	discoverMaxLHS   = 3
	discoverMaxError = 0.02
)

type opKind int

const (
	opBudget opKind = iota
	opFrontier
	opJob
	opPatch
	opDiscover
	numKinds
)

var kindNames = [numKinds]string{"budget", "frontier", "job", "patch", "discover"}

// opSetup labels the replay's dataset registration in its spans.
const opSetup opKind = -1

func (k opKind) String() string {
	if k == opSetup {
		return "setup"
	}
	return kindNames[k]
}

// op is one request of a client's seeded sequence.
type op struct {
	kind    opKind
	dataset string
	tau     int         // budget
	seed    int64       // frontier and job
	batch   []rowUpdate // patch
	attrs   []string    // patch: the schema, to name the values
	want    *expect
}

// sample is the outcome of one operation.
type sample struct {
	kind  opKind
	tau   int // budget: the τ asked for, so phases compare like with like
	lat   time.Duration
	first time.Duration // frontier: until the first row arrived
	err   error         // nil when the reply was correct
}

// planner returns client c's i-th operation.
type planner func(c, i int) op

// workload is one traffic mix.
type workload struct {
	name     string
	generate func(sz size, seed int64) (*inputs, error)
	oracle   func(ctx context.Context, in *inputs, seed int64) (*references, error)
	plan     func(in *inputs, refs *references, seed int64) planner
}

var workloads = []workload{
	{name: "census_budget", generate: genCensus, oracle: oracleCensus, plan: planCensus},
	{name: "blocked_frontier", generate: genBlocked, oracle: oracleBlocked, plan: planBlocked},
	{name: "live_mix", generate: genLive, oracle: oracleLive, plan: planLive},
}

// planCensus: both clients send /v1/repair/budget to the one dataset, each
// cycling through a seeded permutation of the τ/δP fractions.
func planCensus(_ *inputs, refs *references, seed int64) planner {
	orders := make([][]int, clients)
	for c := range orders {
		orders[c] = rand.New(rand.NewSource(seed*31 + int64(c))).Perm(len(refs.budget))
	}
	return func(c, i int) op {
		bc := refs.budget[orders[c][i%len(orders[c])]]
		return op{kind: opBudget, dataset: "census", tau: bc.tau, want: bc.want}
	}
}

// pairSeed is the repair seed of client c's pair-th frontier/job pair:
// unique within a run, so no job coalesces with an earlier one.
func pairSeed(seed int64, c, pair int) int64 {
	return seed*1_000_003 + int64(c)*100_000 + int64(pair) + 1
}

// planBlocked: each client alternates a streamed /v1/repair frontier and a
// job of the same seed on its own dataset.
func planBlocked(in *inputs, refs *references, seed int64) planner {
	return func(c, i int) op {
		kind := opFrontier
		if i%2 == 1 {
			kind = opJob
		}
		return op{kind: kind, dataset: in.datasets[c].name, seed: pairSeed(seed, c, i/2), want: refs.frontier}
	}
}

// planLive: each client loops PATCH (batch g) → /v1/discover →
// /v1/repair/budget at τ=δP on its own dataset.
func planLive(in *inputs, refs *references, _ int64) planner {
	return func(c, i int) op {
		d := &in.datasets[c]
		g := int64(i/3 + 1)
		st := refs.live[c][g%int64(len(d.errorGroups))]
		switch i % 3 {
		case 0:
			b := d.batch(g)
			return op{kind: opPatch, dataset: d.name, batch: b, attrs: d.attrs,
				want: &expect{generation: g, applied: len(b), tuples: d.rows}}
		case 1:
			return op{kind: opDiscover, dataset: d.name, want: st.discover}
		default:
			return op{kind: opBudget, dataset: d.name, tau: st.deltaP, want: st.budget}
		}
	}
}

// config is one invocation.
type config struct {
	workload workload
	seed     int64
	seconds  float64
	trace    bool
	root     string // the checkout; scratch files go under .bench_build
	gitSHA   string
	size     size
	corrupt  func(k opKind, reply []byte) []byte
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload: census_budget, blocked_frontier or live_mix")
		seed    = fs.Int64("seed", 1, "workload seed")
		seconds = fs.Float64("seconds", 30, "length of the measured window")
		trace   = fs.Int("trace", 0, "0: end-to-end metrics over HTTP; 1: per-layer metrics from the traced replay")
		root    = fs.String("root", ".", "checkout root; scratch files go under <root>/.bench_build")
		gitSHA  = fs.String("git-sha", "unknown", "commit the binary was built from")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, root: *root, gitSHA: *gitSHA, size: fullSize}
	found := false
	for _, w := range workloads {
		if w.name == *name {
			cfg.workload, found = w, true
		}
	}
	if !found || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload census_budget|blocked_frontier|live_mix, --trace 0|1 and --seconds > 0\n")
		return 2
	}
	res, err := bench(cfg, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// environment is stamped on every run's report.
type environment struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Trace      bool   `json:"trace"`
	Nproc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	GoVersion  string `json:"go_version"`
	GitSHA     string `json:"git_sha"`
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// bench runs one invocation and writes its report to out.
func bench(cfg config, out io.Writer) (*result, error) {
	env := environment{
		Workload: cfg.workload.name, Seed: cfg.seed, Trace: cfg.trace,
		Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU: cpuModel(), GoVersion: runtime.Version(), GitSHA: cfg.gitSHA,
	}
	stamp, err := json.Marshal(env)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "env %s\n", stamp)

	build := filepath.Join(cfg.root, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(build, "run-")
	if err != nil {
		return nil, fmt.Errorf("scratch directory: %w", err)
	}
	defer os.RemoveAll(scratch)

	ctx := context.Background()
	setups := cfg.size.setups
	if cfg.trace {
		setups = 1 // setup_s is an end-to-end metric
	}
	var (
		in    *inputs
		d     *daemon
		times []float64
	)
	for k := 0; k < setups; k++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		in, d, err = setup(ctx, cfg, filepath.Join(scratch, fmt.Sprintf("setup-%d", k)))
		if err != nil {
			if d != nil {
				d.stop()
			}
			return nil, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
	}
	defer func() { d.stop() }()

	refs, err := cfg.workload.oracle(ctx, in, cfg.seed)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	plan := cfg.workload.plan(in, refs, cfg.seed)
	if cfg.trace {
		return traced(ctx, cfg, in, plan, d, filepath.Join(scratch, "replay"), out)
	}

	fmt.Fprintf(out, "host {\"probe_ms\": %.4f}\n", hostProbe())
	window := time.Duration(cfg.seconds * float64(time.Second))
	rss := startRSS()
	samples, elapsed := closedLoop(window, plan, httpExec(d, in.fds, cfg.corrupt))
	peak := rss.stop()
	res := endToEnd(samples, elapsed, median(times), peak)
	printReport(out, res, samples, elapsed)
	return res, nil
}

// hostProbe times a fixed piece of work — sorting 2^18 pseudo-random
// integers, which is memory-bound like the server's partition refinements —
// and returns the median of five runs in ms. It does not enter any metric:
// printed beside the result, it tells a slow run on a contended host from a
// slow commit.
func hostProbe() float64 {
	rng := rand.New(rand.NewSource(1))
	base := make([]uint64, 1<<18)
	for i := range base {
		base[i] = rng.Uint64()
	}
	buf := make([]uint64, len(base))
	times := make([]float64, 5)
	for k := range times {
		copy(buf, base)
		start := time.Now()
		sort.Slice(buf, func(i, j int) bool { return buf[i] < buf[j] })
		times[k] = ms(time.Since(start))
	}
	return median(times)
}

// setup generates the inputs from the seed, boots a daemon in dir, uploads
// every dataset and warms each with one budget repair (which builds its
// conflict analysis), so the window measures a warm server.
func setup(ctx context.Context, cfg config, dir string) (*inputs, *daemon, error) {
	in, err := cfg.workload.generate(cfg.size, cfg.seed)
	if err != nil {
		return nil, nil, err
	}
	d, err := startDaemon(dir)
	if err != nil {
		return nil, nil, err
	}
	for _, ds := range in.datasets {
		if err := d.upload(ctx, ds); err != nil {
			return nil, d, err
		}
	}
	for _, ds := range in.datasets {
		// τ beyond any δP: the search stops at Σ itself, and the data
		// repair runs once.
		resp, err := d.request(ctx, "POST", "/v1/repair/budget",
			map[string]any{"dataset": ds.name, "fds": in.fds, "tau": 1 << 30}, 200)
		if err != nil {
			return nil, d, fmt.Errorf("warming %s: %w", ds.name, err)
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, d, err
		}
	}
	return in, d, nil
}

// httpExec returns the per-client executor of the HTTP run.
func httpExec(d *daemon, fds string, corrupt func(opKind, []byte) []byte) func(c int) func(context.Context, op) sample {
	return func(int) func(context.Context, op) sample {
		hc := &httpClient{d: d, fds: fds, corrupt: corrupt}
		return hc.exec
	}
}

// closedLoop runs one goroutine per client. Each issues its sequence until
// the window ends; the operation in flight at the deadline completes and
// counts. It returns every sample and the time until the last finished.
func closedLoop(window time.Duration, plan planner, newExec func(c int) func(context.Context, op) sample) ([]sample, time.Duration) {
	start := time.Now()
	deadline := start.Add(window)
	// A hung request must not hang the run: every operation gets the
	// window plus a minute.
	ctx, cancel := context.WithDeadline(context.Background(), deadline.Add(time.Minute))
	defer cancel()
	per := make([][]sample, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			exec := newExec(c)
			for i := 0; time.Now().Before(deadline); i++ {
				o := plan(c, i)
				s := exec(ctx, o)
				s.tau = o.tau
				per[c] = append(per[c], s)
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var all []sample
	for _, s := range per {
		all = append(all, s...)
	}
	return all, elapsed
}

// quantile is the linear-interpolation quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// latencies returns the sorted latencies (ms) of the correct samples that
// match keep; first selects the first-row latency.
func latencies(samples []sample, keep func(opKind) bool, first bool) []float64 {
	var out []float64
	for _, s := range samples {
		if s.err == nil && keep(s.kind) {
			if first {
				out = append(out, ms(s.first))
			} else {
				out = append(out, ms(s.lat))
			}
		}
	}
	sort.Float64s(out)
	return out
}

func isRepair(k opKind) bool { return k == opBudget || k == opFrontier || k == opJob }
func anyKind(opKind) bool    { return true }

// endToEnd computes the metrics BENCHMARK.json lists. They are defined on
// every workload; the per-operation-type latencies of the report are not
// (census_budget sends no PATCH), so they are printed but not returned.
func endToEnd(samples []sample, elapsed time.Duration, setupS, peakMB float64) *result {
	res := &result{Correct: true, Attempted: len(samples), Metrics: map[string]metric{}}
	ok := 0
	for _, s := range samples {
		if s.err != nil {
			res.Failed++
			res.Correct = false
		} else {
			ok++
		}
	}
	all := latencies(samples, anyKind, false)
	rep := latencies(samples, isRepair, false)
	res.Metrics["setup_s"] = metric{setupS, "s"}
	res.Metrics["ops_per_s"] = metric{float64(ok) / elapsed.Seconds(), "1/s"}
	res.Metrics["peak_rss_mb"] = metric{peakMB, "MB"}
	res.Metrics["latency_p50_ms"] = metric{quantile(all, 0.5), "ms"}
	res.Metrics["latency_p90_ms"] = metric{quantile(all, 0.9), "ms"}
	res.Metrics["repair_p50_ms"] = metric{quantile(rep, 0.5), "ms"}
	res.Metrics["repair_p90_ms"] = metric{quantile(rep, 0.9), "ms"}
	return res
}

// printReport prints every end-to-end metric by name and unit,
// including the per-type ones this workload does not exercise (as n/a),
// and the first failures.
func printReport(out io.Writer, res *result, samples []sample, elapsed time.Duration) {
	line := func(name string, v float64, unit string, n int) {
		fmt.Fprintf(out, "metric %-28s %14.4f %-5s n=%d\n", name, v, unit, n)
	}
	for _, name := range []string{"setup_s", "ops_per_s", "peak_rss_mb", "latency_p50_ms", "latency_p90_ms", "repair_p50_ms", "repair_p90_ms"} {
		m := res.Metrics[name]
		line(name, m.Value, m.Unit, len(samples))
	}
	line("failed_ratio", float64(res.Failed)/float64(max(res.Attempted, 1)), "ratio", res.Attempted)
	perType := func(name string, v []float64) {
		for _, q := range []float64{0.5, 0.9} {
			name := fmt.Sprintf("%s_p%.0f_ms", name, q*100)
			if len(v) == 0 {
				fmt.Fprintf(out, "metric %-28s %14s %-5s n=0\n", name, "n/a", "ms")
				continue
			}
			line(name, quantile(v, q), "ms", len(v))
		}
	}
	for k := opKind(0); k < numKinds; k++ {
		kind := func(x opKind) bool { return x == k }
		perType(k.String(), latencies(samples, kind, false))
		if k == opFrontier {
			perType("frontier_first_row", latencies(samples, kind, true))
		}
	}
	byTau := map[int][]float64{}
	for _, s := range samples {
		if s.err == nil && s.kind == opBudget {
			byTau[s.tau] = append(byTau[s.tau], ms(s.lat))
		}
	}
	taus := make([]int, 0, len(byTau))
	for tau := range byTau {
		taus = append(taus, tau)
	}
	sort.Ints(taus)
	for _, tau := range taus {
		v := byTau[tau]
		sort.Float64s(v)
		fmt.Fprintf(out, "budget tau=%-8d p50 %10.4f ms  p90 %10.4f ms  n=%d\n", tau, quantile(v, 0.5), quantile(v, 0.9), len(v))
	}
	fmt.Fprintf(out, "window %.3f s, %d operations, %d failed\n", elapsed.Seconds(), res.Attempted, res.Failed)
	shown := 0
	for _, s := range samples {
		if s.err != nil && shown < 5 {
			fmt.Fprintf(out, "failure %s: %v\n", s.kind, s.err)
			shown++
		}
	}
}

// rssSampler samples the resident set of the process every 10 ms while
// the window runs; set-up and the oracle are excluded by starting it
// afterwards. The peak it reports is the 95th percentile of the samples:
// the single maximum swings with where the collector's cycles happen to
// fall.
type rssSampler struct {
	stopc chan struct{}
	done  chan float64
}

func startRSS() *rssSampler {
	runtime.GC()
	debug.FreeOSMemory()
	r := &rssSampler{stopc: make(chan struct{}), done: make(chan float64, 1)}
	go func() {
		var samples []float64
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			samples = append(samples, rssMB())
			select {
			case <-r.stopc:
				sort.Float64s(samples)
				r.done <- quantile(samples, 0.95)
				return
			case <-tick.C:
			}
		}
	}()
	return r
}

func (r *rssSampler) stop() float64 {
	close(r.stopc)
	return <-r.done
}

func rssMB() float64 {
	raw, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	var size, resident int64
	if _, err := fmt.Sscan(string(raw), &size, &resident); err != nil {
		return 0
	}
	return float64(resident*int64(os.Getpagesize())) / (1 << 20)
}
