package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// traced is the --trace 1 run. It splits the window in three: the HTTP run
// (for the server's share of each operation and the shed counter), the
// direct replay with spans off, and the same replay with spans on. The
// per-layer metrics come from the spans; the phase medians give the
// server's share (HTTP − spans off) and the tracing overhead (spans on −
// spans off).
func traced(ctx context.Context, cfg config, in *inputs, plan planner, d *daemon, dir string, out io.Writer) (*result, error) {
	third := time.Duration(cfg.seconds * float64(time.Second) / 3)
	shed0, err := d.shed(ctx)
	if err != nil {
		return nil, err
	}
	httpS, _ := closedLoop(third, plan, httpExec(d, in.fds, cfg.corrupt))
	shed1, err := d.shed(ctx)
	if err != nil {
		return nil, err
	}

	off, err := newReplayer(ctx, in, filepath.Join(dir, "off"), false)
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	offS, _ := closedLoop(third, plan, off.exec)
	off = nil // its datasets are garbage before the traced replay builds its own
	on, err := newReplayer(ctx, in, filepath.Join(dir, "on"), true)
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	onS, _ := closedLoop(third, plan, on.exec)

	st := on.totals()
	res := &result{Correct: true, Metrics: on.layers(st)}
	phases := []struct {
		name    string
		samples []sample
	}{{"http", httpS}, {"replay", offS}, {"traced replay", onS}}
	for _, ph := range phases {
		for _, s := range ph.samples {
			res.Attempted++
			if s.err != nil {
				res.Failed++
				res.Correct = false
			}
		}
	}
	serverMS, serverByKind := phaseDelta(httpS, offS)
	overheadMS, _ := phaseDelta(onS, offS)
	res.Metrics["server.ms"] = metric{serverMS, "ms"}
	res.Metrics["server.sweeps_shed"] = metric{shed1 - shed0, "count"}
	res.Metrics["trace.overhead_ms"] = metric{overheadMS, "ms"}

	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(out, "layer %-34s %14.4f %s\n", name, m.Value, m.Unit)
	}
	// Layer times this workload may not exercise at all (no discovery on
	// census_budget, say): printed, but kept out of the result, which
	// must not carry a time that is zero on every run.
	for _, x := range append(workloadLayers(st), serverByKind...) {
		fmt.Fprintf(out, "layer %-34s %14.4f %s n=%d\n", x.name, x.value, "ms", x.n)
	}
	for _, ph := range phases {
		shown := 0
		for _, s := range ph.samples {
			if s.err != nil && shown < 5 {
				fmt.Fprintf(out, "failure %s %s: %v\n", ph.name, s.kind, s.err)
				shown++
			}
		}
	}
	path := filepath.Join(cfg.root, ".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", cfg.workload.name, cfg.seed))
	if err := on.writeSpans(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "spans %s\n", path)
	return res, nil
}

// extraLayer is a report-only per-layer figure.
type extraLayer struct {
	name  string
	value float64
	n     int
}

// phaseDelta compares two phases operation by operation: for each
// operation type (and, for budget repairs, each τ, whose latencies differ
// several-fold) it takes the difference of the two phases' median
// latencies, and averages them with the first phase's counts as weights.
// It also returns the difference per operation type.
func phaseDelta(a, b []sample) (float64, []extraLayer) {
	type key struct {
		kind opKind
		tau  int
	}
	group := func(ss []sample) map[key][]sample {
		m := map[key][]sample{}
		for _, s := range ss {
			k := key{s.kind, s.tau}
			m[k] = append(m[k], s)
		}
		return m
	}
	ga, gb := group(a), group(b)
	var (
		sum, weight float64
		kindSum     [numKinds]float64
		kindN       [numKinds]int
		firstA      []sample
		firstB      []sample
	)
	for k, sa := range ga {
		sb := gb[k]
		la, lb := latencies(sa, anyKind, false), latencies(sb, anyKind, false)
		if len(la) == 0 || len(lb) == 0 {
			continue
		}
		diff := quantile(la, 0.5) - quantile(lb, 0.5)
		sum += float64(len(la)) * diff
		weight += float64(len(la))
		kindSum[k.kind] += float64(len(la)) * diff
		kindN[k.kind] += len(la)
		if k.kind == opFrontier {
			firstA, firstB = sa, sb
		}
	}
	var byKind []extraLayer
	for k := opKind(0); k < numKinds; k++ {
		if kindN[k] > 0 {
			byKind = append(byKind, extraLayer{"server." + k.String() + "_ms", kindSum[k] / float64(kindN[k]), kindN[k]})
		}
	}
	if firstA != nil {
		fa, fb := latencies(firstA, anyKind, true), latencies(firstB, anyKind, true)
		byKind = append(byKind, extraLayer{"server.frontier_first_row_ms", quantile(fa, 0.5) - quantile(fb, 0.5), len(fa)})
	}
	return ratio(sum, weight), byKind
}

// spanTotals sums span durations (ms) by name: total, self (minus the
// spans directly nested in it) and the number of spans.
type spanTotals struct {
	total, self, calls map[string]float64
}

func (r *replayer) totals() spanTotals {
	st := spanTotals{total: map[string]float64{}, self: map[string]float64{}, calls: map[string]float64{}}
	for _, t := range append([]*opTrace{r.setupT}, r.traces...) {
		child := make([]float64, len(t.spans))
		for _, sp := range t.spans {
			if sp.Parent >= 0 {
				child[sp.Parent] += ms(time.Duration(sp.End - sp.Start))
			}
		}
		for i, sp := range t.spans {
			d := ms(time.Duration(sp.End - sp.Start))
			st.total[sp.Name] += d
			st.self[sp.Name] += d - child[i]
			st.calls[sp.Name]++
		}
	}
	return st
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layers computes the per-layer metrics of BENCHMARK.json from the traced
// replay. Times and counts are per replayed operation unless the name
// says otherwise: read_csv and save are per call, components.count and
// largest are per search, the ratios carry their own base.
func (r *replayer) layers(st spanTotals) map[string]metric {
	n := float64(len(r.traces))
	counts := map[string]float64{}
	var weightMS, weightCalls, peak float64
	for _, t := range r.traces {
		for k, v := range t.counts {
			if k == "discovery.partition_store_peak" {
				peak = max(peak, v)
				continue
			}
			counts[k] += v
		}
		weightMS += ms(time.Duration(t.weightNS.Load()))
		weightCalls += float64(t.weightCalls.Load())
	}
	var builds, acquires, parallel float64
	for eng, base := range r.engines {
		now := eng.Stats()
		builds += float64(now.Builds - base.Builds)
		acquires += float64(now.Acquires - base.Acquires)
	}
	for ev, base := range r.evals {
		parallel += float64(ev.Counters().Parallel - base)
	}
	per := func(x float64) float64 { return ratio(x, n) }
	c := func(v float64) metric { return metric{v, "count"} }
	msm := func(v float64) metric { return metric{v, "ms"} }
	return map[string]metric{
		"weights.ms":                     msm(per(weightMS)),
		"weights.calls":                  c(per(weightCalls)),
		"search.new_searcher_ms":         msm(per(st.total["search.new_searcher"])),
		"search.find_ms":                 msm(per(max(0, st.self["search.find"]-weightMS))),
		"search.visited":                 c(per(counts["search.visited"])),
		"search.generated":               c(per(counts["search.generated"])),
		"search.gc_calls":                c(per(counts["search.gc_calls"])),
		"search.visited_per_generated":   {ratio(counts["search.visited"], counts["search.generated"]), "ratio"},
		"conflict.cover_ms":              msm(per(st.total["conflict.cover"])),
		"conflict.refine_steps":          c(per(counts["conflict.refine_steps"])),
		"conflict.cover_queries":         c(per(counts["conflict.cover_queries"])),
		"conflict.cover_hit_ratio":       {ratio(counts["conflict.cover_hits"], counts["conflict.cover_queries"]), "ratio"},
		"components.evaluator_ms":        msm(per(st.total["components.evaluator"])),
		"components.count":               c(ratio(counts["components.count"], counts["components.sweeps"])),
		"components.largest":             c(ratio(counts["components.largest"], counts["components.sweeps"])),
		"components.parallel_evals":      c(per(parallel)),
		"session.acquire_ms":             msm(per(st.total["session.acquire"])),
		"session.builds":                 c(per(builds)),
		"session.acquires":               c(per(acquires)),
		"repair.data_ms":                 msm(per(st.total["repair.data"])),
		"repair.cells_changed":           c(per(counts["repair.cells_changed"])),
		"discovery.fds_found":            c(per(counts["discovery.fds_found"])),
		"discovery.partition_store_peak": c(peak),
		"live.components_dirtied":        c(per(counts["live.components_dirtied"])),
		"store.save_ms":                  msm(ratio(st.total["store.save"], st.calls["store.save"])),
		"store.bytes_per_user_byte":      {ratio(counts["store.snapshot_bytes"], counts["store.user_bytes"]), "B/B"},
		"store.appends":                  c(per(counts["store.appends"])),
		"relation.read_csv_ms":           msm(ratio(st.total["relation.read_csv"], st.calls["relation.read_csv"])),
	}
}

// workloadLayers are the per-call times of layers only some workloads
// call: discovery on live_mix, the live tier on live_mix, job
// checkpoints and the job queue on blocked_frontier.
func workloadLayers(st spanTotals) []extraLayer {
	var out []extraLayer
	for _, x := range []struct{ name, span string }{
		{"discovery.stream_ms", "discovery.stream"},
		{"live.apply_ms", "live.apply"},
		{"store.append_ms", "store.append"},
		{"jobs.wait_ms", "jobs.wait"},
		{"jobs.run_ms", "jobs.run"},
	} {
		v := st.total[x.span]
		if x.span == "live.apply" {
			v = st.self[x.span]
		}
		out = append(out, extraLayer{x.name, ratio(v, st.calls[x.span]), int(st.calls[x.span])})
	}
	return out
}

// writeSpans dumps every recorded span as JSON lines.
func (r *replayer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, t := range append([]*opTrace{r.setupT}, r.traces...) {
		for _, sp := range t.spans {
			if err := enc.Encode(sp); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
