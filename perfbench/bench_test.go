package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the self-test checks against.
type benchmarkSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// reportedEndToEnd are the end-to-end metrics every run prints by name and
// unit, including those its workload does not exercise (as n/a).
var reportedEndToEnd = map[string]string{
	"setup_s": "s", "ops_per_s": "1/s", "failed_ratio": "ratio", "peak_rss_mb": "MB",
	"budget_p50_ms": "ms", "budget_p90_ms": "ms",
	"frontier_first_row_p50_ms": "ms", "frontier_first_row_p90_ms": "ms",
	"frontier_p50_ms": "ms", "frontier_p90_ms": "ms",
	"job_p50_ms": "ms", "job_p90_ms": "ms",
	"patch_p50_ms": "ms", "patch_p90_ms": "ms",
	"discover_p50_ms": "ms", "discover_p90_ms": "ms",
}

// reportedLayers are the per-layer times the traced run prints for the
// workloads that call the layer.
var reportedLayers = map[string][]string{
	"census_budget":    {"server.budget_ms"},
	"blocked_frontier": {"store.append_ms", "jobs.wait_ms", "jobs.run_ms", "server.frontier_ms", "server.frontier_first_row_ms", "server.job_ms"},
	"live_mix":         {"discovery.stream_ms", "live.apply_ms", "server.patch_ms", "server.discover_ms", "server.budget_ms"},
}

func tinyRun(t *testing.T, w workload, trace bool, corrupt func(opKind, []byte) []byte) (*result, string) {
	t.Helper()
	cfg := config{workload: w, seed: 3, seconds: 1.5, trace: trace, root: t.TempDir(), gitSHA: "test", size: tinySize, corrupt: corrupt}
	var out bytes.Buffer
	res, err := bench(cfg, &out)
	if err != nil {
		t.Fatalf("%s trace=%v: %v\n%s", w.name, trace, err, out.String())
	}
	return res, out.String()
}

func sameNames(t *testing.T, what string, got map[string]metric, want []struct{ Name, Unit string }) {
	t.Helper()
	var gotNames, wantNames []string
	for name := range got {
		gotNames = append(gotNames, name)
	}
	for _, m := range want {
		wantNames = append(wantNames, m.Name)
		if g, ok := got[m.Name]; ok && g.Unit != m.Unit {
			t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", what, m.Name, g.Unit, m.Unit)
		}
	}
	sort.Strings(gotNames)
	sort.Strings(wantNames)
	if strings.Join(gotNames, ",") != strings.Join(wantNames, ",") {
		t.Errorf("%s metrics\n got %v\nwant %v", what, gotNames, wantNames)
	}
}

// TestSelf runs every workload at a tiny size, untraced and traced: no
// operation may fail, the result must carry exactly the metrics
// BENCHMARK.json lists, and the report must name every metric with its
// unit.
func TestSelf(t *testing.T) {
	spec := readSpec(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, report := tinyRun(t, w, false, nil)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("untraced run: correct=%v failed=%d attempted=%d\n%s", res.Correct, res.Failed, res.Attempted, report)
			}
			sameNames(t, "end-to-end", res.Metrics, spec.EndToEnd)
			for name, unit := range reportedEndToEnd {
				re := regexp.MustCompile(`(?m)^metric ` + regexp.QuoteMeta(name) + ` +\S+ ` + regexp.QuoteMeta(unit) + ` `)
				if !re.MatchString(report) {
					t.Errorf("report lacks %s in %s", name, unit)
				}
			}
			if !regexp.MustCompile(`(?m)^metric failed_ratio +0\.0000 ratio `).MatchString(report) {
				t.Errorf("failed_ratio is not 0:\n%s", report)
			}

			res, report = tinyRun(t, w, true, nil)
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("traced run: correct=%v failed=%d\n%s", res.Correct, res.Failed, report)
			}
			sameNames(t, "per-layer", res.Metrics, spec.PerLayer)
			for _, m := range spec.PerLayer {
				if !strings.Contains(report, "layer "+m.Name+" ") {
					t.Errorf("traced report lacks %s", m.Name)
				}
			}
			for _, name := range reportedLayers[w.name] {
				if !regexp.MustCompile(`(?m)^layer ` + regexp.QuoteMeta(name) + ` +\S+ ms n=[1-9]`).MatchString(report) {
					t.Errorf("traced report lacks a measured %s:\n%s", name, report)
				}
			}
		})
	}
}

// TestCorruptReplyCounted proves the oracle rejects a wrong answer: one
// budget reply has its cell-change count altered on the wire, and exactly
// that operation must count as failed.
func TestCorruptReplyCounted(t *testing.T) {
	var done atomic.Bool
	corrupt := func(k opKind, reply []byte) []byte {
		if k != opBudget || !done.CompareAndSwap(false, true) {
			return reply
		}
		return bytes.Replace(reply, []byte(`"cell_changes":`), []byte(`"cell_changes":1`), 1)
	}
	res, report := tinyRun(t, workloads[0], false, corrupt)
	if !done.Load() {
		t.Fatal("no budget reply was corrupted")
	}
	if res.Correct || res.Failed != 1 {
		t.Fatalf("corrupted reply: correct=%v failed=%d, want false and 1\n%s", res.Correct, res.Failed, report)
	}
}
