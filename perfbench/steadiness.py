#!/usr/bin/env python3
"""Steadiness report for the relatrustd benchmark.

Runs each workload once per seed and prints, for every end-to-end metric,
the median, the quartiles and the spread (interquartile distance as a share
of the median, from statistics.quantiles(values, n=4)) next to the bound
BENCHMARK.json fixes. A bound is comfortable when the spread stays below a
third of it. With --groups 2 the seeds are split into two interleaved sets
and the second set's median is compared with the first's, the way two
measurements of the same commit are compared.

Run from the repository root:

    python3 perfbench/steadiness.py --seeds 1-10
    python3 perfbench/steadiness.py --workloads census_budget --seeds 1-5
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def seed_list(spec):
    seeds = []
    for part in spec.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(cmd, workload, seed, seconds, trace):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    took = time.monotonic() - start
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    env = next((json.loads(l[4:]) for l in lines if l.startswith("env ")), None)
    host = next((json.loads(l[5:]) for l in lines if l.startswith("host ")), {})
    env = dict(env or {}, **host)
    return res, env, took


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3, (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", help="comma-separated subset (default: all in BENCHMARK.json)")
    ap.add_argument("--seeds", default="1-10", help="seeds, e.g. 1-10 or 3,7,11")
    ap.add_argument("--seconds", type=int, help="window per run (default: run_seconds)")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--groups", type=int, default=1, help="split the seeds into this many interleaved sets")
    opts = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    cmd = bench["command"]
    seconds = opts.seconds or bench["run_seconds"]
    names = opts.workloads.split(",") if opts.workloads else [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    seeds = seed_list(opts.seeds)

    raw = {}
    for name in names:
        for seed in seeds:
            res, env, took = run_once(cmd, name, seed, seconds, opts.trace)
            raw.setdefault(name, []).append({"seed": seed, "env": env, "result": res, "seconds": took})
            print(f"# {name} seed {seed}: correct={res['correct']} attempted={res['attempted']} "
                  f"failed={res['failed']} in {took:.1f} s", flush=True)

    ok = True
    for name in names:
        runs = raw[name]
        print(f"\n{name}: {len(runs)} runs, longest {max(r['seconds'] for r in runs):.1f} s")
        print(f"  env: {json.dumps(runs[0]['env'])}")
        probes = [r["env"]["probe_ms"] for r in runs if "probe_ms" in r["env"]]
        if len(probes) == len(runs) > 1:
            q1, med, q3, sp = spread(probes)
            print(f"  host probe (not a metric): median {med:.2f} ms, spread {sp:.4f}, "
                  f"min {min(probes):.2f}, max {max(probes):.2f}")
        print(f"  {'metric':<28} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}  verdict")
        metrics = sorted(runs[0]["result"]["metrics"])
        for m in metrics:
            values = [r["result"]["metrics"][m]["value"] for r in runs]
            q1, med, q3, sp = spread(values)
            bound = bounds.get(m, {}).get("bound")
            verdict = ""
            if bound is not None:
                if m == "setup_s":
                    verdict = "(spread not gated)"
                elif sp <= bound / 3:
                    verdict = "ok"
                elif sp <= bound:
                    verdict = "within bound, above a third"
                    ok = False
                else:
                    verdict = "TOO WIDE"
                    ok = False
            unit = runs[0]["result"]["metrics"][m]["unit"]
            print(f"  {m + ' (' + unit + ')':<28} {med:12.4f} {q1:12.4f} {q3:12.4f} {sp:8.4f} "
                  f"{bound if bound is not None else '-':>6}  {verdict}")
            if opts.groups > 1 and bound is not None:
                meds = [statistics.median(values[g::opts.groups]) for g in range(opts.groups)]
                worse = bounds[m]["better"] == "lower" and meds[-1] > meds[0] * (1 + bound) or \
                    bounds[m]["better"] == "higher" and meds[-1] < meds[0] * (1 - bound)
                print(f"  {'':<28} group medians {', '.join(f'{x:.4f}' for x in meds)}"
                      f"{'  SECOND WORSE BEYOND BOUND' if worse else ''}")
                ok = ok and not worse
        failed = sum(r["result"]["failed"] for r in runs)
        if failed or not all(r["result"]["correct"] for r in runs):
            print(f"  {failed} failed operations")
            ok = False

    os.makedirs(".bench_build", exist_ok=True)
    path = os.path.join(".bench_build", f"steadiness-{int(time.time())}.json")
    with open(path, "w") as f:
        json.dump(raw, f, indent=1)
    print(f"\nraw results: {path}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
