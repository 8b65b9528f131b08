"""Steadiness of the benchmark: run workloads repeatedly, one seed per run,
and compare the spread of every end-to-end metric with its bound.

    python3 perfbench/steady.py --runs 10                    # every workload
    python3 perfbench/steady.py --runs 5 --workload tossing_sweep
    python3 perfbench/steady.py --runs 10 --sets 2           # also the drift between two sets

For each metric it prints the median, the quartiles (statistics.quantiles,
n=4), the spread (quartile distance over the median) and the bound from
BENCHMARK.json.  Every spread, setup_s included, must be within its bound;
one below a third of the bound is marked steady.  With two sets, the two
medians of every metric must agree within the bound, either way.  A run
with incorrect outputs or a failed item exits 1 and stops the check.  Runs
last BENCHMARK.json's run_seconds; seeds run from 1 upwards and every set
uses new seeds.  Raw results are written to perfbench/runs/steady-<time>.json.
"""

import argparse
import json
import statistics
import sys
import time

from run import BENCH, HERE, ROOT, WORKLOAD_NAMES, run_in_process


def run_once(name, seed):
    result, error = run_in_process(name, seed, BENCH["run_seconds"], 0)
    if error:
        raise SystemExit(f"{name} seed {seed}: {error}")
    return result


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3, (q3 - q1) / statistics.median(values)


def main(argv=None):
    p = argparse.ArgumentParser(description="steadiness of the end-to-end metrics")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--sets", type=int, choices=(1, 2), default=1)
    p.add_argument("--workload", action="append", choices=WORKLOAD_NAMES)
    args = p.parse_args(argv)
    if args.runs < 2:
        p.error("--runs must be at least 2")
    names = args.workload or WORKLOAD_NAMES
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    raw = {}
    ok = True
    seed = 1
    for name in names:
        sets = []
        for _ in range(args.sets):
            results = []
            for _ in range(args.runs):
                results.append(run_once(name, seed))
                seed += 1
            sets.append(results)
        raw[name] = sets
        print(f"{name}: {args.runs} runs x {args.sets} set(s)")
        print(f"  {'metric':14s} {'q1':>11s} {'median':>11s} {'q3':>11s} "
              f"{'spread':>8s} {'bound':>6s}  verdict")
        for metric, bound in bounds.items():
            medians = []
            for i, results in enumerate(sets):
                values = [r["metrics"][metric]["value"] for r in results]
                q1, med, q3, sp = spread(values)
                medians.append(med)
                verdict = "steady" if sp < bound / 3 else (
                    "within bound" if sp <= bound else "TOO WIDE")
                ok = ok and sp <= bound
                print(f"  {metric:14s} {q1:11.5g} {med:11.5g} {q3:11.5g} "
                      f"{sp:8.2%} {bound:6.0%}  set {i + 1}: {verdict}")
            if len(medians) == 2:
                drift = medians[1] / medians[0] - 1
                good = abs(drift) <= bound
                ok = ok and good
                print(f"  {metric:14s} drift of the median {drift:+.2%} "
                      f"({'ok' if good else 'BEYOND BOUND'})")
    out = HERE / "runs" / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(raw, indent=1) + "\n", encoding="utf-8")
    print(f"raw results: {out.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
