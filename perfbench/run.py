"""actalab benchmark: exhaustive sweeps timed end to end and layer by layer.

Run from the root of the repository:

    python3 perfbench/run.py --workload schema_sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all --seed 1          # every workload, one process each
    python3 perfbench/run.py --regen-classes         # rewrite perfbench/iso_classes.json

One run sets the workload up several times from the seed, in batches when
one set-up is short (the median time per set-up is ``setup_s``), then
repeats whole sweeps for about ``--seconds``: it stops when one more
sweep, as long as the last, would overrun.
The first sweep's outputs are checked; every later sweep must reproduce
them.  With ``--trace 0`` the last line of standard output is a JSON
object with the end-to-end metrics; with ``--trace 1`` sweeps alternate
between untraced and traced, and the JSON carries the per-layer metrics
and the tracing overhead.  Spans of the traced run are written under
``perfbench/runs/``.
"""

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = HERE / "runs"

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOAD_NAMES = [w["name"] for w in BENCH["workloads"]]

# setup_s is the median time per set-up over several samples.  A sample is
# one set-up, or a batch of set-ups that lasts about SETUP_BATCH_SECONDS
# when one set-up is shorter.  When a sample takes under a tenth of the run,
# one sample comes before the first sweep and one after every sweep, so that
# the samples span the run as the sweeps do: the machine's speed drifts over
# seconds, and samples taken in one stretch spread far more from run to run.
# Otherwise the run takes SETUP_MIN_SAMPLES samples before the first sweep.
SETUP_BATCH_SECONDS = 0.2
SETUP_MIN_SAMPLES = 3


def tail_percentile(n_items):
    """The highest whole percentile with at least ten of n items beyond it."""
    return max(50, math.floor(100 * (1 - 10 / n_items)))


def percentile(values, pct):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def clear_caches(modules):
    """Empty every functools cache of the program, so each sweep starts cold."""
    for mod in modules:
        for value in vars(mod).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def measure(name, seed, seconds, trace):
    import tracing

    # one CPU for the whole run: the cores of a shared machine differ in speed
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    from workloads import Round, WORKLOADS

    program = [m for n, m in sys.modules.items() if n == "actalab" or n.startswith("actalab.")]
    setup, sweep = WORKLOADS[name]
    workdir = RUNS / f"work-{name}-{os.getpid()}"
    errors, failures = [], []
    try:
        setup_tracer = tracing.Tracer() if trace else None
        if setup_tracer:
            setup_tracer.install()
        t0 = perf_counter()
        try:
            inputs = setup(seed, workdir)
        finally:
            first = perf_counter() - t0
            if setup_tracer:
                setup_tracer.uninstall()
        batch = 1 if trace else max(1, math.ceil(SETUP_BATCH_SECONDS / first))
        # a lone first set-up of a batched workload is not a sample
        setup_times = [first] if batch == 1 else []

        def time_setup():
            t0 = perf_counter()
            for _ in range(batch):
                result = setup(seed, workdir)
            setup_times.append((perf_counter() - t0) / batch)
            return result

        spread_setups = not trace and first * batch < seconds / 10
        # every new set-up replaces the inputs, so that, as in a single
        # command, one copy of them is alive at a time
        while not trace and len(setup_times) < (1 if spread_setups else SETUP_MIN_SAMPLES):
            inputs = None
            inputs = time_setup()

        rounds, tracers = [], []
        start = perf_counter()
        while True:
            began = perf_counter()
            traced = trace and len(rounds) % 2 == 1
            tracer = tracing.Tracer() if traced else None
            clear_caches(program)
            rnd = Round(tracer)
            if tracer:
                tracer.install()
            try:
                errs = sweep(inputs, rnd, check=not rounds)
            finally:
                if tracer:
                    tracer.uninstall()
            errors.extend(errs)
            failures.extend(rnd.errors)
            if rounds and rnd.digest != rounds[0][0].digest:
                errors.append(f"sweep {len(rounds) + 1} differs from the checked first sweep")
            rounds.append((rnd, traced))
            if tracer:
                tracers.append(tracer)
            if spread_setups:
                inputs = None
                inputs = time_setup()
            # stop when one more sweep, as long as the last, would overrun
            now = perf_counter()
            if now - start + (now - began) > seconds and (not trace or tracers):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    plain = [rnd for rnd, traced in rounds if not traced]
    items = [t for rnd in plain for t in rnd.items]
    per_round = len(plain[0].items)
    tail = tail_percentile(per_round)
    attempted = sum(rnd.attempted for rnd, _ in rounds)
    failed = sum(rnd.failed for rnd, _ in rounds)
    sweep_s = statistics.median(rnd.sweep_s for rnd in plain)
    summary = {
        "workload": name, "seed": seed, "sweeps": len(rounds),
        "items_per_sweep": per_round, "tail_percentile": tail,
        "sweep_s_each": [round(r.sweep_s, 4) for r in plain],
        "setup_batch": batch, "setup_s_each": [float(f"{t:.4g}") for t in setup_times],
    }
    if not trace:
        values = {
            "setup_s": statistics.median(setup_times),
            "sweep_s": sweep_s,
            "item_p50_ms": 1e3 * statistics.median(items),
            "item_tail_ms": 1e3 * percentile(items, tail),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        catalogue = BENCH["end_to_end"]
    else:
        counts = [tr.counts for tr in tracers]
        if any(c != counts[0] for c in counts):
            errors.append("traced sweeps disagree on their layer counts")
        values = tracing.layer_metrics([setup_tracer, tracers[0]])
        traced_s = statistics.median(rnd.sweep_s for rnd, t in rounds if t)
        # each traced sweep against the untraced sweeps on either side of
        # it, so that a slow spell of the machine does not pass for overhead
        values["trace.overhead_ratio"] = statistics.median(
            rnd.sweep_s / statistics.mean(
                rounds[j][0].sweep_s for j in (i - 1, i + 1) if j < len(rounds))
            for i, (rnd, t) in enumerate(rounds) if t
        )
        catalogue = BENCH["per_layer"]
        summary.update(write_trace(name, seed, setup_tracer, tracers[0], traced_s, sweep_s))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in catalogue}
    for line in (errors + failures)[:20]:
        print(f"error: {line}", file=sys.stderr)
    print(json.dumps(summary), file=sys.stderr)
    return {"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}


def write_trace(name, seed, setup_tracer, sweep_tracer, traced_s, sweep_s):
    """Write the spans and a self-time summary of one traced run."""
    RUNS.mkdir(exist_ok=True)
    stem = RUNS / f"trace-{name}-seed{seed}"
    setup_tracer.write(f"{stem}-setup.tsv")
    sweep_tracer.write(f"{stem}-sweep.tsv")
    sweep_self = sweep_tracer.self_times()
    total = sum(sweep_self.values())
    shares = {k: v / total for k, v in sorted(sweep_self.items(), key=lambda kv: -kv[1])}
    summary = {
        "traced_sweep_s": traced_s, "untraced_sweep_s": sweep_s,
        "sweep_self_share": shares,
        "setup_self_s": setup_tracer.self_times(),
        "setup_counts": setup_tracer.counts,
        "sweep_counts": sweep_tracer.counts,
    }
    Path(f"{stem}.json").write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    return {"trace_file": str(stem.relative_to(ROOT)) + ".json",
            "sweep_self_share": {k: round(v, 4) for k, v in shares.items()}}


def run_in_process(name, seed, seconds, trace):
    """Run one workload in a fresh process: (JSON result, None) or (None, error)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, f"exit {proc.returncode}\n{proc.stderr}"
    return json.loads(lines[-1]), None


def run_all(seed, seconds, trace):
    """Every workload in its own process, one after the other."""
    ok = True
    for name in WORKLOAD_NAMES:
        result, error = run_in_process(name, seed, seconds, trace)
        if error:
            print(f"{name}: {error}")
            ok = False
            continue
        ok = ok and result["correct"] and result["failed"] == 0
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:32s} {m['value']:>14.6g} {m['unit']}")
    return 0 if ok else 1


def regen_classes():
    """Recompute perfbench/iso_classes.json from the non-distinct stream."""
    from workloads import ENUM_MAX_SIZE, ENUM_MONOIDS, ISO_CLASSES, iso_class_counts, load_monoid

    classes = {}
    for family, params in ENUM_MONOIDS:
        M = load_monoid(family, params)
        classes[M.name] = iso_class_counts(M, ENUM_MAX_SIZE)
    data = {
        "about": "isomorphism classes of left acts per carrier size; "
                 "regenerate with: python3 perfbench/run.py --regen-classes",
        "max_size": ENUM_MAX_SIZE,
        "classes": classes,
    }
    ISO_CLASSES.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(classes))
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=BENCH["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--all", action="store_true", help="run every workload")
    p.add_argument("--regen-classes", action="store_true")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    # measure the checkout's own source, never an installed copy
    if not (ROOT / "src" / "actalab" / "__init__.py").is_file():
        print(f"error: no actalab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.regen_classes:
        return regen_classes()
    if args.all:
        return run_all(args.seed, args.seconds, args.trace)
    if args.workload is None:
        p.error("give --workload, --all or --regen-classes")
    result = measure(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0 if result["correct"] and result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
