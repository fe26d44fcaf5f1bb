#!/usr/bin/env python3
"""Seeded benchmark of superplactic: four closed-loop workloads, one caller.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ./src.

--trace 0 measures the end-to-end metrics: set-up time (the median of
several fresh interpreters, each importing the library, building the
inputs and running one warm-up item); throughput and item latency, from
passes over a fixed list of items repeated for S seconds, each item
keeping its best time; and peak resident memory.

--trace 1 gives the per-layer metrics: it runs one pass untraced, one
pass (set-up included) with every public layer function wrapped in a
span recorder, and one more untraced, and reports call counts, self
times, the tracing overhead and the input counts.

Every output is checked against the benchmark's own oracles.  Lines
starting with "#" describe the run; the last line is one JSON object
with "correct", "attempted", "failed" and "metrics".
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import spans  # noqa: E402
from workloads import WORKLOADS, Checks  # noqa: E402

SETUP_REPEATS = 5
TAIL_PER_MILLE = (900, 990, 999)
TAIL_BEYOND = 10


def load_library():
    """Import superplactic from this checkout's src/, and only from there."""
    package = ROOT / "src" / "superplactic"
    if not (package / "__init__.py").is_file():
        sys.exit("perfbench: %s not found; run from a checkout of the repository" % package)
    sys.path.insert(0, str(package.parent))
    import superplactic

    if Path(superplactic.__file__).resolve().parent != package.resolve():
        sys.exit("perfbench: imported superplactic from %s, not %s" % (superplactic.__file__, package))
    return superplactic


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def setup_probe(name: str, seed: int) -> None:
    """Child side of the set-up measurement: set up, warm up, report the
    monotonic clock (shared by all processes of the machine)."""
    lib = load_library()
    with tempfile.TemporaryDirectory(prefix=".run-", dir=BENCH_DIR) as workdir:
        WORKLOADS[name](lib, seed, workdir).warm_up()
        print(repr(time.monotonic()), flush=True)


def measure_setup(name: str, seed: int) -> list[float]:
    """Seconds from starting a fresh interpreter until it could begin timing."""
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            capture_output=True, text=True, timeout=170, cwd=ROOT)
        if proc.returncode != 0:
            sys.exit("perfbench: set-up probe failed:\n" + proc.stderr)
        samples.append(float(proc.stdout.split()[-1]) - t0)
    return samples


def tail(durations):
    """Highest percentile of the ladder with at least TAIL_BEYOND samples
    beyond it: (percentile, samples beyond, value), nearest-rank."""
    ordered = sorted(durations)
    n = len(ordered)
    per_mille, rank = 500, -(-n // 2)
    for pm in TAIL_PER_MILLE:
        r = -(-pm * n // 1000)
        if n - r >= TAIL_BEYOND:
            per_mille, rank = pm, r
    return per_mille / 10, n - rank, ordered[rank - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def best_of_passes(workload, seconds):
    """Repeat passes over the same items for `seconds`; each item keeps
    its best time.  The machine's speed drifts by tens of percent over
    seconds, and an item's best time over passes spread across the run is
    far steadier than any statistic of a single pass.  Each CPU can also
    run slower than the other for a whole run, so consecutive passes run
    on each CPU this process may use in turn."""
    per_pass = workload.pass_items
    cpus = sorted(os.sched_getaffinity(0))
    deadline = time.perf_counter() + seconds
    best, works, passes, attempted, failed, errors = [], [], 0, 0, 0, []
    try:
        while time.perf_counter() < deadline:
            os.sched_setaffinity(0, {cpus[passes % len(cpus)]})
            tally = workload.run(
                lambda done: done >= per_pass or time.perf_counter() >= deadline, Checks())
            passes += 1
            attempted += tally.attempted
            failed += tally.failed
            errors += tally.errors
            for j, seconds_j in enumerate(tally.durations):
                if j < len(best):
                    best[j] = min(best[j], seconds_j)
                else:
                    best.append(seconds_j)
                    works.append(tally.works[j])
    finally:
        os.sched_setaffinity(0, cpus)
    return best, works, passes, attempted, failed, errors


def end_to_end(lib, name, seed, seconds, workdir):
    setup_samples = measure_setup(name, seed)
    workload = WORKLOADS[name](lib, seed, workdir)
    workload.warm_up()
    bound = spans.count_wrappers()
    if bound:
        sys.exit("perfbench: %d tracing wrappers bound in an untraced run" % bound)
    best, works, passes, attempted, failed, errors = best_of_passes(workload, seconds)
    pct, beyond, tail_s = tail(best)
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "throughput": (sum(works) / sum(best), "1/s"),
        "item_ms.p50": (statistics.median(best) * 1e3, "ms"),
        "item_ms.tail": (tail_s * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    info = {
        "setup_samples_s": [round(s, 4) for s in setup_samples],
        "throughput_counts": workload.unit,
        "passes": passes,
        "items_per_pass": len(best),
        "tail": {"percentile": pct, "samples_beyond": beyond, "samples": len(best)},
        "wrappers_bound": bound,
    }
    return attempted, failed, errors, metrics, info, workload.input_stats()


def _ratio(a, b):
    return a / b if b else 0.0


def per_layer(lib, name, seed, seconds, workdir):
    workload = WORKLOADS[name](lib, seed, workdir)
    workload.warm_up()
    if spans.count_wrappers():
        sys.exit("perfbench: tracing wrappers bound before the untraced pass")
    items = workload.pass_items
    plain = [workload.run(lambda done: done >= items, Checks())]

    tracer = spans.Tracer()
    tracer.install()
    try:
        traced_dir = Path(workdir) / "traced"
        traced_dir.mkdir()
        traced_workload = WORKLOADS[name](lib, seed, traced_dir)
        traced_workload.warm_up()
        traced = traced_workload.run(lambda done: done >= items, Checks(), tracer)
    finally:
        tracer.uninstall()
    left = spans.count_wrappers()
    if left:
        sys.exit("perfbench: %d tracing wrappers left bound after the traced pass" % left)
    # Untraced passes before and after the traced one, so that warming up
    # does not count as tracing overhead.
    plain.append(workload.run(lambda done: done >= items, Checks()))
    plain_s = statistics.mean(sum(t.durations) for t in plain)

    fns = tracer.summary()

    def fn(qualname, field="self_s"):
        return fns.get(qualname, {}).get(field, 0)

    layer_self = {layer: 0.0 for layer in spans.LAYERS}
    for qualname, entry in fns.items():
        layer_self[qualname.split(".")[0]] += entry["self_s"]

    metrics = {}
    for qualname in SELF_TIMES:
        metrics[qualname + ".self_s"] = (fn(qualname), "s")
    for qualname in CALL_COUNTS:
        metrics[qualname + ".calls"] = (fn(qualname, "calls"), "count")
    for layer in spans.LAYERS:
        metrics[layer + ".self_s"] = (layer_self[layer], "s")
    strips = fn("shape.is_horizontal_strip", "counted") + fn("shape.is_vertical_strip", "counted")
    metrics["shape.strip_hit_ratio"] = (_ratio(strips, fn("shape.partitions", "yielded")), "ratio")
    metrics["tableau.enumerate_tableaux.yielded"] = (fn("tableau.enumerate_tableaux", "yielded"), "count")
    metrics["plactic.class_members"] = (fn("plactic.plactic_class", "counted"), "count")
    metrics["rsk.forward_per_array"] = (
        _ratio(fn("rsk.rsk_forward", "calls"), fn("rsk.enumerate_arrays", "yielded")), "ratio")
    metrics["trace.overhead_frac"] = (sum(traced.durations) / plain_s - 1.0, "ratio")
    metrics["trace.items"] = (traced.attempted, "count")
    metrics["trace.spans"] = (tracer.spans(), "count")

    passes = plain + [traced]
    attempted = sum(t.attempted for t in passes)
    failed = sum(t.failed for t in passes)
    errors = [e for t in passes for e in t.errors]
    return attempted, failed, errors, metrics, {"traced_items": items}, workload.input_stats()


SELF_TIMES = (
    "alphabet.to_indices", "shape.partitions", "tableau.enumerate_tableaux",
    "tableau.check_tableau", "bumping.tableau_of_word", "plactic.greene_profile",
    "plactic.plactic_class", "rsk.validate_array", "rsk.rsk_forward", "rsk.rsk_inverse",
    "rsk.has_symmetry", "rsk.array_involution", "rsk.enumerate_arrays", "rsk.symmetry_probe",
    "ring.pieri_check", "ring.ring_product", "ring.s_lambda", "cli.main",
)
CALL_COUNTS = (
    "bumping.tableau_of_word", "plactic.greene_profile", "plactic.plactic_class",
    "rsk.rsk_forward", "rsk.rsk_inverse", "ring.ring_product",
)
INPUT_UNITS = {"col_insert_share": "ratio"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    lib = load_library()
    with tempfile.TemporaryDirectory(prefix=".run-", dir=BENCH_DIR) as workdir:
        measure = per_layer if args.trace else end_to_end
        attempted, failed, errors, metrics, info, inputs = measure(
            lib, args.workload, args.seed, args.seconds, workdir)

    if args.trace:
        for key, value in inputs.items():
            metrics["input." + key] = (value, INPUT_UNITS.get(key, "count"))
    run = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "items": attempted,
        "failed_frac": failed / max(1, attempted),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "input": inputs,
        **info,
    }
    print("# run " + json.dumps(run, sort_keys=True))
    for text in errors:
        print("# error\n# " + text.replace("\n", "\n# "))
    for key, (value, unit) in metrics.items():
        print("# %-36s %14.6g %s" % (key, value, unit))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
