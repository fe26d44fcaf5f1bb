#!/usr/bin/env python3
"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Run from the root of a checkout.  It shows that

  * the oracles agree with brute force on small cases, without the library;
  * every output check can fail: each workload is run with one check at a
    time given a wrong expected value, and must then report failures;
  * the inputs and their counts repeat exactly for one seed, and the
    inputs change for another (counts too, where they are not pinned);
  * the span recorder binds wrappers only while installed, restores every
    original binding, and derives consistent self times;
  * an untraced run carries no wrapper, the metric names and units match
    BENCHMARK.json, and the runner refuses to run without the sources.

Takes about ten seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from itertools import combinations_with_replacement
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, Checks  # noqa: E402

lib = run.load_library()

# Items per self-test pass: enough to reach every check (the first
# plactic_words item computes a class, the first 12 pieri_cli items are the
# whole grid, and the probe's first census is complete after 8,361).
SHORT = {"plactic_words": 40, "rsk_roundtrip": 4, "symmetry_probe": 8361, "pieri_cli": 12}


def _standard_fillings(shape):
    """Count by removing the largest entry from each corner in turn."""
    if not any(shape):
        return 1
    total = 0
    for i, part in enumerate(shape):
        if part and (i + 1 == len(shape) or shape[i + 1] < part):
            total += _standard_fillings(shape[:i] + (part - 1,) + shape[i + 1:])
    return total


def check_oracles():
    for n in range(1, 8):
        for shape in oracles.partitions(n):
            assert oracles.hook_count(shape) == _standard_fillings(shape), shape
            assert oracles.conjugate(oracles.conjugate(shape)) == shape
    for lam in [(), (1,), (2, 1), (3, 1, 1)]:
        for p in range(4):
            size = sum(lam) + p
            for mode in ("row", "col"):
                want = set()
                for mu in oracles.partitions(size):
                    padded = lam + (0,) * (len(mu) - len(lam))
                    if len(mu) < len(lam) or any(m < l for m, l in zip(mu, padded)):
                        continue
                    cells = [(i, j) for i, m in enumerate(mu) for j in range(padded[i], m)]
                    key = 1 if mode == "row" else 0
                    if len({c[key] for c in cells}) == len(cells):
                        want.add(mu)
                assert oracles.strip_shapes(lam, p, mode) == want, (lam, p, mode)
    for top, bottom in [((0, 1), (1, 0)), ((0, 0, 1), (0, 1)), ((1,), (1, 1))]:
        letters = [(a, b) for b in range(len(bottom)) for a in range(len(top))]
        odd = {ab for ab in letters if (top[ab[0]] + bottom[ab[1]]) % 2}
        for m in range(4):
            arrays = [c for k in range(m + 1) for c in combinations_with_replacement(letters, k)
                      if all(c.count(ab) <= 1 for ab in odd)]
            hypothesis = sum(1 for c in arrays if not odd.intersection(c)) if oracles.aligned(top, bottom) else 0
            columns = sum(len(c) for c in arrays)
            odd_bottom = sum(bottom[b] for c in arrays for _, b in c)
            assert oracles.census_counts(top, bottom, m) == (len(arrays), hypothesis, columns, odd_bottom)
    assert oracles.fits_hook((3, 3, 2), 2, 1) is False and oracles.fits_hook((3, 3, 1), 2, 1) is True
    assert oracles.is_super_semistandard([[0, 0, 1], [1]], (0, 1))
    assert not oracles.is_super_semistandard([[1, 1]], (0, 1))


def _short_pass(name, checks, seed=1):
    with tempfile.TemporaryDirectory(prefix=".run-", dir=BENCH_DIR) as workdir:
        workload = WORKLOADS[name](lib, seed, workdir)
        return workload.run(lambda done: done >= SHORT[name], checks)


def check_every_check_can_fail():
    for name, cls in WORKLOADS.items():
        clean = _short_pass(name, Checks())
        assert clean.attempted >= SHORT[name] and clean.failed == 0, (name, clean.failed, clean.errors)
        for check in cls.checks:
            tampered = _short_pass(name, Checks(tamper={check}))
            assert tampered.failed > 0, "%s: check %r never failed" % (name, check)
            print("  %s: check %-22s failed_frac %.3f with a wrong expected value"
                  % (name, check, tampered.failed / tampered.attempted))


def _fingerprint(workload):
    """The generated inputs, in plain values."""
    if hasattr(workload, "pairs"):
        return [(t.letters, t.parities, b.letters, b.parities) for t, b in workload.pairs]
    out = []
    for item in workload.pool:
        if hasattr(item, "pairs"):
            out.append(item.pairs)
        elif isinstance(item[0], list):
            out.append((item[0][:7], Path(item[0][8]).read_text()))
        else:
            out.append(item[0].letters)
    return out


def check_input_counts_repeat():
    # Counts that the design pins stay equal across seeds: the rsk sizes
    # and column-insert share, the probe's exhaustive censuses, the Pieri
    # grid.  The inputs themselves must still change with the seed.
    sampled = {"plactic_words"}
    for name in WORKLOADS:
        runs = {}
        for label, seed in (("first", 1), ("again", 1), ("other", 2)):
            with tempfile.TemporaryDirectory(prefix=".run-", dir=BENCH_DIR) as workdir:
                workload = WORKLOADS[name](lib, seed, workdir)
                runs[label] = (workload.input_stats(), _fingerprint(workload))
        assert runs["first"] == runs["again"], name
        assert runs["first"][1] != runs["other"][1], "%s: inputs do not depend on the seed" % name
        changed = sorted(k for k, v in runs["first"][0].items() if runs["other"][0][k] != v)
        assert bool(changed) == (name in sampled), (name, changed)
        print("  %s: seed 1 repeats; seed 2 changes the inputs and counts %s"
              % (name, changed or "none (pinned by design)"))


def _bindings():
    out = {}
    for module in spans._library_modules():
        for attr, value in vars(module).items():
            out[(module.__name__, attr)] = value
    out[("SignedAlphabet", "to_indices")] = vars(lib.SignedAlphabet)["to_indices"]
    return out


def check_tracer_binds_and_restores():
    import superplactic.cli  # noqa: F401  (its names are rebound too)

    before = _bindings()
    assert spans.count_wrappers() == 0
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert spans.count_wrappers() > 0
        for module_name in ("superplactic", "superplactic.rsk", "superplactic.cli"):
            module = sys.modules[module_name]
            assert getattr(getattr(module, "rsk_forward"), spans.MARK, False), module_name
        assert getattr(vars(lib.SignedAlphabet)["to_indices"], spans.MARK, False)
        tracer.item = 1
        top, bottom = (lib.make_alphabet("ab", p) for p in ((0, 1), (0, 1)))
        report = lib.symmetry_probe(top, bottom, 2)
    finally:
        tracer.uninstall()
    assert spans.count_wrappers() == 0
    after = _bindings()
    assert all(after[k] is v for k, v in before.items()), "a binding was not restored"

    fns = tracer.summary()
    assert fns["rsk.rsk_forward"]["calls"] == 2 * report.total
    assert fns["rsk.enumerate_arrays"]["yielded"] == report.total
    assert fns["rsk.symmetry_probe"]["calls"] == 1
    names = tracer.names
    for sid in range(tracer.spans()):
        parent = tracer.parent[sid]
        assert tracer.start[sid] <= tracer.end[sid]
        assert tracer.item_of[sid] == 1
        if names[tracer.name[sid]] == "rsk.rsk_forward":
            assert names[tracer.name[parent]] == "rsk.has_symmetry"
        if parent >= 0:
            assert tracer.start[parent] <= tracer.start[sid] and tracer.end[sid] <= tracer.end[parent]
    top_level = sum(tracer.end[s] - tracer.start[s] for s in range(tracer.spans()) if tracer.parent[s] < 0)
    self_total = sum(entry["self_s"] for entry in fns.values())
    assert abs(top_level - self_total) < 1e-6, (top_level, self_total)
    assert all(entry["self_s"] > -1e-9 for entry in fns.values())


def _run(args, cwd):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def check_runs_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        proc = _run(["--workload", "pieri_cli", "--seed", "3", "--seconds", "1", "--trace", trace], ROOT)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        info = json.loads(lines[0][len("# run "):])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == want, (trace, sorted(set(got) ^ set(want)))
        if trace == "0":
            assert info["wrappers_bound"] == 0
        for field in ("python", "nproc", "git_sha", "seed", "items"):
            assert field in info, field


def check_refuses_without_sources():
    with tempfile.TemporaryDirectory(prefix=".run-", dir=BENCH_DIR) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, Path(bare) / "perfbench",
                        ignore=shutil.ignore_patterns(".run-*", "__pycache__"))
        proc = _run(["--workload", "pieri_cli", "--seed", "1", "--seconds", "1", "--trace", "0"], bare)
        assert proc.returncode != 0
        assert not proc.stdout.strip(), proc.stdout


def main() -> int:
    failures = 0
    for name, fn in list(globals().items()):
        if name.startswith("check_") and callable(fn):
            try:
                fn()
            except AssertionError as exc:
                failures += 1
                print("FAIL %s: %s" % (name, exc))
            else:
                print("PASS %s" % name)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
