"""The symmetry census over whole families of signature pairs, kept out of
the test suite.

Runs `symmetry_probe` on every pair of signatures (top, bottom) of:
4 letters up to 4 columns (256 pairs); 2 and 3, 2 and 4, and 3 and 4
letters, either way round, up to 4 columns (448 pairs); and 5 letters up
to 3 columns (1,024 pairs).  For each pair it records the four cell counts
(hypotheses satisfied or not, symmetric or not) and, in each asymmetric
cell, the smallest array: the fewest columns, and the first of those in
the probe's order.  Every pair's total, and its count of arrays under the
hypotheses, is checked against `perfbench/oracles.census_counts`, the
array generating function, which imports nothing from the package.

Writes SYMMETRY_CENSUS.json to the working directory and prints, per
family, the arrays, the pairs and the pairs with no asymmetric array,
whether those are the pairs the README's observation names (both
alphabets constant, with the same constant, up to the parity of each
one's smallest letter), and the wall time.  Exits 1 if an array under the
theorem's hypotheses is asymmetric, or a total disagrees with the oracle.

Run from anywhere, with click installed:

    python3 tools/symmetry_census.py
"""

import itertools
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from oracles import census_counts  # noqa: E402
from superplactic import make_alphabet, symmetry_probe  # noqa: E402

# (top size, bottom size, max columns); the unequal sizes run either way round
FAMILIES = [(4, 4, 4), (2, 3, 4), (3, 2, 4), (2, 4, 4), (4, 2, 4), (3, 4, 4), (4, 3, 4), (5, 5, 3)]
CELLS = {
    (True, True): "hypothesis_symmetric",
    (True, False): "hypothesis_asymmetric",
    (False, True): "unrestricted_symmetric",
    (False, False): "unrestricted_asymmetric",
}


def census(top_parities, bottom_parities, max_cols):
    """The record of one pair, and whether its totals match the oracle."""
    top = make_alphabet([str(i + 1) for i in range(len(top_parities))], list(top_parities))
    bottom = make_alphabet([str(i + 1) for i in range(len(bottom_parities))], list(bottom_parities))
    smallest = {False: None, True: None}  # by hypothesis, among asymmetric arrays

    def sink(record):
        if not record["symmetric"]:
            hyp = record["hypothesis"]
            best = smallest[hyp]
            if best is None or len(record["top"]) < len(best["top"]):
                smallest[hyp] = {"top": record["top"], "bottom": record["bottom"]}

    report = symmetry_probe(top, bottom, max_cols, examples_per_cell=0, sink=sink)
    arrays, hypothesis, _, _ = census_counts(top_parities, bottom_parities, max_cols)
    counts = report.counts
    agrees = report.total == arrays and counts[(True, True)] + counts[(True, False)] == hypothesis
    return {
        "top": list(top_parities),
        "bottom": list(bottom_parities),
        "max_cols": max_cols,
        "total": report.total,
        "counts": {CELLS[key]: counts[key] for key in CELLS},
        "smallest_asymmetric": {CELLS[(hyp, False)]: smallest[hyp] for hyp in (True, False)},
    }, agrees


def conjectured(top_parities, bottom_parities):
    """Both alphabets constant, with the same constant, apart from the
    parity of each one's smallest letter."""
    return any(set(top_parities[1:]) <= {c} and set(bottom_parities[1:]) <= {c} for c in (0, 1))


def main() -> int:
    pairs = []
    failed = False
    for k, l, max_cols in FAMILIES:
        start = time.perf_counter()
        arrays = 0
        all_symmetric = set()
        expected = set()
        for top in itertools.product((0, 1), repeat=k):
            for bottom in itertools.product((0, 1), repeat=l):
                record, agrees = census(top, bottom, max_cols)
                pairs.append(record)
                arrays += record["total"]
                counts = record["counts"]
                if not agrees:
                    failed = True
                    print("oracle disagrees: top %s, bottom %s" % (top, bottom))
                if counts["hypothesis_asymmetric"]:
                    failed = True
                    print("theorem fails: top %s, bottom %s, %s" % (
                        top, bottom, record["smallest_asymmetric"]["hypothesis_asymmetric"]))
                if counts["hypothesis_asymmetric"] + counts["unrestricted_asymmetric"] == 0:
                    all_symmetric.add((top, bottom))
                if conjectured(top, bottom):
                    expected.add((top, bottom))
        print("%d x %d letters, up to %d columns: %d arrays over %d pairs, %d with no asymmetric array, "
              "%s the observation's pairs, %.1f s" % (
                  k, l, max_cols, arrays, 2 ** (k + l), len(all_symmetric),
                  "exactly" if all_symmetric == expected else "NOT", time.perf_counter() - start))
    with open("SYMMETRY_CENSUS.json", "w") as out:
        json.dump({"cells": list(CELLS.values()), "pairs": pairs}, out)
        out.write("\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
