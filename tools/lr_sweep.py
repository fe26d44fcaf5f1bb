"""The Littlewood-Richardson sweep on five letters, kept out of the test suite.

Runs the check of tests/test_ring.py, ring_product(s_lambda(lam),
s_lambda(nu)) against the sum of s_lambda(mu) added c^mu_{lam nu} times, on
all 32 signatures of 5 letters and every pair of nonempty shapes with
|lam|, |nu| <= 5 and |lam| + |nu| <= 8: 6,560 cases, about 40 s.  The
coefficients come from tests/oracles.py, which imports nothing from the
package.  Prints the case and difference counts and the first differences,
and exits 1 on any difference.

Run from anywhere, with click, pytest and hypothesis installed:

    python3 tools/lr_sweep.py
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from test_ring import lr_differences  # noqa: E402


def main() -> int:
    cases, differ = lr_differences(5, 5, 8)
    print("cases %d, differences %d" % (cases, len(differ)))
    for signature, lam, nu in differ[:10]:
        print("differs: signature %s, lambda %s, nu %s" % (signature, lam, nu))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
