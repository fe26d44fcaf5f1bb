"""The Greene equivalence sweep, kept out of the test suite.

Checks greene_profile, in row and column mode, against the partial sums of
the shape (row mode) and of its conjugate (column mode) of the insertion
tableau from tests/oracles.py, which imports nothing from the package:

  * every word over every signature of 1-4 letters, of length up to 9, 8,
    7 and 6 respectively, at k = 4: 115,680 words;
  * 300 seeded random words of up to 30 letters over alphabets of up to 30
    letters, each at k = 0..8: 2,700 cases.

Each case is checked in both modes.  Prints the case and difference counts
and the first differences, and exits 1 on any difference.

Run from anywhere; it needs nothing beyond the standard library:

    python3 tools/greene_sweep.py
"""

import itertools
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from oracles import all_signatures, insertion_tableau  # noqa: E402
from superplactic import Word, greene_profile, make_alphabet  # noqa: E402

MAX_LEN = {1: 9, 2: 8, 3: 7, 4: 6}


def cases():
    """(word, k) for every case of the sweep."""
    for size, max_len in MAX_LEN.items():
        for sig in all_signatures(size):
            alphabet = make_alphabet([str(i + 1) for i in range(size)], list(sig))
            for length in range(max_len + 1):
                for xs in itertools.product(range(size), repeat=length):
                    yield Word.from_indices(alphabet, xs), 4
    rng = random.Random(7)
    for _ in range(300):
        size = rng.randint(1, 30)
        alphabet = make_alphabet([str(i + 1) for i in range(size)], [rng.randint(0, 1) for _ in range(size)])
        w = Word.from_indices(alphabet, [rng.randrange(size) for _ in range(rng.randint(0, 30))])
        for k in range(9):
            yield w, k


def main() -> int:
    count, differ = 0, []
    for w, k in cases():
        count += 1
        lam = [len(row) for row in insertion_tableau(w.letters, w.alphabet.parities)]
        conj = [sum(1 for part in lam if part > j) for j in range(lam[0] if lam else 0)]
        for mode, parts in (("row", lam), ("col", conj)):
            if greene_profile(w, k, mode) != tuple(sum(parts[:j]) for j in range(1, k + 1)):
                differ.append((w.alphabet.parities, w.letters, k, mode))
    print("cases %d, differences %d" % (count, len(differ)))
    for parities, letters, k, mode in differ[:10]:
        print("differs: parities %s, letters %s, k %d, mode %s" % (parities, letters, k, mode))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
