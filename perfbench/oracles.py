"""Expected values for the benchmark's output checks.

Nothing here imports superplactic: every expected value is computed from
textbook formulas, so a defect in the library cannot also hide in its
own check.

  * hook_count: the hook-length formula for standard fillings of a shape,
    which is the size of the plactic class of any word with that shape.
  * partial_sums / conjugate: Greene's theorem gives the row (column)
    invariants as partial sums of the shape (its conjugate).
  * census_counts: coefficient sums of (1-x)^-E (1+x)^O, the generating
    function of two-rowed arrays over E repeatable (even) and O
    at-most-once (odd) pair letters.
  * strip_shapes / fits_hook: the shapes a Pieri product may reach, and
    the Berele-Regev hook condition that decides whether a shape has any
    tableau over m even and n odd letters.
  * insertion_tableau: super Schensted row insertion, written out.
  * is_super_semistandard: the row and column conditions, written out.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from math import comb, factorial


def partitions(n, cap=None):
    """Partitions of n with parts at most cap, largest part first."""
    cap = n if cap is None else cap
    if n == 0:
        yield ()
    for first in range(min(n, cap), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def conjugate(shape):
    """Transpose of a partition given as weakly decreasing parts."""
    if not shape:
        return ()
    return tuple(sum(1 for part in shape if part > j) for j in range(shape[0]))


def partial_sums(shape, k):
    """(s_1, ..., s_k) with s_i the sum of the first i parts, zero padded."""
    out, run = [], 0
    for i in range(k):
        run += shape[i] if i < len(shape) else 0
        out.append(run)
    return tuple(out)


def hook_count(shape):
    """Standard fillings of a shape: n! over the product of the hooks."""
    cols = conjugate(shape)
    denom = 1
    for i, row in enumerate(shape):
        for j in range(row):
            denom *= (row - j - 1) + (cols[j] - i - 1) + 1
    return factorial(sum(shape)) // denom


def _coefficients(even, odd, max_cols):
    """[x^k] (1-x)^-even (1+x)^odd for k = 0..max_cols."""
    return [
        sum(comb(odd, j) * comb(k - j + even - 1, even - 1) for j in range(min(odd, k) + 1))
        if even else comb(odd, k)
        for k in range(max_cols + 1)
    ]


def census_counts(top_parities, bottom_parities, max_cols):
    """Exact counts over every valid array with at most max_cols columns.

    Returns (arrays, hypothesis_arrays, columns, odd_bottom_columns):
    hypothesis_arrays counts arrays whose columns all have pair parity 0
    when the two alphabets have aligned parity blocks, and is 0 otherwise;
    the last two sum the columns over all arrays, and those among them
    whose bottom letter is odd.  A column count is the derivative of the
    generating function in that pair's variable at 1: x/(1-x) times the
    whole series for an even pair, x (1+x)^(O-1) (1-x)^-E for an odd one.
    """
    pairs = [(pa + pb) % 2 for pb in bottom_parities for pa in top_parities]
    bottoms = [pb for pb in bottom_parities for _ in top_parities]
    even = pairs.count(0)
    odd = pairs.count(1)
    arrays = sum(_coefficients(even, odd, max_cols))
    hypothesis = sum(_coefficients(even, 0, max_cols)) if aligned(top_parities, bottom_parities) else 0
    per_even = sum(_coefficients(even + 1, odd, max_cols - 1)) if max_cols else 0
    per_odd = sum(_coefficients(even, odd - 1, max_cols - 1)) if max_cols and odd else 0
    columns = even * per_even + odd * per_odd
    odd_bottom = sum(
        per_odd if parity else per_even
        for parity, bottom in zip(pairs, bottoms) if bottom == 1
    )
    return arrays, hypothesis, columns, odd_bottom


def aligned(top_parities, bottom_parities):
    """Both alphabets list all parity-0 letters first, or both all parity-1
    letters first: the hypothesis of the symmetry theorem."""
    def blocks_first(parities, first):
        return list(parities) == sorted(parities, key=lambda p: p != first)

    return any(blocks_first(top_parities, f) and blocks_first(bottom_parities, f) for f in (0, 1))


def _horizontal_strips(lam, p):
    """Shapes mu containing lam with p more cells, no two in one column."""
    lam = tuple(lam) + (0,)
    out = []

    def grow(i, left, acc):
        if i == len(lam):
            if left == 0:
                out.append(tuple(part for part in acc if part))
            return
        cap = left if i == 0 else min(left, lam[i - 1] - lam[i])
        for extra in range(cap, -1, -1):
            grow(i + 1, left - extra, acc + [lam[i] + extra])

    grow(0, p, [])
    return out


def strip_shapes(lam, p, mode):
    """Shapes reached from lam by a horizontal (mode "row") or vertical
    (mode "col") strip of p cells."""
    if mode == "row":
        return set(_horizontal_strips(tuple(lam), p))
    return {conjugate(mu) for mu in _horizontal_strips(conjugate(tuple(lam)), p)}


def fits_hook(shape, even, odd):
    """Whether some tableau of this shape exists over `even` parity-0 and
    `odd` parity-1 letters: the shape must fit the (even, odd) hook."""
    return len(shape) <= even or shape[even] <= odd


def insertion_tableau(letters, parities):
    """Rows of the tableau of a word: each letter is row inserted, a
    parity-0 letter bumping the leftmost entry strictly greater than it,
    a parity-1 letter the leftmost entry greater or equal."""
    rows = []
    for x in letters:
        for row in rows:
            j = bisect_right(row, x) if parities[x] == 0 else bisect_left(row, x)
            if j == len(row):
                row.append(x)
                break
            row[j], x = x, row[j]
        else:
            rows.append([x])
    return tuple(tuple(row) for row in rows)


def is_super_semistandard(rows, parities):
    """Rows weakly increase with ties only at parity 0, columns weakly
    increase with ties only at parity 1, and row lengths weakly decrease."""
    for upper, lower in zip(rows, rows[1:]):
        if len(lower) > len(upper):
            return False
        for a, b in zip(upper, lower):
            if a > b or (a == b and parities[a] != 1):
                return False
    for row in rows:
        if not row:
            return False
        for a, b in zip(row, row[1:]):
            if a > b or (a == b and parities[a] != 0):
                return False
    return True
