"""Independent reference implementations used to cross-check the package.

Everything in this module is deliberately written from first principles,
avoiding the code paths under test: plain scans instead of bisection,
explicit subset search instead of dynamic programming.
"""

import itertools
import math


def hook_length_count(lam):
    """Number of standard fillings of the diagram lam, by the hook formula."""
    lam = tuple(lam)
    n = sum(lam)
    if n == 0:
        return 1
    conj = [sum(1 for part in lam if part >= j) for j in range(1, lam[0] + 1)]
    hooks = 1
    for i, part in enumerate(lam, start=1):
        for j in range(1, part + 1):
            hooks *= (part - j) + (conj[j - 1] - i) + 1
    return math.factorial(n) // hooks


def classical_knuth_neighbors(xs):
    """Single classical Knuth moves on a tuple of integers.

    The two moves are xzy ~ zxy with x <= y < z and yxz ~ yzx with
    x < y <= z, applied at every window.
    """
    out = set()
    for p in range(len(xs) - 2):
        a, b, c = xs[p], xs[p + 1], xs[p + 2]
        if (a <= c < b) or (b <= c < a):
            out.add(xs[:p] + (b, a, c) + xs[p + 3:])
        if (b < a <= c) or (c < a <= b):
            out.add(xs[:p] + (a, c, b) + xs[p + 3:])
    return out


def signed_knuth_neighbors(xs, parities):
    """Single signed Knuth moves on a tuple of letter indices.

    For letters x <= y <= z the moves are xzy ~ zxy, allowed with x = y
    only when y has parity 0 and with y = z only when y has parity 1, and
    yxz ~ yzx, allowed with x = y only when y has parity 1 and with y = z
    only when y has parity 0.  Every window is matched against both sides
    of both moves for every ordered triple of its letters.
    """
    def allowed(x, y, z, parity_if_x_is_y, parity_if_y_is_z):
        return ((x < y or parities[y] == parity_if_x_is_y)
                and (y < z or parities[y] == parity_if_y_is_z))

    out = set()
    for p in range(len(xs) - 2):
        window = xs[p:p + 3]
        for x, y, z in itertools.combinations_with_replacement(sorted(set(window)), 3):
            sides = []
            if allowed(x, y, z, 0, 1):
                sides.append(((x, z, y), (z, x, y)))
            if allowed(x, y, z, 1, 0):
                sides.append(((y, x, z), (y, z, x)))
            for left, right in sides:
                if window == left:
                    out.add(xs[:p] + right + xs[p + 3:])
                if window == right:
                    out.add(xs[:p] + left + xs[p + 3:])
    return out


def greene_family_max(word, k, mode):
    """Largest total size of k disjoint row (or column) subwords of word.

    Literal search: enumerate every index subset that reads as a word of
    the requested kind, then try every family of at most k pairwise
    disjoint subsets. Exponential, only good for short words.
    """
    par = word.alphabet.parities
    xs = word.letters
    n = len(xs)
    if mode == "row":
        def step_ok(a, b):
            return a < b or (a == b and par[a] == 0)
    elif mode == "col":
        def step_ok(a, b):
            return a > b or (a == b and par[a] == 1)
    else:
        raise ValueError("mode must be 'row' or 'col'")
    subs = []
    for mask in range(1, 1 << n):
        idx = [i for i in range(n) if mask >> i & 1]
        if all(step_ok(xs[i], xs[j]) for i, j in zip(idx, idx[1:])):
            subs.append(mask)
    best = 0

    def extend(depth, used, total, start):
        nonlocal best
        if total > best:
            best = total
        if depth == k:
            return
        for t in range(start, len(subs)):
            mask = subs[t]
            if mask & used:
                continue
            extend(depth + 1, used | mask, total + mask.bit_count(), t + 1)

    extend(0, 0, 0, 0)
    return best


def scan_schensted(values, bump_equal=False):
    """Row insertion of a sequence of integers by linear scanning.

    With bump_equal=False an entry bumps the leftmost strictly greater
    entry (the classical rule for an all-even alphabet); with
    bump_equal=True it bumps the leftmost greater-or-equal entry (the
    rule every letter of an all-odd alphabet follows).
    """
    rows = []
    for x in values:
        cur = x
        i = 0
        while True:
            if i == len(rows):
                rows.append([cur])
                break
            row = rows[i]
            hit = None
            for j, y in enumerate(row):
                if y > cur or (bump_equal and y == cur):
                    hit = j
                    break
            if hit is None:
                row.append(cur)
                break
            row[hit], cur = cur, row[hit]
            i += 1
    return tuple(tuple(r) for r in rows)


def all_signatures(k):
    """Every parity assignment for k letters."""
    return list(itertools.product((0, 1), repeat=k))


def words_over(alphabet, max_len, min_len=0):
    """All index tuples of length min_len..max_len over alphabet."""
    n = len(alphabet.letters)
    for length in range(min_len, max_len + 1):
        yield from itertools.product(range(n), repeat=length)
