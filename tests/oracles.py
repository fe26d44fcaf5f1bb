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


def all_signatures(k):
    """Every parity assignment for k letters."""
    return list(itertools.product((0, 1), repeat=k))


def words_over(alphabet, max_len, min_len=0):
    """All index tuples of length min_len..max_len over alphabet."""
    n = len(alphabet.letters)
    for length in range(min_len, max_len + 1):
        yield from itertools.product(range(n), repeat=length)


def super_rsk(pairs, top_parities, bottom_parities):
    """Super RSK of an array given as (top, bottom) letter index pairs.

    Reading the columns left to right, the top letter x goes into T by row
    insertion when the bottom letter has parity 0 and by column insertion
    when it has parity 1; the bottom letter is placed in U at the cell
    where T grew.  Row insertion bumps, in each row, the leftmost entry
    greater than x (or equal to x, when x has parity 1); column insertion
    bumps, in each column, the topmost entry greater than x (or equal to
    x, when x has parity 0).  Every search is a plain scan.  Returns
    (T, U) as tuples of rows.
    """
    t, u = [], []
    for x, b in pairs:
        if bottom_parities[b] == 0:
            i, j = _scan_row_insert(t, x, top_parities)
        else:
            i, j = _scan_col_insert(t, x, top_parities)
        if i == len(u):
            u.append([])
        assert len(u[i]) == j, "T grew at a cell that is not an outer corner"
        u[i].append(b)
    return tuple(map(tuple, t)), tuple(map(tuple, u))


def _scan_row_insert(rows, x, parities):
    """Row insert x into rows; returns the 0-based cell that was added."""
    i = 0
    while True:
        if i == len(rows):
            rows.append([x])
            return i, 0
        row = rows[i]
        for j, y in enumerate(row):
            if y > x or (y == x and parities[x] == 1):
                row[j], x = x, y
                break
        else:
            row.append(x)
            return i, len(row) - 1
        i += 1


def _scan_col_insert(rows, x, parities):
    """Column insert x into rows; returns the 0-based cell that was added."""
    j = 0
    while True:
        column = [row[j] for row in rows if len(row) > j]
        for i, y in enumerate(column):
            if y > x or (y == x and parities[x] == 0):
                rows[i][j], x = x, y
                break
        else:
            i = len(column)
            if i == len(rows):
                rows.append([])
            rows[i].append(x)
            return i, j
        j += 1


def _scan_row_delete(rows, r, parities):
    """Delete the last cell of row r from rows and undo row insertion;
    returns the ejected letter.  In each higher row, the in-hand letter x
    swaps with the rightmost entry less than x (or equal to x, when x has
    parity 1); a row with no such entry ejects x."""
    x = rows[r].pop()
    if not rows[r]:
        rows.pop(r)
    for i in range(r - 1, -1, -1):
        row = rows[i]
        for j in range(len(row) - 1, -1, -1):
            y = row[j]
            if y < x or (y == x and parities[x] == 1):
                row[j], x = x, y
                break
        else:
            break
    return x


def _scan_col_delete(rows, r, parities):
    """Delete the last cell of row r, the bottom cell of its column, from
    rows and undo column insertion; returns the ejected letter.  In each
    column further left, the in-hand letter x swaps with the lowest entry
    less than x (or equal to x, when x has parity 0); a column with no such
    entry ejects x."""
    x = rows[r].pop()
    width = len(rows[r])
    if not width:
        rows.pop(r)
    for j in range(width - 1, -1, -1):
        column = [row[j] for row in rows if len(row) > j]
        for i in range(len(column) - 1, -1, -1):
            y = column[i]
            if y < x or (y == x and parities[x] == 0):
                rows[i][j], x = x, y
                break
        else:
            break
    return x


def insertion_tableau(xs, parities):
    """The row-insertion tableau of the letter indices xs, inserted left to
    right by _scan_row_insert, as a tuple of rows.  With all parities 0 this
    is classical Schensted insertion; with all parities 1 every letter bumps
    the leftmost entry greater than or equal to it."""
    rows = []
    for x in xs:
        _scan_row_insert(rows, x, parities)
    return tuple(map(tuple, rows))


def lr_coefficients(lam, nu):
    """The Littlewood-Richardson coefficients c^mu_{lam nu}: a dict from
    each shape mu to its nonzero coefficient.

    c^mu_{lam nu} counts the semistandard fillings of mu/lam with content
    nu (letter i used nu_i times, rows weakly increasing, columns strictly)
    whose reverse reading word, each row from right to left and the rows
    from the top down, is a lattice word: every prefix holds at least as
    many letters i as letters i + 1.  The fillings are built letter by
    letter, the cells of letter i being any horizontal strip of nu_i cells
    on the shape so far, so each is semistandard; the lattice condition is
    checked by a plain scan of the whole reading word.
    """
    lam, nu = tuple(lam), tuple(nu)
    height = len(lam) + len(nu)
    counts = {}

    def place(i, shape, rows):
        if i == len(nu):
            if _is_lattice([x for row in rows for x in reversed(row)]):
                mu = tuple(part for part in shape if part)
                counts[mu] = counts.get(mu, 0) + 1
            return
        # row r may grow up to the old length of row r - 1: no two new cells share a column
        caps = [nu[i]] + [shape[r - 1] - shape[r] for r in range(1, height)]
        for adds in itertools.product(*(range(cap + 1) for cap in caps)):
            if sum(adds) == nu[i]:
                place(i + 1, [part + a for part, a in zip(shape, adds)],
                      [row + [i] * a for row, a in zip(rows, adds)])

    place(0, list(lam) + [0] * len(nu), [[] for _ in range(height)])
    return counts


def _is_lattice(word):
    """Whether every prefix of the word holds at least as many letters i as
    letters i + 1, for every i >= 0."""
    seen = {}
    for x in word:
        seen[x] = seen.get(x, 0) + 1
        if x and seen[x] > seen.get(x - 1, 0):
            return False
    return True


def super_content_counts(lam, parities):
    """The super semistandard fillings of the diagram lam over letters with
    the given parities, in alphabet order, counted by content: a dict from
    the tuple of each letter's number of cells to the number of fillings.

    The cells holding the first i letters form a diagram, so a filling is a
    chain of diagrams from the empty one up to lam: a parity-0 letter adds
    a horizontal strip (no two cells in one column), a parity-1 letter a
    vertical strip (no two cells in one row), and the strip's size is the
    letter's count.  Counts the chains by a dynamic program over the
    letters, keyed by the diagram and the content so far, never building a
    filling.
    """
    lam = tuple(lam)
    r = len(lam)
    inside = [mu for mu in itertools.product(*(range(part + 1) for part in lam))
              if all(a >= b for a, b in zip(mu, mu[1:]))]

    def horizontal(mu, nu):
        return (all(m <= n for m, n in zip(mu, nu))
                and all(nu[i + 1] <= mu[i] for i in range(r - 1)))

    def vertical(mu, nu):
        return all(0 <= n - m <= 1 for m, n in zip(mu, nu))

    # the strips each diagram can take, and their sizes, for each parity
    steps = [{mu: [(nu, sum(nu) - sum(mu)) for nu in inside if strip(mu, nu)] for mu in inside}
             for strip in (horizontal, vertical)]
    counts = {((0,) * r, ()): 1}
    for parity in parities:
        grown = {}
        for (mu, content), c in counts.items():
            for nu, k in steps[parity][mu]:
                key = (nu, content + (k,))
                grown[key] = grown.get(key, 0) + c
        counts = grown
    return {content: c for (mu, content), c in counts.items() if mu == lam}


def super_tableau_count(lam, parities):
    """Number of super semistandard fillings of the diagram lam over letters
    with the given parities, in alphabet order: the sum over contents of
    `super_content_counts`."""
    return sum(super_content_counts(lam, parities).values())
