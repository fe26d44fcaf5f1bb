"""Signed Schensted bumping: row and column insertion and their inverses.

Every threshold below is one lookup in the alphabet's order tables (see
`alphabet`): row_next[x] is the smallest letter allowed right of x in a row,
col_next[x] the smallest letter allowed below x in a column.

  * Row insertion of x bumps, in each row, the leftmost entry that is at
    least col_next[x], the first entry that x may not follow in a row: a
    parity-0 letter bumps the leftmost entry strictly greater than x, a
    parity-1 letter the leftmost entry greater than or equal to x.
  * Row deletion pops the last cell of a row whose final cell is a
    removable corner; in each higher row the in-hand letter x swaps with
    the rightmost entry below row_next[x].
  * Column insertion of x bumps, in each column, the topmost entry that is
    at least row_next[x]: a parity-0 letter bumps the topmost entry greater
    than or equal to x, a parity-1 letter the topmost entry strictly
    greater.  Since b >= row_next[a] exactly when a < col_next[b], the
    chain moves weakly up as it moves right, so `_bump_col` finds each
    column's row by bisection over the rows above and shifts each stretch
    the chain spends in one row one column right with one slice.
  * Column deletion pops the bottom cell of a column whose bottom cell is a
    removable corner; in each column further left the in-hand letter x
    swaps with the lowest entry below col_next[x].  The chain moves weakly
    down as it moves left, so `_unbump_col` bisects over the rows below
    and shifts each stretch one column left.

Insertion that bumps nothing appends x to the end of the row (or the bottom
of the column).  A deletion whose in-hand letter finds nothing to swap with
stops there and ejects it.

The private primitives work on lists of letter-index rows in place and
share one 0-based convention: `_bump_row` and `_bump_col` return the row of
the cell they add, and `_unbump_row` and `_unbump_col` take the row whose
last cell they remove (for a column deletion, the bottom cell of its
column).  Their traces hold 0-based (row, column, letter index) steps.  One
row step, `_row_step`, row inserts any word into a single row and returns
the letters it bumps, the word the next row receives, so a word enters a
tableau one row at a time: `ring_product` steps each row of a term, and
`_insert_row_word` steps a row word down the rows and returns the count of
cells each 0-based row gained, which is a horizontal strip.
`_delete_row_strip` takes such counts and moves the letters in hand up one
letter at a time; a repeat of a parity-0 letter lands one cell left of the
one before, with no bisection.  These give the rows and letters of one
`_bump_row` per letter or, on rows that weakly increase, one `_unbump_row`
per cell.  The public functions keep 1-based rows and columns: an insertion
reports the row (or column) of the cell it adds, and a deletion takes a row
(or column) index.  Only the `*_trace` insertions record the bumping chain.

The module-level functions are pure: they copy the input tableau and return
fresh objects.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable
from itertools import compress, count, repeat
from operator import ge, itemgetter, lt

from .errors import AlphabetMismatchError, CornerError, _excerpt
from .tableau import Tableau, Word

Trace = tuple[tuple[int, int, int], ...]

_first = itemgetter(0)


def _bump_row(rows: list[list[int]], x: int, col_next: tuple[int, ...], trace=None) -> int:
    """Row insert letter index x, mutating rows; returns the 0-based row of
    the cell added at the end of the bumping chain."""
    i = 0
    while True:
        if i == len(rows):
            rows.append([x])
            if trace is not None:
                trace.append((i, 0, x))
            return i
        row = rows[i]
        j = bisect_left(row, col_next[x])
        if j == len(row):
            row.append(x)
            if trace is not None:
                trace.append((i, j, x))
            return i
        row[j], x = x, row[j]
        if trace is not None:
            trace.append((i, j, row[j]))
        i += 1


def _row_step(row: list[int], xs: Iterable[int], col_next: tuple[int, ...]) -> list[int]:
    """Row insert the letters xs, in order, into the single row, mutating
    it; returns the letters it bumps, in the order it bumps them.

    These are the row's part of one `_bump_row` per letter: the row meets
    the letters in the order they arrive, and what it bumps, in that order,
    is what the next row meets.  Only the first of a run of equal letters x
    looks its cell up: each later copy lands col_next[x] - x cells right of
    the one before (1 for parity 0; 0 for parity 1, bumping it on)."""
    bumped: list[int] = []
    last = j = -1
    for x in xs:
        if x == last:
            j += bound - x
        else:
            bound = col_next[x]
            j = bisect_left(row, bound)
            last = x
        if j < len(row):
            bumped.append(row[j])
            row[j] = x
        else:
            row.append(x)
    return bumped


def _unbump_row(rows: list[list[int]], r: int, row_next: tuple[int, ...]) -> int:
    """Delete the last cell of 0-based row r, mutating rows; returns the
    ejected letter index.  The caller checks the corner precondition."""
    x = rows[r].pop()
    if not rows[r]:
        assert r == len(rows) - 1
        rows.pop()
    for h in range(r - 1, -1, -1):
        row = rows[h]
        jj = bisect_left(row, row_next[x]) - 1
        if jj < 0:
            break
        row[jj], x = x, row[jj]
    return x


def _insert_row_word(rows: list[list[int]], xs: list[int], col_next: tuple[int, ...]) -> list[int]:
    """Row insert the nonempty row word xs (each letter at least row_next of
    the one before), mutating rows one `_row_step` at a time; returns the
    number of cells added to each 0-based row that the letters reached.
    The letters a row bumps form a row word again, which a new row takes
    whole."""
    grown = []
    for row in rows:
        before = len(row)
        xs = _row_step(row, xs, col_next)
        grown.append(len(row) - before)
        if not xs:
            return grown
    rows.append(list(xs))
    grown.append(len(xs))
    return grown


def _delete_row_strip(rows: list[list[int]], counts: list[int], row_next: tuple[int, ...]) -> list[int]:
    """Delete the last counts[r] cells of each 0-based row r, a horizontal
    strip, mutating rows; returns the ejected letter indices.  On rows that
    weakly increase, these are the rows and letters of one `_unbump_row`
    per cell, top row first and right to left in a row.

    Works from the lowest row up: each row pops its own cells, right to
    left, then swaps each letter x arriving from below with its rightmost
    entry below row_next[x].  A letter that finds none leaves the deletion
    as ~x, which no row touches, so it keeps its place in the order and
    ends a run of repeated letters."""
    hand: list[int] = []
    left = False
    for h in range(len(counts) - 1, -1, -1):
        row = rows[h]
        c = counts[h]
        if not (c or hand):
            continue
        out = row[:-c - 1:-1]  # empty when c is 0
        if c:
            del row[-c:]
            if not row:
                assert h == len(rows) - 1
                rows.pop()
        last = -1
        for x in hand:
            if x < 0:
                out.append(x)
                last = -1
                continue
            if x == last:
                j -= 1
            else:
                bound = row_next[x]
                j = bisect_left(row, bound) - 1
                last = x if bound == x else -1
            if j < 0:
                left = True
                out.append(~x)
            else:
                out.append(row[j])
                row[j] = x
        hand = out
    return [~x if x < 0 else x for x in hand] if left else hand


def _is_corner(rows: list[list[int]], r: int) -> bool:
    """Whether the last cell of 0-based row r is a removable corner."""
    return r + 1 == len(rows) or len(rows[r]) > len(rows[r + 1])


def _column_cut(rows: list[list[int]], j: int, bound: int, lo: int, hi: int) -> int:
    """The first 0-based row in lo..hi - 1 that has no cell in column j or
    holds a letter index at least bound there, else hi.  Entries increase
    weakly down a column and rows shorten going down, so the rows before
    it are a prefix and bisection finds it."""
    while lo < hi:
        mid = (lo + hi) >> 1
        row = rows[mid]
        if len(row) > j and row[j] < bound:
            lo = mid + 1
        else:
            hi = mid
    return lo


def _bump_col(rows: list[list[int]], x: int, row_next: tuple[int, ...], trace=None) -> int:
    """Column insert letter index x, mutating rows; returns the 0-based row
    of the cell added at the end of the bumping chain.

    The chain moves weakly up as it moves right.  A letter y bumped from
    row i has rows[i][j + 1] >= row_next[y] on its right, or row i ends
    there, so column j + 1 bumps it in row i or above.  Each column's row
    is therefore a bisection over the rows above, and the chain's cells in
    one row are a stretch: they shift one column right, x entering on the
    left, in one slice.  The stretch ends at the first column whose letter
    the row above takes in the next column (that cell is at least its
    row_next, or the row above ends at this row's length), and the chain
    moves up; otherwise it runs to the row's end, under a longer row
    above or in the top row, and the chain ends in this row."""
    j = 0
    i = bisect_left(rows, row_next[x], key=_first)
    while True:
        if i == len(rows):
            rows.append([x])
            if trace is not None:
                trace.append((i, 0, x))
            return i
        row = rows[i]
        n = len(row)
        c = None
        if i and j < n:
            above = rows[i - 1]
            takes = map(ge, above[j + 1:n + 1], map(row_next.__getitem__, row[j:n]))
            c = next(compress(count(j), takes), None)
            if c is None and len(above) == n:
                c = n - 1
        if c is None:
            row.insert(j, x)
            if trace is not None:
                trace.extend(zip(repeat(i), range(j, n + 1), row[j:]))
            return i
        y = row[c]
        row[j + 1:c + 1] = row[j:c]
        row[j] = x
        if trace is not None:
            trace.extend(zip(repeat(i), range(j, c + 1), row[j:c + 1]))
        x, j = y, c + 1
        i = _column_cut(rows, j, row_next[x], 0, i - 1)


def _unbump_col(rows: list[list[int]], r: int, col_next: tuple[int, ...]) -> int:
    """Delete the last cell of 0-based row r, the bottom cell of its column,
    mutating rows; returns the ejected letter index.  The caller checks the
    corner precondition.

    The chain moves weakly down as it moves left.  A letter y taken from
    row i has a left neighbour below col_next[y] (b >= row_next[a] exactly
    when a < col_next[b]), so column c - 1 swaps it in row i or below.
    Each column's row is therefore a bisection over the rows below, and
    the chain's cells in one row are a stretch: they shift one column
    left, the in-hand letter entering on the right, in one slice.  Going
    left, the stretch ends at the first column whose cell in the row below
    is under col_next of the letter leaving the next column, and that
    letter moves down to it; otherwise the letter leaving column 0 is
    ejected."""
    row = rows[r]
    x = row.pop()
    if not row:
        rows.pop()
        return x
    i, c = -1, len(row) - 1
    while True:
        # x swaps with the lowest cell of column c under col_next[x], in
        # row i or below.  i is -1 at first: rows that the trusted
        # constructor let in may have no such cell, and then x is ejected.
        i = _column_cut(rows, c, col_next[x], i + 1, len(rows)) - 1
        if i < 0:
            return x
        row = rows[i]
        below = rows[i + 1] if i + 1 < len(rows) else ()
        m = min(c, len(below))
        t = -1
        if m:
            takes = map(lt, reversed(below[:m]), map(col_next.__getitem__, reversed(row[1:m + 1])))
            t = next(compress(count(m - 1, -1), takes), -1)
        y = row[t + 1]
        row[t + 1:c] = row[t + 2:c + 1]
        row[c] = x
        if t < 0:
            return y
        x, i, c = y, i + 1, t


def _insert(tableau: Tableau, x: str, bump, table: tuple[int, ...],
            traced: bool) -> tuple[Tableau, int, int, Trace | None]:
    """Run one insertion on a copy of the rows; returns the new tableau, the
    1-based row and column of the added cell and, when traced, the bumping
    chain as 1-based (row, column, symbol) placements, the added cell last."""
    alphabet = tableau.alphabet
    rows = [list(r) for r in tableau.rows]
    steps: list[tuple[int, int, int]] | None = [] if traced else None
    r = bump(rows, alphabet.index(x), table, steps)
    trace = None if steps is None else tuple((i + 1, j + 1, alphabet.symbol(v)) for i, j, v in steps)
    return Tableau(alphabet, rows), r + 1, len(rows[r]), trace


def _delete(tableau: Tableau, unbump, r: int, table: tuple[int, ...]) -> tuple[Tableau, str]:
    """Run one deletion from the last cell of 0-based row r on a copy of the
    rows; returns the new tableau and the ejected symbol."""
    rows = [list(row) for row in tableau.rows]
    x = unbump(rows, r, table)
    return Tableau(tableau.alphabet, rows), tableau.alphabet.symbol(x)


def row_insert(tableau: Tableau, x: str) -> tuple[Tableau, int]:
    """Row insert the letter x; returns the new tableau and the 1-based row
    index where the bumping chain ended."""
    t, i, _, _ = _insert(tableau, x, _bump_row, tableau.alphabet.col_next, False)
    return t, i


def row_insert_trace(tableau: Tableau, x: str) -> tuple[Tableau, int, Trace]:
    """Like row_insert, also returning the bumping chain as a tuple of
    (row, column, symbol) placements, the final appended cell included."""
    t, i, _, trace = _insert(tableau, x, _bump_row, tableau.alphabet.col_next, True)
    return t, i, trace


def row_delete(tableau: Tableau, i: int) -> tuple[Tableau, str]:
    """Remove the last cell of row i (which must be a removable corner) and
    run the bumping chain backwards; returns the new tableau and the ejected
    letter."""
    rows = tableau.rows
    if not isinstance(i, int) or not 1 <= i <= len(rows):
        raise CornerError("row %s does not exist" % _excerpt(i))
    if not _is_corner(rows, i - 1):
        raise CornerError("the last cell of row %d is not a removable corner" % i)
    return _delete(tableau, _unbump_row, i - 1, tableau.alphabet.row_next)


def col_insert(x: str, tableau: Tableau) -> tuple[Tableau, int]:
    """Column insert the letter x; returns the new tableau and the 1-based
    column index where the bumping chain ended."""
    t, _, j, _ = _insert(tableau, x, _bump_col, tableau.alphabet.row_next, False)
    return t, j


def col_insert_trace(x: str, tableau: Tableau) -> tuple[Tableau, int, Trace]:
    """Like col_insert, also returning the bumping chain as (row, column,
    symbol) placements."""
    t, _, j, trace = _insert(tableau, x, _bump_col, tableau.alphabet.row_next, True)
    return t, j, trace


def col_delete(tableau: Tableau, j: int) -> tuple[Tableau, str]:
    """Remove the bottom cell of column j (which must be a removable corner)
    and run the column bumping chain backwards; returns the new tableau and
    the ejected letter."""
    rows = tableau.rows
    h = sum(len(row) >= j for row in rows) if isinstance(j, int) else 0
    if h == 0 or j < 1:
        raise CornerError("column %s does not exist" % _excerpt(j))
    if len(rows[h - 1]) != j:
        raise CornerError("the bottom cell of column %d is not a removable corner" % j)
    return _delete(tableau, _unbump_col, h - 1, tableau.alphabet.col_next)


def row_insert_word(tableau: Tableau, word: Word) -> Tableau:
    """Row insert the letters of the word from left to right."""
    if word.alphabet != tableau.alphabet:
        raise AlphabetMismatchError("word and tableau live over different alphabets")
    rows = [list(r) for r in tableau.rows]
    col_next = tableau.alphabet.col_next
    for x in word.letters:
        _bump_row(rows, x, col_next)
    return Tableau(tableau.alphabet, rows)


def tableau_of_word(word: Word) -> Tableau:
    """Tableau of a word: row insert its letters into the empty tableau."""
    return row_insert_word(Tableau.empty(word.alphabet), word)
