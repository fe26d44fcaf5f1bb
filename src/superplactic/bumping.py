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
    greater.
  * Column deletion pops the bottom cell of a column whose bottom cell is a
    removable corner; in each column further left the in-hand letter x
    swaps with the lowest entry below col_next[x].

Insertion that bumps nothing appends x to the end of the row (or the bottom
of the column) and reports the row (or column) index.  A deletion whose
in-hand letter finds nothing to swap with stops there and ejects it.

The module-level functions are pure: they copy the input tableau and return
fresh objects.
"""

from __future__ import annotations

from bisect import bisect_left

from .errors import AlphabetMismatchError, CornerError
from .tableau import Tableau, Word

Trace = tuple[tuple[int, int, int], ...]


def _bump_row(rows: list[list[int]], x: int, col_next: tuple[int, ...], trace=None) -> int:
    """Insert letter index x, mutating rows; returns the 1-based row index
    of the cell added at the end of the bumping chain."""
    i = 0
    while True:
        if i == len(rows):
            rows.append([x])
            if trace is not None:
                trace.append((i + 1, 1, x))
            return i + 1
        row = rows[i]
        j = bisect_left(row, col_next[x])
        if j == len(row):
            row.append(x)
            if trace is not None:
                trace.append((i + 1, j + 1, x))
            return i + 1
        row[j], x = x, row[j]
        if trace is not None:
            trace.append((i + 1, j + 1, row[j]))
        i += 1


def _unbump_row(rows: list[list[int]], i: int, row_next: tuple[int, ...]) -> int:
    """Delete the last cell of 1-based row i, mutating rows; returns the
    ejected letter index.  The caller checks the corner precondition."""
    x = rows[i - 1].pop()
    if not rows[i - 1]:
        assert i == len(rows)
        rows.pop()
    for h in range(i - 2, -1, -1):
        row = rows[h]
        jj = bisect_left(row, row_next[x]) - 1
        if jj < 0:
            break
        row[jj], x = x, row[jj]
    return x


def _col_height(rows: list[list[int]], j: int) -> int:
    """Number of cells in 0-based column j."""
    h = 0
    while h < len(rows) and len(rows[h]) > j:
        h += 1
    return h


def _is_corner(rows: list[list[int]], r: int) -> bool:
    """Whether the last cell of 0-based row r is a removable corner."""
    return r + 1 == len(rows) or len(rows[r]) > len(rows[r + 1])


def _bump_col(rows: list[list[int]], x: int, row_next: tuple[int, ...], trace=None) -> int:
    """Insert letter index x by columns, mutating rows; returns the 1-based
    column index of the added cell."""
    j = 0
    while True:
        h = _col_height(rows, j)
        bound = row_next[x]
        i = 0
        while i < h and rows[i][j] < bound:
            i += 1
        if i == h:
            if h == len(rows):
                rows.append([x])
            else:
                assert len(rows[h]) == j
                rows[h].append(x)
            if trace is not None:
                trace.append((h + 1, j + 1, x))
            return j + 1
        rows[i][j], x = x, rows[i][j]
        if trace is not None:
            trace.append((i + 1, j + 1, rows[i][j]))
        j += 1


def _unbump_col(rows: list[list[int]], j: int, col_next: tuple[int, ...]) -> int:
    """Delete the bottom cell of 1-based column j, mutating rows; returns
    the ejected letter index.  The caller checks the corner precondition."""
    h = _col_height(rows, j - 1)
    x = rows[h - 1].pop()
    if not rows[h - 1]:
        rows.pop()
    for c in range(j - 2, -1, -1):
        h = _col_height(rows, c)
        bound = col_next[x]
        i = 0
        while i < h and rows[i][c] < bound:
            i += 1
        if i == 0:
            break
        rows[i - 1][c], x = x, rows[i - 1][c]
    return x


def _insert(tableau: Tableau, x: str, bump, table: tuple[int, ...], steps=None):
    """Run one insertion on a copy of the rows.  Returns the new tableau and
    the index bump reports, and the symbol trace too when steps is a list."""
    alphabet = tableau.alphabet
    rows = [list(r) for r in tableau.rows]
    k = bump(rows, alphabet.index(x), table, steps)
    if steps is None:
        return Tableau(alphabet, rows), k
    return Tableau(alphabet, rows), k, tuple((r, c, alphabet.symbol(v)) for r, c, v in steps)


def _delete(tableau: Tableau, unbump, k: int, table: tuple[int, ...]) -> tuple[Tableau, str]:
    """Run one deletion on a copy of the rows; returns the new tableau and
    the ejected symbol."""
    rows = [list(r) for r in tableau.rows]
    x = unbump(rows, k, table)
    return Tableau(tableau.alphabet, rows), tableau.alphabet.symbol(x)


def row_insert(tableau: Tableau, x: str) -> tuple[Tableau, int]:
    """Row insert the letter x; returns the new tableau and the 1-based row
    index where the bumping chain ended."""
    return _insert(tableau, x, _bump_row, tableau.alphabet.col_next)


def row_insert_trace(tableau: Tableau, x: str) -> tuple[Tableau, int, Trace]:
    """Like row_insert, also returning the bumping chain as a tuple of
    (row, column, symbol) placements, the final appended cell included."""
    return _insert(tableau, x, _bump_row, tableau.alphabet.col_next, [])


def row_delete(tableau: Tableau, i: int) -> tuple[Tableau, str]:
    """Remove the last cell of row i (which must be a removable corner) and
    run the bumping chain backwards; returns the new tableau and the ejected
    letter."""
    rows = tableau.rows
    if not 1 <= i <= len(rows):
        raise CornerError("row %d does not exist" % i)
    if not _is_corner(rows, i - 1):
        raise CornerError("the last cell of row %d is not a removable corner" % i)
    return _delete(tableau, _unbump_row, i, tableau.alphabet.row_next)


def col_insert(x: str, tableau: Tableau) -> tuple[Tableau, int]:
    """Column insert the letter x; returns the new tableau and the 1-based
    column index where the bumping chain ended."""
    return _insert(tableau, x, _bump_col, tableau.alphabet.row_next)


def col_insert_trace(x: str, tableau: Tableau) -> tuple[Tableau, int, Trace]:
    """Like col_insert, also returning the bumping chain as (row, column,
    symbol) placements."""
    return _insert(tableau, x, _bump_col, tableau.alphabet.row_next, [])


def col_delete(tableau: Tableau, j: int) -> tuple[Tableau, str]:
    """Remove the bottom cell of column j (which must be a removable corner)
    and run the column bumping chain backwards; returns the new tableau and
    the ejected letter."""
    rows = tableau.rows
    h = _col_height(rows, j - 1)
    if j < 1 or h == 0:
        raise CornerError("column %d does not exist" % j)
    if len(rows[h - 1]) != j:
        raise CornerError("the bottom cell of column %d is not a removable corner" % j)
    return _delete(tableau, _unbump_col, j, tableau.alphabet.col_next)


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
    rows: list[list[int]] = []
    col_next = word.alphabet.col_next
    for x in word.letters:
        _bump_row(rows, x, col_next)
    return Tableau(word.alphabet, rows)
