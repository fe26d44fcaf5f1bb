"""Super RSK: two-rowed arrays, the correspondence, and its symmetry.

A two-rowed array over alphabets L (top) and P (bottom) is a sequence of
columns (a_i, b_i) that weakly increases in the product order, where pairs
are compared bottom entry first, then top entry, and where equal adjacent
columns are allowed only when the pair parity |a| + |b| is 0.

The forward map builds a pair of equal-shape tableaux (T, U): reading the
columns left to right, the top letter a is row inserted into T when the
bottom letter b has parity 0 and column inserted when b has parity 1, and b
is then placed in U at the cell where T grew.  U is checked cell by cell
as it grows, each new cell against its left and upper neighbours.  U only
ever gains a cell at the end of a row and never changes a placed one, so
these checks together are the full tableau check of the final U.  In a
valid array the tops over one parity-0 bottom letter form a row word, and
row inserting a row word adds a horizontal strip (the row bumping lemma),
so the forward map, in `rsk_forward` and `has_symmetry` alike, inserts a
long run of such columns as one word, row by row.  The inverse map peels
each bottom letter of U as one strip, from the largest down: a horizontal
strip for a parity-0 letter, deleted from T row by row, and a vertical
strip for a parity-1 letter, deleted one column deletion per cell.  A U
that is not semistandard has a letter that is not such a strip, and raises
CornerError.  The recovered columns, each block sorted and the blocks
taken in increasing bottom letter, form the array.

Swapping the two rows of every column and re-sorting gives the involution
on arrays.  An array "has symmetry" when the involution exchanges the roles
of T and U.  That always happens classically; over signed alphabets it is
guaranteed when both alphabets put all their parity-0 letters before all
their parity-1 letters (or both the other way around) and every column has
pair parity 0.  Outside those hypotheses `symmetry_probe` surveys what
actually happens.  The probe carries the forward tableaux along its depth
first walk over the arrays, so each array costs one insertion and the
placement of one cell of U on the forward side.  The walk's new column has
the largest bottom letter so far, so on the involuted side, where columns
are taken top letter first, it comes last among the columns with its top
letter a: the probe keeps the involuted state after each top letter's
columns, and replays only the new column and the columns whose top letter
is larger than a.  Tableaux recur across the arrays, so the probe interns
them for one call, the insertion and recording tableaux over one alphabet
in one table: it bumps each (tableau, letter, parity) once, and places and
checks each (recording tableau, row, letter) once.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from itertools import islice, repeat
from math import comb

from .alphabet import SignedAlphabet, _pair_parities, make_alphabet
from .bumping import (
    _bump_col,
    _bump_row,
    _delete_row_strip,
    _insert_row_word,
    _unbump_col,
    tableau_of_word,
)
from .errors import (
    CornerError,
    ForeignLetterError,
    HypothesisError,
    ShapeError,
    ValidationError,
    _bound_error,
    _excerpt,
    _require_int,
    _require_setting,
)
from .plactic import DEFAULT_MAX_WORD_LEN, _require_length
from .shape import as_partition
from .tableau import Tableau, Word, _cell_error, enumerate_standard


@dataclass(frozen=True, slots=True, init=False)
class TwoRowedArray:
    """A two-rowed array; `pairs` holds (top, bottom) letter index pairs.

    The constructor trusts its input; use `validate_array` to build one
    from symbols with full checking.
    """

    top_alphabet: SignedAlphabet
    bottom_alphabet: SignedAlphabet
    pairs: tuple[tuple[int, int], ...]

    def __init__(
        self,
        top_alphabet: SignedAlphabet,
        bottom_alphabet: SignedAlphabet,
        pairs: Iterable[tuple[int, int]] = (),
    ):
        # Exact-size tuple([...]), as in Tableau.__init__: a tuple grown by
        # resizing is never taken from CPython's tuple free lists.
        pairs = tuple([(a, b) for a, b in pairs])
        object.__setattr__(self, "top_alphabet", top_alphabet)
        object.__setattr__(self, "bottom_alphabet", bottom_alphabet)
        object.__setattr__(self, "pairs", pairs)

    def __len__(self) -> int:
        return len(self.pairs)

    @property
    def top_symbols(self) -> tuple[str, ...]:
        return self.top_alphabet.to_symbols(a for a, _ in self.pairs)

    @property
    def bottom_symbols(self) -> tuple[str, ...]:
        return self.bottom_alphabet.to_symbols(b for _, b in self.pairs)

    def pair_parities(self) -> tuple[int, ...]:
        pl = self.top_alphabet.parities
        pp = self.bottom_alphabet.parities
        return tuple((pl[a] + pp[b]) % 2 for a, b in self.pairs)

    def __repr__(self) -> str:
        cols = ", ".join("(%s,%s)" % (a, b) for a, b in zip(self.top_symbols, self.bottom_symbols))
        return "TwoRowedArray(%s)" % cols

    def pretty(self) -> str:
        if not self.pairs:
            return "(empty)"
        tops = self.top_symbols
        bots = self.bottom_symbols
        widths = [max(len(t), len(b)) for t, b in zip(tops, bots)]
        line1 = " ".join(t.ljust(w) for t, w in zip(tops, widths)).rstrip()
        line2 = " ".join(b.ljust(w) for b, w in zip(bots, widths)).rstrip()
        return line1 + "\n" + line2


def validate_array(
    columns: Iterable[tuple[str, str]],
    top_alphabet: SignedAlphabet,
    bottom_alphabet: SignedAlphabet,
) -> TwoRowedArray:
    """Build a two-rowed array from (top, bottom) symbol columns, checking
    the product-order sorting and the parity condition on repeats.

    Column (a, b) is the product letter c = b * len(top) + a, and the
    columns must form a row word over the product alphabet: each next
    letter d satisfies d >= c + parity(c).
    """
    pairs = [(top_alphabet.index(a), bottom_alphabet.index(b)) for a, b in columns]
    n = len(top_alphabet)
    par = _pair_parities(top_alphabet, bottom_alphabet)
    word = [b * n + a for a, b in pairs]
    for t in range(len(word) - 1):
        c, d = word[t], word[t + 1]
        if d < c + par[c]:
            fault = "are out of order" if d < c else "repeat a pair of parity 1"
            raise ValidationError("columns %d and %d %s" % (t + 1, t + 2, fault), cell=(1, t + 2))
    return TwoRowedArray(top_alphabet, bottom_alphabet, pairs)


# A run of fewer columns is bumped one column at a time.  Long arrays do not
# set the bound: `rsk_forward` on the seed-1 `rsk_roundtrip` pool timed the
# same at every bound from 1 to 48.  Tiny arrays do, as every run tried as a
# strip pays for its bookkeeping: on 2,000 random arrays of at most 4
# columns over 3-letter alphabets, a bound of 1 made `rsk_forward` 27 % and
# `has_symmetry` 57 % slower than 24 did, and a bound of 4 made them 4 % and
# 7 % slower (Python 3.11 on a 2-CPU VM, medians of 15 interleaved passes
# pinned to one CPU).
_STRIP_MIN = 24


def _forward_rows(
    trows: list[list[int]],
    urows: list[list[int]],
    pairs: Sequence[tuple[int, int]],
    top_alphabet: SignedAlphabet,
    bottom_alphabet: SignedAlphabet,
) -> None:
    """Extend the index rows of (T, U) by the columns `pairs`, in order,
    checking each column's letters before its top letter is bumped and
    each cell of U, with `_check_cell`, as it is placed.

    A run of at least _STRIP_MIN columns over one parity-0 bottom letter b,
    whose tops form a row word, is row inserted as one word instead.  T
    then gains a horizontal strip, and b goes into its cells of U, each
    row's run checked by one `_check_cell`.  The rows and the first fault
    are those of one bump per column.
    """
    ppar = bottom_alphabet.parities
    n = len(ppar)
    prow = bottom_alphabet.row_next
    pcol = bottom_alphabet.col_next
    row_next = top_alphabet.row_next
    col_next = top_alphabet.col_next
    m = len(row_next)
    reach = _STRIP_MIN - 1
    starts = len(pairs) - reach  # the columns a run can start at
    k = 0
    while k < len(pairs):
        a, b = pairs[k]
        # inline rather than errors._require_indices: this runs once per column
        if not (isinstance(a, int) and 0 <= a < m):
            raise ForeignLetterError("letter index %s out of range" % _excerpt(a))
        if not (isinstance(b, int) and 0 <= b < n):
            raise ForeignLetterError("letter index %s out of range" % _excerpt(b))
        # exact types: a bool equal to an index forms no run
        if k < starts and pairs[k + reach][1] == b and not ppar[b] and type(a) is type(b) is int:
            xs = [a]
            least = row_next[a]
            for x, c in islice(pairs, k + 1, None):
                if c != b or type(c) is not int or type(x) is not int or not least <= x < m:
                    break
                xs.append(x)
                least = row_next[x]
            if len(xs) >= _STRIP_MIN:
                # b fills the strip's cells of U bottom row first, the order
                # in which one bump per column would place them
                grown = _insert_row_word(trows, xs, col_next)
                for r in range(len(grown) - 1, -1, -1):
                    if grown[r]:
                        if r == len(urows):
                            urows.append([])
                        urows[r] += [b] * grown[r]
                        _check_cell(urows, r, prow, pcol, grown[r])
                k += len(xs)
                continue
        r = _bump_col(trows, a, row_next) if ppar[b] else _bump_row(trows, a, col_next)
        if r == len(urows):
            urows.append([b])
        else:
            urows[r].append(b)
        _check_cell(urows, r, prow, pcol)
        k += 1


def _check_cell(
    urows: list[Sequence[int]],
    r: int,
    prow: tuple[int, ...],
    pcol: tuple[int, ...],
    g: int = 1,
) -> None:
    """Check the last g cells of U's 0-based row r, just placed, which all
    hold one letter.

    U grows only by cells at the end of a row, and a placed cell never
    changes.  So every pair of neighbouring cells of U is checked exactly
    once, when the later cell is placed: the cell against its left
    neighbour (the row condition) and its upper neighbour (the column
    condition, and that the row above reaches over it), through U's order
    tables `prow` and `pcol`.  With each letter checked against U's
    alphabet before it is placed, that is the check of `check_tableau` on
    the final U, with the shape checked after every cell rather than once.

    A run of g > 1 cells is a strip's cells in one row, with a parity-0
    letter, so only its first cell can fail the row condition.  The row
    above increases, so once a cell fails the column or shape condition
    every later one does, and the last cell stands for them all.  When it
    fails, the row is cut after the first cell that fails, which raises:
    the error of placing the cells one at a time.
    """
    row = urows[r]
    n = len(row)
    j = n - g
    b = row[j]
    if j and b < prow[row[j - 1]]:
        raise _cell_error("row", r + 1, j + 1)
    if r:
        above = urows[r - 1]
        if n > len(above) or b < pcol[above[n - 1]]:
            while j < len(above) and b >= pcol[above[j]]:
                j += 1
            urows[r] = row[:j + 1]
            if j == len(above):
                raise ShapeError("row lengths must weakly decrease, got %s"
                                 % _excerpt([len(u) for u in urows]))
            raise _cell_error("column", r + 1, j + 1)


def rsk_forward(array: TwoRowedArray) -> tuple[Tableau, Tableau]:
    """The correspondence: array to an equal-shape tableau pair (T, U)."""
    trows: list[list[int]] = []
    urows: list[list[int]] = []
    _forward_rows(trows, urows, array.pairs, array.top_alphabet, array.bottom_alphabet)
    T = Tableau(array.top_alphabet, trows)
    U = Tableau(array.bottom_alphabet, urows)
    assert T.shape == U.shape
    return T, U


def rsk_inverse(t: Tableau, u: Tableau) -> TwoRowedArray:
    """Inverse correspondence: an equal-shape pair back to its array.

    Takes the letters y of u from the largest down, each as one strip: the
    copies of y that end u's rows must form a horizontal strip when y has
    parity 0 and a vertical strip when y has parity 1, and y must be
    smaller than every letter taken before it.  A u that is not
    semistandard fails one of these tests and raises CornerError, naming
    y.  The strip is removed from u, and its cells are deleted from t: as
    one row deletion of the whole strip (parity 0), or as one column
    deletion per cell, bottom row first (parity 1).  The ejected letters
    are the top letters over y, last column first; sorted into that order
    (which moves nothing for a valid pair) and collected for every y, they
    form the array read backwards.
    """
    if t.shape != u.shape:
        raise ShapeError("tableaux have shapes %s and %s" % (_excerpt(t.shape), _excerpt(u.shape)))
    L = t.alphabet
    P = u.alphabet
    parities = P.parities
    row_next = L.row_next
    col_next = L.col_next
    trows = [list(r) for r in t.rows]
    urows = [list(r) for r in u.rows]
    pairs: list[tuple[int, int]] = []  # the columns, last first
    while urows:
        y = max([row[-1] for row in urows])
        even = parities[y] == 0
        if pairs and y >= pairs[-1][1]:
            raise _strip_error(P, y, even)
        # Bottom row up, each row that ends in y gives up its copies of y:
        # the row keeps at least as many cells as the row below it holds
        # (horizontal strip) or keeps (vertical strip).  Other rows keep
        # their cells, and U's shape already passes them.
        counts = [0] * len(urows)
        tops = []
        below = 0
        r = len(urows)
        for row in reversed(urows):
            r -= 1
            n = len(row)
            if row[-1] != y:
                below = n
                continue
            if even:
                # bisect_left trusts the row's order; the count of y in the tail does not
                k = bisect_left(row, y)
                if k < below or row[k:].count(y) != n - k:
                    raise _strip_error(P, y, even)
                below = n
                counts[r] = n - k
            else:
                k = n - 1
                if k < below:
                    raise _strip_error(P, y, even)
                tops.append(_unbump_col(trows, r, col_next))
                below = k
            del row[k:]
        if even:
            tops = _delete_row_strip(trows, counts, row_next)
        while urows and not urows[-1]:
            urows.pop()
        tops.sort(reverse=True)
        pairs += zip(tops, repeat(y))
    pairs.reverse()
    return TwoRowedArray(L, P, pairs)


def _strip_error(alphabet: SignedAlphabet, y: int, even: bool) -> CornerError:
    return CornerError("letter %s heads no removable %s corner; not a valid pair"
                       % (alphabet.symbol(y), "row" if even else "column"))


def word_to_array(word: Word) -> TwoRowedArray:
    """Embed a word as an array over positions: bottom letters are the
    positions 1..n, all of parity 0."""
    n = len(word)
    places = make_alphabet([str(k) for k in range(1, n + 1)], [0] * n)
    return TwoRowedArray(word.alphabet, places, [(x, k) for k, x in enumerate(word.letters)])


def class_size(word: Word, max_len: int = DEFAULT_MAX_WORD_LEN) -> int:
    """Number of words congruent to this one: the count of standard fillings
    of the shape of its tableau."""
    _require_length(word, max_len, "class size")
    return enumerate_standard(tableau_of_word(word).shape)


def _swapped(pairs: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    """Columns with their two entries swapped, in the product order of the
    swapped alphabet pair: top entry first, then bottom entry."""
    return [(b, a) for a, b in sorted(pairs)]


def array_involution(array: TwoRowedArray) -> TwoRowedArray:
    """Swap the two rows of every column and re-sort into the product order
    over the swapped alphabet pair."""
    return TwoRowedArray(array.bottom_alphabet, array.top_alphabet, _swapped(array.pairs))


def has_symmetry(array: TwoRowedArray) -> bool:
    """Whether the involution swaps the two tableaux of the correspondence."""
    L = array.top_alphabet
    P = array.bottom_alphabet
    trows: list[list[int]] = []
    urows: list[list[int]] = []
    t2: list[list[int]] = []
    u2: list[list[int]] = []
    _forward_rows(trows, urows, array.pairs, L, P)
    _forward_rows(t2, u2, _swapped(array.pairs), P, L)
    return t2 == urows and u2 == trows


def _parity_first(alphabet: SignedAlphabet, p: int) -> bool:
    """Whether every parity-p letter precedes every letter of the other parity."""
    par = alphabet.parities
    return all(a == p or b != p for a, b in zip(par, par[1:]))


def _aligned(top_alphabet: SignedAlphabet, bottom_alphabet: SignedAlphabet) -> bool:
    """Whether both alphabets put the same parity block first."""
    return any(_parity_first(top_alphabet, p) and _parity_first(bottom_alphabet, p) for p in (0, 1))


def check_susy(array: TwoRowedArray) -> bool:
    """Symmetry under the guaranteed hypotheses.

    Requires both alphabets to place their parity-0 letters before their
    parity-1 letters (or both the reverse), and every column to have pair
    parity 0; raises HypothesisError otherwise, so callers can route such
    arrays to the unrestricted probe instead.  Returns has_symmetry, which
    the hypotheses force to be True.
    """
    if not _aligned(array.top_alphabet, array.bottom_alphabet):
        raise HypothesisError(
            "alphabets do not split with aligned parity blocks"
        )
    if any(p != 0 for p in array.pair_parities()):
        raise HypothesisError("array has a column of pair parity 1")
    return has_symmetry(array)


def split_array(array: TwoRowedArray) -> tuple[TwoRowedArray, TwoRowedArray]:
    """Split an all parity-0 array into its even-pair and odd-pair parts.

    Requires every column to have pair parity 0 and both alphabets to place
    parity-0 letters first.  The columns whose entries both have parity 0
    form a prefix, returned over the parity-0 sub-alphabets; the remaining
    columns are returned over the parity-1 sub-alphabets.
    """
    L = array.top_alphabet
    P = array.bottom_alphabet
    if not (_parity_first(L, 0) and _parity_first(P, 0)):
        raise HypothesisError("alphabets must place parity-0 letters first")
    if any(p != 0 for p in array.pair_parities()):
        raise HypothesisError("array has a column of pair parity 1")
    l0 = len(L.even_letters)
    p0 = len(P.even_letters)
    sub_l0 = make_alphabet(L.even_letters, [0] * l0)
    sub_l1 = make_alphabet(L.odd_letters, [1] * (len(L) - l0))
    sub_p0 = make_alphabet(P.even_letters, [0] * p0)
    sub_p1 = make_alphabet(P.odd_letters, [1] * (len(P) - p0))
    cut = sum(1 for a, _ in array.pairs if L.parities[a] == 0)
    head = array.pairs[:cut]
    tail = array.pairs[cut:]
    assert all(L.parities[a] == 0 and P.parities[b] == 0 for a, b in head)
    assert all(L.parities[a] == 1 and P.parities[b] == 1 for a, b in tail)
    s0 = TwoRowedArray(sub_l0, sub_p0, [(a, b) for a, b in head])
    s1 = TwoRowedArray(sub_l1, sub_p1, [(a - l0, b - p0) for a, b in tail])
    return s0, s1


def c_lambda(lam: Iterable[int]) -> Tableau:
    """The tableau of the given shape whose row i reads 1, 2, ..., lam_i
    over the all parity-1 alphabet 1..lam_1."""
    lam = as_partition(lam)
    width = lam[0] if lam else 0
    alphabet = make_alphabet([str(k) for k in range(1, width + 1)], [1] * width)
    return Tableau(alphabet, [range(part) for part in lam])


def _column_walk(
    top_alphabet: SignedAlphabet,
    bottom_alphabet: SignedAlphabet,
    max_cols: int,
) -> Iterator[list[tuple[int, int]]]:
    """The columns of every valid array with at most max_cols columns, in
    the order of `enumerate_arrays`, as one live list: each yield drops
    zero or more columns from the end of the list and then appends one,
    apart from the first, which yields the empty list."""
    _require_int("max_cols", max_cols, 0)
    pairs = [(a, b) for b in range(len(bottom_alphabet)) for a in range(len(top_alphabet))]
    par = _pair_parities(top_alphabet, bottom_alphabet)
    n = len(pairs)

    def walk() -> Iterator[list[tuple[int, int]]]:
        word: list[int] = []
        cols: list[tuple[int, int]] = []
        c = 0  # the smallest letter the next column may take
        while True:
            yield cols
            if len(cols) == max_cols:
                c = n
            # With no letter left, drop the last column and try its successor.
            while c == n:
                if not word:
                    return
                c = word.pop() + 1
                cols.pop()
            word.append(c)
            cols.append(pairs[c])
            c += par[c]

    return walk()


def enumerate_arrays(
    top_alphabet: SignedAlphabet,
    bottom_alphabet: SignedAlphabet,
    max_cols: int,
) -> Iterator[TwoRowedArray]:
    """All valid arrays with at most max_cols columns, in a deterministic
    order: depth first over the row words of the product alphabet, so each
    array comes before its extensions, and these follow in increasing last
    column."""
    return (TwoRowedArray(top_alphabet, bottom_alphabet, cols)
            for cols in _column_walk(top_alphabet, bottom_alphabet, max_cols))


_CELL_NAMES = {
    (True, True): "hypothesis_symmetric",
    (True, False): "hypothesis_asymmetric",
    (False, True): "unrestricted_symmetric",
    (False, False): "unrestricted_asymmetric",
}


@dataclass
class ProbeReport:
    """Census of the arrays over an alphabet pair, classified by whether the
    guaranteed-symmetry hypotheses hold and whether symmetry actually holds."""

    max_cols: int
    total: int = 0
    counts: dict[tuple[bool, bool], int] = field(
        default_factory=lambda: {k: 0 for k in _CELL_NAMES}
    )
    examples: dict[tuple[bool, bool], list[TwoRowedArray]] = field(
        default_factory=lambda: {k: [] for k in _CELL_NAMES}
    )

    def to_json_obj(self) -> dict:
        return {
            "max_cols": self.max_cols,
            "total": self.total,
            "counts": {_CELL_NAMES[k]: v for k, v in sorted(self.counts.items())},
            "examples": {
                _CELL_NAMES[k]: [array_to_json(s) for s in v]
                for k, v in sorted(self.examples.items())
            },
        }


class _Steps:
    """One alphabet's tableaux in a probe call, interned, and their steps.

    `rows[t]` holds the index rows of tableau t as a tuple of row tuples,
    `ids` maps them back to t, and the empty tableau is 0.  A side's
    insertion tableau and the other side's recording tableau are over the
    same alphabet, so they share one table.  Inserting letter x into
    tableau t, by row insertion (parity 0) or column insertion (parity 1),
    gives `succ[t][2 * x + parity]`: the pair (t', r) of the new tableau
    and the 0-based row of the cell it gained, or None until that slot is
    first asked for.  Placing letter x at the end of row r of a recording
    tableau u gives `placed[key]`, for the caller's int key of (u, r, x):
    the new tableau (never 0), whose new cell `_check_cell` passed when it
    was first placed.
    """

    __slots__ = ("row_next", "col_next", "width", "rows", "ids", "succ", "placed")

    def __init__(self, alphabet: SignedAlphabet):
        self.row_next = alphabet.row_next
        self.col_next = alphabet.col_next
        self.width = 2 * len(alphabet)
        self.rows: list[tuple[tuple[int, ...], ...]] = [()]
        self.ids = {(): 0}
        self.succ: list[list[tuple[int, int] | None]] = [[None] * self.width]
        self.placed: dict[int, int] = {}

    def _intern(self, rows: tuple[tuple[int, ...], ...]) -> int:
        """The id of `rows`, a new one with empty successor slots when unseen."""
        known = self.rows
        t = self.ids.setdefault(rows, len(known))
        if t == len(known):
            known.append(rows)
            self.succ.append([None] * self.width)
        return t

    def step(self, t: int, slot: int) -> tuple[int, int]:
        """Fill slot `slot` of tableau t: one bump on a copy of its rows."""
        rows = list(map(list, self.rows[t]))
        if slot & 1:
            r = _bump_col(rows, slot >> 1, self.row_next)
        else:
            r = _bump_row(rows, slot >> 1, self.col_next)
        nxt = self.succ[t][slot] = (self._intern(tuple(map(tuple, rows))), r)
        return nxt

    def place(self, key: int, u: int, r: int, x: int) -> int:
        """Fill `placed[key]`: x placed at the end of row r of tableau u,
        and checked."""
        rows = [*self.rows[u]]
        if r < len(rows):
            rows[r] += (x,)
        else:
            rows.append((x,))
        _check_cell(rows, r, self.row_next, self.col_next)
        grown = self.placed[key] = self._intern(tuple(rows))
        return grown


def symmetry_probe(
    top_alphabet: SignedAlphabet,
    bottom_alphabet: SignedAlphabet,
    max_cols: int,
    examples_per_cell: int = 3,
    max_arrays: int = 10**6,
    sink=None,
) -> ProbeReport:
    """Classify every array with at most max_cols columns by (hypotheses
    satisfied, symmetric).  `sink`, if given, receives one dict per array,
    which the `probe` command streams out as JSON lines.  The arrays are
    counted first: more than max_arrays raise BoundExceededError before
    the walk starts.

    Both sides are carried down the walk, and a memo that lives for this
    call does their bumping and placing.  Every tableau is interned as an
    int id, in one `_Steps` per alphabet: the top alphabet's holds T and
    U2, the bottom alphabet's T2 and U.  Inserting a letter of a given
    parity into an interned tableau is bumped once, when first met, and
    then read from the successor table; placing a letter at the end of a
    row of an interned U or U2 is placed and checked by `_check_cell`
    once, when first met, and then read from the placement memo.  So each
    distinct step of U is checked exactly once.  The memo holds each
    distinct tableau once per alphabet, with its steps, and is dropped on
    return.

    An array's new column (a, b) has the largest bottom letter so far, so
    in the involuted order, top letter first, it follows every column with
    top letter at most a and precedes the rest.  Each prefix on the stack
    keeps, for every top letter x, the involuted state (T2 id, U2 id) after
    all its columns with top letter at most x (its checkpoints), and the
    involuted step slots of its columns in blocks by top letter.  The
    array's involuted state is then the parent's checkpoint at a, stepped
    by the new column and by the parent's blocks above a.  A prefix that
    can still grow shares the parent's checkpoints below a; an array of
    max_cols columns keeps none.  The array is symmetric when T2 is U and
    U2 is T, which compares ids.  The symbols of the array in hand are
    kept on two stacks along the walk, and each record gets copies.
    """
    _require_int("examples_per_cell", examples_per_cell, 0)
    _require_setting("max_arrays", max_arrays)
    walk = _column_walk(top_alphabet, bottom_alphabet, max_cols)
    par = _pair_parities(top_alphabet, bottom_alphabet)
    # a row word of the product alphabet: j distinct parity-1 letters and at
    # most max_cols - j parity-0 letters, repeats allowed, in sorted order
    p1 = sum(par)
    p0 = len(par) - p1
    arrays = sum(comb(p1, j) * comb(p0 + max_cols - j, p0) for j in range(min(p1, max_cols) + 1))
    if arrays > max_arrays:
        raise _bound_error("probe exceeded {limit} arrays", arrays, max_arrays, "max_arrays")
    aligned = _aligned(top_alphabet, bottom_alphabet)
    top_letters = top_alphabet.letters
    bottom_letters = bottom_alphabet.letters
    m = len(top_alphabet)
    n = len(bottom_alphabet)
    lpar = top_alphabet.parities
    ppar = bottom_alphabet.parities
    top = _Steps(top_alphabet)  # T and U2
    bottom = _Steps(bottom_alphabet)  # T2 and U
    fsucc, fstep = top.succ, top.step
    isucc, istep = bottom.succ, bottom.step
    uplaced, uplace = bottom.placed, bottom.place
    u2placed, u2place = top.placed, top.place
    # A new cell's row is below max_cols, so (U id, row, letter) packs
    # into one int.
    ustride = max_cols * n
    u2stride = max_cols * m
    report = ProbeReport(max_cols=max_cols)
    counts = report.counts
    examples = report.examples
    # stack[d] holds, for the first d columns of the array in hand, the
    # forward state (T id, U id), how many columns have pair parity 1, the
    # involuted slots of each top letter, and the checkpoints.
    stack: list[tuple[int, int, int, tuple[tuple[int, ...], ...], list[tuple[int, int]]]] = [
        (0, 0, 0, ((),) * m, [(0, 0)] * m)]
    t = u = odd = t2 = u2 = 0
    tops: list[str] = []
    bottoms: list[str] = []
    for cols in walk:
        # The walk kept the first len(cols) - 1 columns, so that prefix's
        # states are on the stack: step them by the last column.
        depth = len(cols)
        if depth:
            del stack[depth:]
            t, u, odd, blocks, cps = stack[-1]
            a, b = cols[-1]
            odd += par[b * m + a]
            slot = 2 * a + ppar[b]
            t, r = fsucc[t][slot] or fstep(t, slot)
            key = u * ustride + r * n + b
            u = uplaced.get(key) or uplace(key, u, r, b)
            slot = 2 * b + lpar[a]
            t2, u2 = cps[a]
            grows = depth < max_cols
            if grows:
                blocks = (*blocks[:a], (*blocks[a], slot), *blocks[a + 1:])
                cps = cps[:a]
            # the new column, then the columns of each larger top letter x
            for x, block in enumerate(((slot,), *blocks[a + 1:]), a):
                for slot in block:
                    t2, r = isucc[t2][slot] or istep(t2, slot)
                    key = u2 * u2stride + r * m + x
                    u2 = u2placed.get(key) or u2place(key, u2, r, x)
                if grows:
                    cps.append((t2, u2))
            if grows:
                stack.append((t, u, odd, blocks, cps))
            del tops[depth - 1:], bottoms[depth - 1:]
            tops.append(top_letters[a])
            bottoms.append(bottom_letters[b])
        hyp = aligned and odd == 0
        sym = t2 == u and u2 == t
        cell = (hyp, sym)
        counts[cell] += 1
        if len(examples[cell]) < examples_per_cell:
            examples[cell].append(TwoRowedArray(top_alphabet, bottom_alphabet, cols))
        if sink is not None:
            sink({"top": tops[:], "bottom": bottoms[:], "hypothesis": hyp, "symmetric": sym})
    report.total = sum(counts.values())
    return report


def array_to_json(array: TwoRowedArray) -> dict:
    return {"top": list(array.top_symbols), "bottom": list(array.bottom_symbols)}


def array_from_json(
    obj: dict, top_alphabet: SignedAlphabet, bottom_alphabet: SignedAlphabet
) -> TwoRowedArray:
    if not (isinstance(obj, dict) and isinstance(obj.get("top"), list)
            and isinstance(obj.get("bottom"), list)):
        raise ValidationError('array JSON must have "top" and "bottom" arrays')
    top = obj["top"]
    bottom = obj["bottom"]
    if len(top) != len(bottom):
        raise ValidationError("top and bottom rows have different lengths")
    return validate_array(zip(top, bottom), top_alphabet, bottom_alphabet)
