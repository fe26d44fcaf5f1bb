"""Integer formal sums of tableaux and the super Pieri rule.

The tableaux over a fixed signed alphabet span a ring: the product of two
tableaux is the tableau of the concatenation of their reading words, and
the product extends bilinearly to formal sums.  The sum of all tableaux of
a fixed shape plays the role of a Schur function; the Pieri rule predicts
its product with the sum over a single row (or a single column) as the sum
over shapes obtained by adding a horizontal (or vertical) strip.  A sum
holds its terms as rows of letter indices over its one alphabet.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from .alphabet import SignedAlphabet
from .bumping import _row_step
from .errors import AlphabetMismatchError, _bound_error, _require_int, _require_mode, _require_setting
from .shape import Partition, as_partition, conjugate_partition
from .tableau import Tableau, _fillings

DEFAULT_MAX_PIERI_CELLS = 12
_Rows = tuple[tuple[int, ...], ...]  # the index rows of a tableau


def _summed(terms: Iterable[tuple[_Rows, int]]) -> dict[_Rows, int]:
    """Add up the coefficients of equal rows, dropping every zero sum."""
    acc: dict[_Rows, int] = {}
    for rows, coeff in terms:
        c = acc.get(rows, 0) + coeff
        if c:
            acc[rows] = c
        else:
            acc.pop(rows, None)
    return acc


@dataclass(frozen=True, slots=True, init=False)
class FormalSum:
    """A finite integer combination of tableaux over one alphabet.

    Sums compare by content and are unhashable: the dict of terms is.
    """

    alphabet: SignedAlphabet
    _terms: dict[_Rows, int]

    def __init__(self, alphabet: SignedAlphabet, terms: Iterable[tuple[Tableau, int]] = ()):
        terms = list(terms)
        if any(tableau.alphabet != alphabet for tableau, _ in terms):
            raise AlphabetMismatchError("term lives over a different alphabet")
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "_terms", _summed((tableau.rows, c) for tableau, c in terms))

    @classmethod
    def _of_rows(cls, alphabet: SignedAlphabet, terms: Iterable[tuple[_Rows, int]]) -> "FormalSum":
        """The sum of terms given as index rows of tableaux over the alphabet, unchecked."""
        f = cls(alphabet)
        object.__setattr__(f, "_terms", _summed(terms))
        return f

    def terms(self) -> tuple[tuple[Tableau, int], ...]:
        """Terms sorted by shape and row content, for deterministic output."""
        items = sorted(self._terms.items(), key=lambda rc: (tuple(map(len, rc[0])), rc[0]))
        return tuple((Tableau(self.alphabet, rows), c) for rows, c in items)

    def coefficient(self, tableau: Tableau) -> int:
        same = isinstance(tableau, Tableau) and tableau.alphabet == self.alphabet
        return self._terms.get(tableau.rows, 0) if same else 0

    def __len__(self) -> int:
        return len(self._terms)

    def __add__(self, other: "FormalSum") -> "FormalSum":
        if not isinstance(other, FormalSum):
            return NotImplemented
        if self.alphabet != other.alphabet:
            raise AlphabetMismatchError("sums live over different alphabets")
        return FormalSum._of_rows(self.alphabet, [*self._terms.items(), *other._terms.items()])

    def __sub__(self, other: "FormalSum") -> "FormalSum":
        if not isinstance(other, FormalSum):
            return NotImplemented
        return self + FormalSum._of_rows(other.alphabet, [(r, -c) for r, c in other._terms.items()])

    def __repr__(self) -> str:
        bits = ["%+d [%s]" % (c, " ".join(" ".join(r) for r in t.symbol_rows()))
                for t, c in self.terms()]
        return "FormalSum(%s)" % (" ".join(bits) or "0")


def s_lambda(lam: Iterable[int], alphabet: SignedAlphabet) -> FormalSum:
    """Sum of all tableaux of the given shape, each with coefficient 1."""
    return _schur(as_partition(lam), alphabet, {})


def _schur(lam: Partition, alphabet: SignedAlphabet, memo: dict) -> FormalSum:
    """s_lambda of a checked shape, its rows listed through the memo of
    `_fillings`, which other shapes over the alphabet may share."""
    return FormalSum._of_rows(alphabet, ((rows, 1) for rows in _fillings(lam, alphabet, memo)))


def s_row(p: int, alphabet: SignedAlphabet) -> FormalSum:
    """Sum of all single-row tableaux with p cells (all row words of length p)."""
    _require_int("p", p, 0)
    return s_lambda((p,) if p else (), alphabet)


def s_col(p: int, alphabet: SignedAlphabet) -> FormalSum:
    """Sum of all single-column tableaux with p cells (all column words of
    length p, read bottom to top)."""
    _require_int("p", p, 0)
    return s_lambda((1,) * p, alphabet)


def ring_product(f: FormalSum, g: FormalSum) -> FormalSum:
    """Bilinear product: on tableaux, the tableau of the concatenated
    reading words, which is the left tableau with the right one's reading
    word row inserted.

    The word enters the left rows one row at a time: each row takes the
    letters that reach it and passes the letters it bumps, in order, to
    the row below, and a row that bumps nothing leaves the rows below it
    as they were.  The terms share most of these steps, so a memo local to
    the call keeps each step by its row and its arriving letters."""
    if f.alphabet != g.alphabet:
        raise AlphabetMismatchError("sums live over different alphabets")
    col_next = f.alphabet.col_next
    # each right term's reading word: its rows from the bottom row up
    words = [(tuple([x for row in reversed(rows) for x in row]), d) for rows, d in g._terms.items()]
    steps: dict = {}  # (row, arriving letters) -> (new row, bumped letters)
    # past a term's last row the letters open new rows, each taking one or more
    new_rows = ((),) * max([len(word) for word, _ in words], default=0)

    def products() -> Iterable[tuple[_Rows, int]]:
        for base, c in f._terms.items():
            padded = base + new_rows
            for word, d in words:
                rows = []
                for row in padded:
                    if not word:
                        break
                    key = (row, word)
                    step = steps.get(key)
                    if step is None:
                        new = list(row)
                        bumped = _row_step(new, word, col_next)
                        step = steps[key] = tuple(new), tuple(bumped)
                    row, word = step
                    rows.append(row)
                yield (*rows, *base[len(rows):]), c * d

    return FormalSum._of_rows(f.alphabet, products())


@dataclass(frozen=True)
class PieriReport:
    """Outcome of a Pieri comparison: the verdict and, per shape, the term
    counts (with multiplicity) on each side."""

    equal: bool
    mode: str
    lam: tuple[int, ...]
    p: int
    by_shape: tuple[tuple[tuple[int, ...], int, int], ...]

    def mismatches(self) -> tuple[tuple[tuple[int, ...], int, int], ...]:
        return tuple(row for row in self.by_shape if row[1] != row[2])


def _strips(lam: Partition, p: int, mode: str) -> list[Partition]:
    """The shapes that add a horizontal strip of p cells to lam, or in
    column mode a vertical one: the conjugates of the horizontal strips of
    the conjugate shape.

    A horizontal strip adds a_i cells to row i of lam, where row 0 may grow
    freely, row i > 0 at most up to the length of row i - 1, and the row
    below lam at most up to lam's last part.
    """
    if mode == "col":
        return [conjugate_partition(mu) for mu in _strips(conjugate_partition(lam), p, "row")]
    caps = [p] + [a - b for a, b in zip(lam, lam[1:] + (0,))]
    heads: list[tuple[tuple[int, ...], int]] = [((), p)]  # rows so far, cells left to add
    for base, cap in zip(lam + (0,), caps):
        heads = [(head + (base + a,), rest - a)
                 for head, rest in heads for a in range(min(cap, rest) + 1)]
    return [head if head[-1] else head[:-1] for head, rest in heads if not rest]


def pieri_check(
    lam: Iterable[int],
    p: int,
    alphabet: SignedAlphabet,
    mode: str = "row",
    max_cells: int = DEFAULT_MAX_PIERI_CELLS,
) -> PieriReport:
    """Check the Pieri rule: ring_product(s_lambda(lam), s_row(p)) against
    the sum of s_mu over the shapes mu that add a horizontal strip of p
    cells to lam, or in column mode s_col(p) against vertical strips; both
    sides are sums over index rows.  Returns the verdict and, per shape,
    the term counts (with multiplicity) of both sides.

    The strips are built from lam, and each strip's fillings are listed
    whole, so the right side's count for mu is the length of its list.
    When the two sums are equal they hold the same terms, and a term's
    shape is read off its rows, so the per-shape totals agree as well: the
    left counts are the right ones.  Only on a mismatch are the left terms
    tallied by shape.
    """
    lam = as_partition(lam)
    _require_mode(mode)
    _require_int("p", p, 0)
    _require_setting("max_cells", max_cells)
    n = sum(lam) + p
    if n > max_cells:
        raise _bound_error("total size {observed} exceeds the Pieri bound {limit}",
                           n, max_cells, "max_cells")
    memo: dict = {}  # the rows under each row, shared by every shape below
    one = s_row(p, alphabet) if mode == "row" else s_col(p, alphabet)
    left = ring_product(_schur(lam, alphabet, memo), one)
    filled = [(mu, list(_fillings(mu, alphabet, memo))) for mu in _strips(lam, p, mode)]
    right = FormalSum._of_rows(alphabet, ((rows, 1) for _, fillings in filled for rows in fillings))
    right_counts = {mu: len(fillings) for mu, fillings in filled if fillings}
    equal = left == right
    if equal:
        left_counts = right_counts
    else:
        left_counts = {}
        for rows, c in left._terms.items():
            shape = tuple(map(len, rows))
            left_counts[shape] = left_counts.get(shape, 0) + c
    by_shape = tuple((mu, left_counts.get(mu, 0), right_counts.get(mu, 0))
                     for mu in sorted(left_counts.keys() | right_counts.keys()))
    return PieriReport(equal=equal, mode=mode, lam=lam, p=p, by_shape=by_shape)
