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
from .bumping import _bump_row
from .errors import AlphabetMismatchError, _bound_error, _require_int
from .shape import (
    SkewDiagram,
    as_partition,
    contains,
    is_horizontal_strip,
    is_vertical_strip,
    partitions,
)
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
    lam = as_partition(lam)
    return FormalSum._of_rows(alphabet, ((rows, 1) for rows in _fillings(lam, alphabet)))


def s_row(p: int, alphabet: SignedAlphabet) -> FormalSum:
    """Sum of all single-row tableaux with p cells (all row words of length p)."""
    _require_int("p", p)
    if p < 0:
        raise ValueError("p must be nonnegative")
    return s_lambda((p,) if p else (), alphabet)


def s_col(p: int, alphabet: SignedAlphabet) -> FormalSum:
    """Sum of all single-column tableaux with p cells (all column words of
    length p, read bottom to top)."""
    _require_int("p", p)
    if p < 0:
        raise ValueError("p must be nonnegative")
    return s_lambda((1,) * p, alphabet)


def ring_product(f: FormalSum, g: FormalSum) -> FormalSum:
    """Bilinear product: on tableaux, the tableau of the concatenated
    reading words, which is the left tableau with the right one's reading
    word row inserted."""
    if f.alphabet != g.alphabet:
        raise AlphabetMismatchError("sums live over different alphabets")
    col_next = f.alphabet.col_next
    # each right term's reading word: its rows from the bottom row up
    words = [(tuple([x for row in reversed(rows) for x in row]), d) for rows, d in g._terms.items()]

    def products() -> Iterable[tuple[_Rows, int]]:
        for base, c in f._terms.items():
            for word, d in words:
                rows = [list(r) for r in base]
                for x in word:
                    _bump_row(rows, x, col_next)
                yield tuple([tuple(r) for r in rows]), c * d

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
    """
    lam = as_partition(lam)
    if mode not in ("row", "col"):
        raise ValueError("mode must be 'row' or 'col'")
    _require_int("p", p)
    if p < 0:
        raise ValueError("p must be nonnegative")
    n = sum(lam) + p
    if n > max_cells:
        raise _bound_error("total size {observed} exceeds the Pieri bound {limit}",
                           n, max_cells, "max_cells")
    one = s_row(p, alphabet) if mode == "row" else s_col(p, alphabet)
    left = ring_product(s_lambda(lam, alphabet), one)
    strip_ok = is_horizontal_strip if mode == "row" else is_vertical_strip
    strips = [mu for mu in partitions(n) if contains(mu, lam) and strip_ok(SkewDiagram(mu, lam))]
    right = FormalSum._of_rows(alphabet, ((rows, 1) for mu in strips
                                          for rows in _fillings(mu, alphabet)))
    shapes: dict[tuple[int, ...], list[int]] = {}
    for side, total in enumerate((left, right)):
        for rows, c in total._terms.items():
            shapes.setdefault(tuple(map(len, rows)), [0, 0])[side] += c
    by_shape = tuple((shp, *counts) for shp, counts in sorted(shapes.items()))
    return PieriReport(equal=(left == right), mode=mode, lam=lam, p=p, by_shape=by_shape)
