"""Integer formal sums of tableaux and the super Pieri rule.

The tableaux over a fixed signed alphabet span a ring: the product of two
tableaux is the tableau of the concatenation of their reading words, and
the product extends bilinearly to formal sums.  The sum of all tableaux of
a fixed shape plays the role of a Schur function; the Pieri rule predicts
its product with the sum over a single row (or a single column) as the sum
over shapes obtained by adding a horizontal (or vertical) strip.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass

from .alphabet import SignedAlphabet
from .bumping import _bump_row, row_insert_word
from .errors import AlphabetMismatchError, _bound_error, _require_int
from .shape import (
    SkewDiagram,
    as_partition,
    contains,
    is_horizontal_strip,
    is_vertical_strip,
    partitions,
)
from .tableau import Tableau, _fillings, enumerate_tableaux, word_of

DEFAULT_MAX_PIERI_CELLS = 12


@dataclass(frozen=True, slots=True, init=False)
class FormalSum:
    """A finite integer combination of tableaux over one alphabet.

    Sums compare by content and are unhashable: the dict of terms is.
    """

    alphabet: SignedAlphabet
    _terms: dict[Tableau, int]

    def __init__(self, alphabet: SignedAlphabet, terms: Iterable[tuple[Tableau, int]] = ()):
        acc: dict[Tableau, int] = {}
        for tableau, coeff in terms:
            if tableau.alphabet != alphabet:
                raise AlphabetMismatchError("term lives over a different alphabet")
            c = acc.get(tableau, 0) + coeff
            if c:
                acc[tableau] = c
            else:
                acc.pop(tableau, None)
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "_terms", acc)

    def terms(self) -> tuple[tuple[Tableau, int], ...]:
        """Terms sorted by shape and row content, for deterministic output."""
        return tuple(sorted(self._terms.items(), key=lambda tc: (tc[0].shape, tc[0].rows)))

    def coefficient(self, tableau: Tableau) -> int:
        return self._terms.get(tableau, 0)

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __add__(self, other: "FormalSum") -> "FormalSum":
        if not isinstance(other, FormalSum):
            return NotImplemented
        if self.alphabet != other.alphabet:
            raise AlphabetMismatchError("sums live over different alphabets")
        return FormalSum(self.alphabet, list(self._terms.items()) + list(other._terms.items()))

    def __sub__(self, other: "FormalSum") -> "FormalSum":
        if not isinstance(other, FormalSum):
            return NotImplemented
        return self + FormalSum(other.alphabet, [(t, -c) for t, c in other._terms.items()])

    def __repr__(self) -> str:
        if not self._terms:
            return "FormalSum(0)"
        bits = []
        for tableau, coeff in self.terms():
            word = " ".join(" ".join(r) for r in tableau.symbol_rows())
            bits.append("%+d [%s]" % (coeff, word))
        return "FormalSum(%s)" % " ".join(bits)


def s_lambda(lam: Iterable[int], alphabet: SignedAlphabet) -> FormalSum:
    """Sum of all tableaux of the given shape, each with coefficient 1."""
    lam = as_partition(lam)
    return FormalSum(alphabet, ((t, 1) for t in enumerate_tableaux(lam, alphabet)))


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
    gw = [(word_of(u), d) for u, d in g._terms.items()]
    return FormalSum(f.alphabet, [
        (row_insert_word(t, wu), c * d) for t, c in f._terms.items() for wu, d in gw
    ])


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
    """Compare the product of s_lambda with a row (or column) sum against
    the strip expansion.

    In row mode the right side is the sum of s_mu over shapes mu obtained
    from lam by adding p cells with no two in the same column; column mode
    uses s_col and strips with no two cells in the same row.  Every
    coefficient is 1 and both sides live over one alphabet, so each side is
    a multiset of tableaux, counted here as rows of letter indices: the left
    side row inserts the reading word of each row (or column) filling into
    each filling of lam.  Returns the verdict and a per-shape census of both
    sides.
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
    col_next = alphabet.col_next
    one_shape = ((p,) if mode == "row" else (1,) * p) if p else ()
    words = [
        tuple([x for row in reversed(rows) for x in row])  # the reading word, bottom row up
        for rows in _fillings(one_shape, alphabet)
    ]
    left: Counter[tuple[tuple[int, ...], ...]] = Counter()
    for base in _fillings(lam, alphabet):
        for word in words:
            rows = [list(r) for r in base]
            for x in word:
                _bump_row(rows, x, col_next)
            left[tuple([tuple(r) for r in rows])] += 1
    strip_ok = is_horizontal_strip if mode == "row" else is_vertical_strip
    right = Counter(
        rows
        for mu in partitions(n)
        if contains(mu, lam) and strip_ok(SkewDiagram(mu, lam))
        for rows in _fillings(mu, alphabet)
    )
    shapes: dict[tuple[int, ...], list[int]] = {}
    for side, terms in enumerate((left, right)):
        for rows, c in terms.items():
            shapes.setdefault(tuple(map(len, rows)), [0, 0])[side] += c
    by_shape = tuple(
        (shp, counts[0], counts[1]) for shp, counts in sorted(shapes.items())
    )
    return PieriReport(
        equal=(left == right), mode=mode, lam=lam, p=p, by_shape=by_shape
    )
