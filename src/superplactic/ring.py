"""Integer formal sums of tableaux and the super Pieri rule.

The tableaux over a fixed signed alphabet span a ring: the product of two
tableaux is the tableau of the concatenation of their reading words, and
the product extends bilinearly to formal sums.  The sum of all tableaux of
a fixed shape plays the role of a Schur function; the Pieri rule predicts
its product with the sum over a single row (or a single column) as the sum
over shapes obtained by adding a horizontal (or vertical) strip.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from .alphabet import SignedAlphabet
from .bumping import tableau_of_word
from .errors import AlphabetMismatchError, BoundExceededError
from .shape import (
    SkewDiagram,
    as_partition,
    contains,
    is_horizontal_strip,
    is_vertical_strip,
    partitions,
)
from .tableau import Tableau, enumerate_tableaux, word_of

DEFAULT_MAX_PIERI_CELLS = 12


def _term_key(tableau: Tableau):
    return (tableau.shape, tableau.rows)


class FormalSum(object):
    """A finite integer combination of tableaux over one alphabet."""

    __slots__ = ("alphabet", "_terms")

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

    def __setattr__(self, name, value):
        raise AttributeError("FormalSum is immutable")

    def terms(self) -> tuple[tuple[Tableau, int], ...]:
        """Terms sorted by shape and row content, for deterministic output."""
        return tuple(sorted(self._terms.items(), key=lambda tc: _term_key(tc[0])))

    def coefficient(self, tableau: Tableau) -> int:
        return self._terms.get(tableau, 0)

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FormalSum):
            return NotImplemented
        return self.alphabet == other.alphabet and self._terms == other._terms

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
    if p < 0:
        raise ValueError("p must be nonnegative")
    return s_lambda((p,) if p else (), alphabet)


def s_col(p: int, alphabet: SignedAlphabet) -> FormalSum:
    """Sum of all single-column tableaux with p cells (all column words of
    length p, read bottom to top)."""
    if p < 0:
        raise ValueError("p must be nonnegative")
    return s_lambda((1,) * p, alphabet)


def ring_product(f: FormalSum, g: FormalSum) -> FormalSum:
    """Bilinear product: on tableaux, the tableau of the concatenated
    reading words."""
    if f.alphabet != g.alphabet:
        raise AlphabetMismatchError("sums live over different alphabets")
    alphabet = f.alphabet
    gw = [(word_of(t), c) for t, c in g.terms()]
    out: list[tuple[Tableau, int]] = []
    for t, c in f.terms():
        wt = word_of(t)
        for wu, d in gw:
            out.append((tableau_of_word(wt + wu), c * d))
    return FormalSum(alphabet, out)


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
    uses s_col and strips with no two cells in the same row.  Returns the
    verdict and a per-shape census of both sides.
    """
    lam = as_partition(lam)
    if mode not in ("row", "col"):
        raise ValueError("mode must be 'row' or 'col'")
    if p < 0:
        raise ValueError("p must be nonnegative")
    n = sum(lam) + p
    if n > max_cells:
        raise BoundExceededError(
            "total size %d exceeds the Pieri bound %d" % (n, max_cells)
        )
    left = ring_product(
        s_lambda(lam, alphabet),
        s_row(p, alphabet) if mode == "row" else s_col(p, alphabet),
    )
    strip_ok = is_horizontal_strip if mode == "row" else is_vertical_strip
    right = FormalSum(alphabet, [
        (t, 1)
        for mu in partitions(n)
        if contains(mu, lam) and strip_ok(SkewDiagram(mu, lam))
        for t in enumerate_tableaux(mu, alphabet)
    ])
    shapes: dict[tuple[int, ...], list[int]] = {}
    for t, c in left.terms():
        shapes.setdefault(t.shape, [0, 0])[0] += c
    for t, c in right.terms():
        shapes.setdefault(t.shape, [0, 0])[1] += c
    by_shape = tuple(
        (shp, counts[0], counts[1]) for shp, counts in sorted(shapes.items())
    )
    return PieriReport(
        equal=(left == right), mode=mode, lam=lam, p=p, by_shape=by_shape
    )
