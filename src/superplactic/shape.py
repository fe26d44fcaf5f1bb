"""Partitions and skew diagrams.

Partitions are plain tuples of weakly decreasing positive integers; the
empty tuple is the empty partition.  Cells are addressed (row, column) with
both coordinates starting at 1, matrix style.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass

from .errors import ShapeError, _excerpt, _require_int

Partition = tuple[int, ...]


def as_partition(parts: Iterable[int]) -> Partition:
    """Validate and normalize a sequence of parts into a partition tuple."""
    lam = tuple(parts)
    for p in lam:
        if not isinstance(p, int) or p <= 0:
            raise ShapeError("partition parts must be positive integers, got %s" % _excerpt(p))
    for a, b in zip(lam, lam[1:]):
        if a < b:
            raise ShapeError("partition parts must weakly decrease, got %s" % _excerpt(lam))
    return lam


def cells(lam: Iterable[int]) -> Iterator[tuple[int, int]]:
    """Cells of the diagram in row-major order, 1-based."""
    yield from SkewDiagram(lam, ()).cells()


def conjugate_partition(lam: Iterable[int]) -> Partition:
    """Transpose of the diagram: part j counts the parts of lam that are >= j."""
    lam = as_partition(lam)
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p >= j) for j in range(1, lam[0] + 1))


def contains(lam: Iterable[int], mu: Iterable[int]) -> bool:
    """Whether the diagram of mu sits inside the diagram of lam."""
    lam = as_partition(lam)
    mu = as_partition(mu)
    if len(mu) > len(lam):
        return False
    return all(m <= l for l, m in zip(lam, mu))


def partitions(n: int, max_part: int | None = None) -> Iterator[Partition]:
    """All partitions of n, largest part first, in lexicographically
    decreasing order.

    The arguments are checked at call time, before the first partition is
    asked for.
    """
    if not isinstance(n, int):
        raise ShapeError("cannot partition %s, which is not an integer" % _excerpt(n))
    if n < 0:
        raise ShapeError("cannot partition a negative integer")
    if max_part is not None:
        _require_int("max_part", max_part)
    return _partitions(n, n if max_part is None else min(max_part, n))


def _partitions(n: int, top: int) -> Iterator[Partition]:
    """The partitions of n into parts of at most `top`, as `partitions` lists them."""
    if top <= 0 < n:
        return
    # Fill the remainder greedily with parts of at most `top`, then step to
    # the next partition: drop the trailing ones and lower the last larger
    # part by one, which bounds the parts that refill the remainder.
    parts: list[int] = []
    rest = n
    while True:
        while rest:
            parts.append(min(top, rest))
            rest -= parts[-1]
        yield tuple(parts)
        while parts and parts[-1] == 1:
            rest += parts.pop()
        if not parts:
            return
        top = parts[-1] - 1
        rest += parts.pop()


@dataclass(frozen=True, slots=True)
class SkewDiagram:
    """A pair of nested partitions outer/inner, holding the cells in between."""

    outer: Partition
    inner: Partition

    def __post_init__(self):
        outer = as_partition(self.outer)
        inner = as_partition(self.inner)
        if not contains(outer, inner):
            raise ShapeError("inner shape %s is not contained in outer shape %s"
                             % (_excerpt(inner), _excerpt(outer)))
        object.__setattr__(self, "outer", outer)
        object.__setattr__(self, "inner", inner)

    def __repr__(self) -> str:
        return "SkewDiagram(%r, %r)" % (self.outer, self.inner)

    def size(self) -> int:
        return sum(self.outer) - sum(self.inner)

    def cells(self) -> Iterator[tuple[int, int]]:
        """Cells of outer not in inner, row-major, 1-based."""
        inner = self.inner
        for i, row_len in enumerate(self.outer, start=1):
            lo = inner[i - 1] if i <= len(inner) else 0
            for j in range(lo + 1, row_len + 1):
                yield (i, j)

    def conjugate(self) -> "SkewDiagram":
        return SkewDiagram(conjugate_partition(self.outer), conjugate_partition(self.inner))


def _one_cell_per_line(skew: SkewDiagram, axis: int) -> bool:
    """Whether no two cells share coordinate `axis` (0 for rows, 1 for columns)."""
    lines = [cell[axis] for cell in skew.cells()]
    return len(lines) == len(set(lines))


def is_horizontal_strip(skew: SkewDiagram) -> bool:
    """Whether the skew diagram has at most one cell in every column."""
    return _one_cell_per_line(skew, 1)


def is_vertical_strip(skew: SkewDiagram) -> bool:
    """Whether the skew diagram has at most one cell in every row."""
    return _one_cell_per_line(skew, 0)
