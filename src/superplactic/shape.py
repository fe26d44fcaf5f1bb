"""Partitions and skew diagrams.

Partitions are plain tuples of weakly decreasing positive integers; the
empty tuple is the empty partition.  Cells are addressed (row, column) with
both coordinates starting at 1, matrix style.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

from .errors import ShapeError

Partition = tuple[int, ...]


def as_partition(parts: Iterable[int]) -> Partition:
    """Validate and normalize a sequence of parts into a partition tuple."""
    lam = tuple(parts)
    for p in lam:
        if not isinstance(p, int) or p <= 0:
            raise ShapeError("partition parts must be positive integers, got %r" % (p,))
    for a, b in zip(lam, lam[1:]):
        if a < b:
            raise ShapeError("partition parts must weakly decrease, got %r" % (lam,))
    return lam


def size(lam: Iterable[int]) -> int:
    return sum(as_partition(lam))


def cells(lam: Iterable[int]) -> Iterator[tuple[int, int]]:
    """Cells of the diagram in row-major order, 1-based."""
    lam = as_partition(lam)
    for i, row_len in enumerate(lam, start=1):
        for j in range(1, row_len + 1):
            yield (i, j)


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
    decreasing order."""
    if n < 0:
        raise ShapeError("cannot partition a negative integer")
    top = n if max_part is None else min(max_part, n)
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


class SkewDiagram:
    """A pair of nested partitions outer/inner, holding the cells in between."""

    __slots__ = ("outer", "inner")

    def __init__(self, outer: Iterable[int], inner: Iterable[int]):
        outer = as_partition(outer)
        inner = as_partition(inner)
        if not contains(outer, inner):
            raise ShapeError("inner shape %r is not contained in outer shape %r" % (inner, outer))
        object.__setattr__(self, "outer", outer)
        object.__setattr__(self, "inner", inner)

    def __setattr__(self, name, value):
        raise AttributeError("SkewDiagram is immutable")

    def __eq__(self, other) -> bool:
        if not isinstance(other, SkewDiagram):
            return NotImplemented
        return self.outer == other.outer and self.inner == other.inner

    def __hash__(self) -> int:
        return hash((self.outer, self.inner))

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


def shape_to_json(lam: Sequence[int]) -> list[int]:
    return list(as_partition(lam))


def shape_from_json(obj) -> Partition:
    if not isinstance(obj, list):
        raise ShapeError("partition JSON must be an integer array")
    return as_partition(obj)
