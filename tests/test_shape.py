import pytest
from hypothesis import given
from hypothesis import strategies as st

from superplactic import (
    ShapeError,
    SkewDiagram,
    as_partition,
    cells,
    conjugate_partition,
    contains,
    is_horizontal_strip,
    is_vertical_strip,
    partitions,
)


def test_as_partition_accepts_weakly_decreasing():
    assert as_partition([3, 3, 1]) == (3, 3, 1)
    assert as_partition(()) == ()
    assert as_partition((5,)) == (5,)


def test_as_partition_rejects_bad_input():
    with pytest.raises(ShapeError):
        as_partition([1, 2])
    with pytest.raises(ShapeError):
        as_partition([3, 0])
    with pytest.raises(ShapeError):
        as_partition([3, -1])
    with pytest.raises(ShapeError):
        as_partition([2.5])


def test_messages_cut_long_values():
    with pytest.raises(ShapeError, match=r"^partition parts must weakly decrease, got \(1, 2\)$"):
        as_partition([1, 2])
    long = tuple(range(1, 40))
    with pytest.raises(ShapeError) as info:
        as_partition(long)
    assert str(info.value) == "partition parts must weakly decrease, got %s... (%d characters)" % (
        repr(long)[:40], len(repr(long)))
    with pytest.raises(ShapeError) as info:
        as_partition([-10 ** 60])
    assert str(info.value) == "partition parts must be positive integers, got -%s... (62 characters)" % (
        "1" + "0" * 38)
    # Past the default limit on integer-to-string conversion repr raises,
    # so the message names the kind of value instead.
    with pytest.raises(ShapeError) as info:
        as_partition([1, 10 ** 5000])
    assert str(info.value) == "partition parts must weakly decrease, got a tuple too long to print"


def test_cells_row_major_one_based():
    assert list(cells((2, 1))) == [(1, 1), (1, 2), (2, 1)]
    assert list(cells(())) == []


def test_conjugate_examples():
    assert conjugate_partition(()) == ()
    assert conjugate_partition((4,)) == (1, 1, 1, 1)
    assert conjugate_partition((1, 1, 1)) == (3,)
    assert conjugate_partition((7, 7, 5, 3, 3, 1)) == (6, 5, 5, 3, 3, 2, 2)


def test_conjugate_against_cell_counts():
    for n in range(13):
        for lam in partitions(n):
            conj = conjugate_partition(lam)
            want = tuple(sum(1 for p in lam if p >= j) for j in range(1, (lam[0] if lam else 0) + 1))
            assert conj == want
            assert conjugate_partition(conj) == lam


def test_contains():
    assert contains((3, 2), (2, 2))
    assert contains((3, 2), ())
    assert not contains((3, 2), (2, 2, 1))
    assert not contains((3, 2), (4,))
    assert contains((3, 2), (3, 2))


def test_partition_counts():
    expected = [1, 1, 2, 3, 5, 7, 11, 15, 22]
    for n, count in enumerate(expected):
        got = list(partitions(n))
        assert len(got) == count
        assert len(set(got)) == count
        for lam in got:
            assert sum(lam) == n


def test_partitions_deterministic_and_largest_first():
    assert list(partitions(5)) == [
        (5,),
        (4, 1),
        (3, 2),
        (3, 1, 1),
        (2, 2, 1),
        (2, 1, 1, 1),
        (1, 1, 1, 1, 1),
    ]
    assert list(partitions(4, max_part=2)) == [(2, 2), (2, 1, 1), (1, 1, 1, 1)]


def test_partitions_edge_cases():
    assert [list(partitions(0, m)) for m in (None, -1, 0, 1)] == [[()]] * 4
    assert [list(partitions(3, m)) for m in (-1, 0)] == [[], []]
    assert list(partitions(3, 7)) == list(partitions(3))
    # the arguments are checked on the call, before the first next
    with pytest.raises(ShapeError):
        partitions(-1)


def test_partitions_stay_off_the_recursion_limit():
    assert next(partitions(1200, 1)) == (1,) * 1200
    assert next(partitions(1200)) == (1200,)


def test_skew_diagram_validation():
    with pytest.raises(ShapeError):
        SkewDiagram((2,), (3,))
    with pytest.raises(ShapeError):
        SkewDiagram((2, 2), (1, 2))


def test_skew_diagram_cells_and_size():
    d = SkewDiagram((3, 1), (1,))
    assert list(d.cells()) == [(1, 2), (1, 3), (2, 1)]
    assert d.size() == 3
    conj = d.conjugate()
    assert (conj.outer, conj.inner) == ((2, 1, 1), (1,))
    empty = SkewDiagram((2, 1), (2, 1))
    assert list(empty.cells()) == []
    assert empty.size() == 0


def test_strip_examples():
    assert is_horizontal_strip(SkewDiagram((3, 1), (1,)))
    assert not is_vertical_strip(SkewDiagram((3, 1), (1,)))
    assert not is_horizontal_strip(SkewDiagram((2, 2), (1,)))
    assert not is_vertical_strip(SkewDiagram((2, 2), (1,)))
    assert is_vertical_strip(SkewDiagram((2, 1), (1,)))
    empty = SkewDiagram((), ())
    assert is_horizontal_strip(empty)
    assert is_vertical_strip(empty)


def test_strip_duality_exhaustive():
    for n in range(7):
        for outer in partitions(n):
            for m in range(n + 1):
                for inner in partitions(m):
                    if not contains(outer, inner):
                        continue
                    d = SkewDiagram(outer, inner)
                    assert is_horizontal_strip(d) == is_vertical_strip(d.conjugate())
                    cols = [c for _, c in d.cells()]
                    assert is_horizontal_strip(d) == (len(cols) == len(set(cols)))


@given(st.lists(st.integers(1, 6), min_size=0, max_size=6))
def test_conjugate_involution_random(parts):
    lam = tuple(sorted(parts, reverse=True))
    assert conjugate_partition(conjugate_partition(lam)) == lam
    assert sum(conjugate_partition(lam)) == sum(lam)
