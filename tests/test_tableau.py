import itertools
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from superplactic import (
    AlphabetError,
    AlphabetMismatchError,
    ForeignLetterError,
    ShapeError,
    SkewTableau,
    Tableau,
    ValidationError,
    Word,
    check_tableau,
    conjugate_partition,
    enumerate_standard,
    enumerate_tableaux,
    make_alphabet,
    partitions,
    pretty,
    split_by_threshold,
    tableau_from_json,
    tableau_to_json,
    transpose,
    validate,
    word_of,
)
from superplactic.tableau import skew_tableau_to_json

from oracles import all_signatures, hook_length_count


def small_tableaux(alphabet, max_cells):
    for n in range(max_cells + 1):
        for lam in partitions(n):
            yield from enumerate_tableaux(lam, alphabet)


class TestWord:
    def test_symbols_and_letters(self, mixed4):
        w = Word(mixed4, ["1", "3", "3"])
        assert w.symbols == ("1", "3", "3")
        assert w.letters == (0, 2, 2)
        assert len(w) == 3

    def test_empty(self, mixed4):
        w = Word(mixed4)
        assert w.symbols == ()
        assert len(w) == 0

    def test_concat(self, mixed4):
        w = Word(mixed4, ["1", "3"]) + Word(mixed4, ["2"])
        assert w.symbols == ("1", "3", "2")

    def test_concat_rejects_other_alphabet(self, mixed4, mixed3):
        with pytest.raises(AlphabetMismatchError):
            Word(mixed4, ["1"]) + Word(mixed3, ["1"])

    def test_foreign_symbol(self, mixed4):
        with pytest.raises(ForeignLetterError):
            Word(mixed4, ["9"])

    def test_from_indices_bounds(self, mixed4):
        assert Word.from_indices(mixed4, [0, 3]).symbols == ("1", "4")
        with pytest.raises(ForeignLetterError):
            Word.from_indices(mixed4, [7])

    def test_equality_and_hash(self, mixed4):
        assert Word(mixed4, ["1", "3"]) == Word(mixed4, ["1", "3"])
        assert hash(Word(mixed4, ["1", "3"])) == hash(Word(mixed4, ["1", "3"]))
        assert Word(mixed4, ["1", "3"]) != Word(mixed4, ["3", "1"])


class TestValidate:
    def test_accepts_seventeen_cells(self, big_tableau):
        assert big_tableau.shape == (6, 4, 2, 2, 1, 1, 1)
        assert big_tableau.size() == 17

    def test_accepts_single_cell_and_empty(self, mixed4):
        assert validate([["4"]], mixed4).shape == (1,)
        assert validate([], mixed4).shape == ()
        assert Tableau.empty(mixed4).shape == ()

    def test_row_repeat_needs_even_letter(self, mixed4):
        assert validate([["1", "1"]], mixed4).shape == (2,)
        with pytest.raises(ValidationError) as exc:
            validate([["3", "3"]], mixed4)
        assert exc.value.cell == (1, 2)
        assert exc.value.condition == "row"

    def test_column_repeat_needs_odd_letter(self, mixed4):
        assert validate([["3"], ["3"]], mixed4).shape == (1, 1)
        with pytest.raises(ValidationError) as exc:
            validate([["1"], ["1"]], mixed4)
        assert exc.value.cell == (2, 1)
        assert exc.value.condition == "column"

    def test_decreasing_row_rejected(self, mixed4):
        with pytest.raises(ValidationError):
            validate([["2", "1"]], mixed4)
        with pytest.raises(ValidationError):
            validate([["2"], ["1"]], mixed4)

    def test_shape_errors(self, mixed4):
        with pytest.raises(ShapeError):
            validate([["1", "2"], ["1", "2", "3"]], mixed4)
        with pytest.raises(ShapeError):
            validate([["1"], []], mixed4)

    def test_foreign_letter(self, mixed4):
        with pytest.raises(ForeignLetterError):
            validate([["1", "7"]], mixed4)

    def test_first_violation_reported_row_major(self, mixed4):
        with pytest.raises(ValidationError) as exc:
            validate([["2", "1"], ["1", "4"]], mixed4)
        assert exc.value.cell == (1, 2)
        assert exc.value.condition == "row"

    def test_check_tableau_returns_instance(self, big_tableau):
        assert check_tableau(big_tableau) is big_tableau


class TestReadingWord:
    def test_bottom_up_rows(self, big_tableau):
        w = word_of(big_tableau)
        assert w.symbols == tuple("32224242334111145")

    def test_empty_and_single_row(self, mixed4):
        assert word_of(Tableau.empty(mixed4)).symbols == ()
        t = validate([["1", "2", "3"]], mixed4)
        assert word_of(t).symbols == ("1", "2", "3")

    def test_skew_input_rejected(self, mixed4):
        skew = SkewTableau(mixed4, (2,), (1,), [[2]])
        with pytest.raises(ShapeError):
            word_of(skew)

    def test_injective_on_small_domain(self, mixed4):
        seen = {}
        count = 0
        for t in small_tableaux(mixed4, 4):
            w = word_of(t).symbols
            assert w not in seen
            seen[w] = t
            count += 1
        assert count == len(seen)


class TestTranspose:
    def test_conjugates_shape_and_parities(self, mixed4):
        t = validate([["1", "1", "3"], ["2", "3"]], mixed4)
        tt = transpose(t)
        assert tt.shape == conjugate_partition(t.shape)
        assert tt.alphabet.parities == (1, 1, 0, 0)
        assert tt.symbol_rows() == (("1", "2"), ("1", "3"), ("3",))

    def test_involution_and_validity_exhaustive(self):
        letters = ["1", "2", "3"]
        for sig in all_signatures(3):
            alphabet = make_alphabet(letters, sig)
            for t in small_tableaux(alphabet, 5):
                tt = transpose(t)
                check_tableau(tt)
                assert tt.shape == conjugate_partition(t.shape)
                assert transpose(tt) == t

    def test_empty(self, mixed4):
        assert transpose(Tableau.empty(mixed4)).shape == ()


class TestSplitByThreshold:
    def test_small_large_split(self, split24):
        t = validate([["1", "1", "1", "6"], ["2", "4", "5"], ["3"]], split24)
        t0, t1 = split_by_threshold(t, 2)
        assert t0.symbol_rows() == (("1", "1", "1"), ("2",))
        assert (t1.outer, t1.inner) == ((4, 3, 1), (3, 1))
        assert t1.symbol_rows() == (("6",), ("4", "5"), ("3",))

    def test_extreme_thresholds(self, split24):
        t = validate([["1", "1", "1", "6"], ["2", "4", "5"], ["3"]], split24)
        t0, t1 = split_by_threshold(t, 0)
        assert t0.shape == ()
        assert (t1.outer, t1.inner) == ((4, 3, 1), ())
        t0, t1 = split_by_threshold(t, 6)
        assert t0.shape == (4, 3, 1)
        assert t1.inner == t1.outer
        assert t1.size() == 0

    def test_threshold_out_of_range(self, split24):
        t = validate([["1"]], split24)
        with pytest.raises(AlphabetError):
            split_by_threshold(t, 7)
        with pytest.raises(AlphabetError):
            split_by_threshold(t, -1)

    def test_pieces_partition_the_cells(self, mixed4):
        for t in small_tableaux(mixed4, 5):
            for k in range(5):
                t0, t1 = split_by_threshold(t, k)
                assert t0.shape == t1.inner
                assert t1.outer == t.shape
                assert t0.size() + t1.size() == t.size()
                small = set(t.alphabet.letters[:k])
                for row in t0.symbol_rows():
                    assert set(row) <= small
                for row in t1.symbol_rows():
                    assert not (set(row) & small)


class TestEnumerate:
    def test_two_letter_lists(self, mixed2):
        assert [t.symbol_rows() for t in enumerate_tableaux((2,), mixed2)] == [
            (("1", "1"),),
            (("1", "2"),),
        ]
        assert [t.symbol_rows() for t in enumerate_tableaux((1, 1), mixed2)] == [
            (("1",), ("2",)),
            (("2",), ("2",)),
        ]

    def test_all_even_counts_match_classical_dimensions(self, evens3):
        dims = {(3,): 10, (2, 1): 8, (1, 1, 1): 1, (2, 2): 6}
        for lam, dim in dims.items():
            assert sum(1 for _ in enumerate_tableaux(lam, evens3)) == dim

    def test_deterministic_and_distinct(self, mixed4):
        first = [t.symbol_rows() for t in enumerate_tableaux((2, 1), mixed4)]
        second = [t.symbol_rows() for t in enumerate_tableaux((2, 1), mixed4)]
        assert first == second
        assert len(first) == len(set(first))

    def test_every_result_validates(self, mixed4):
        for t in small_tableaux(mixed4, 5):
            assert validate(t.symbol_rows(), mixed4) == t

    def test_empty_shape(self, mixed4):
        assert [t.shape for t in enumerate_tableaux((), mixed4)] == [()]

    def test_long_row_stays_off_the_recursion_limit(self):
        e = make_alphabet(["1"], [0])
        assert [t.shape for t in enumerate_tableaux((1200,), e)] == [(1200,)]


class TestEnumerateStandard:
    def test_small_values(self):
        assert enumerate_standard(()) == 1
        assert enumerate_standard((4,)) == 1
        assert enumerate_standard((1, 1, 1)) == 1
        assert enumerate_standard((2, 1)) == 2
        assert enumerate_standard((2, 2)) == 2
        assert enumerate_standard((3, 2)) == 5

    def test_large_shapes(self):
        assert enumerate_standard((1200,)) == 1
        assert enumerate_standard((30, 30)) == math.comb(60, 30) // 31  # the 30th Catalan number

    def test_matches_hook_lengths(self):
        for n in range(7):
            for lam in partitions(n):
                assert enumerate_standard(lam) == hook_length_count(lam)


class TestPretty:
    def test_single_width(self, mixed4):
        t = validate([["1", "1", "4"], ["2", "4"]], mixed4)
        assert pretty(t) == "1 1 4\n2 4"

    def test_empty(self, mixed4):
        assert pretty(Tableau.empty(mixed4)) == "(empty)"

    def test_column_alignment_with_wide_symbols(self):
        wide = make_alphabet(["a", "bb", "ccc"], [0, 0, 0])
        t = validate([["a", "bb", "ccc"], ["bb", "ccc"]], wide)
        assert pretty(t) == "a  bb  ccc\nbb ccc"

    def test_skew_indent(self, split24):
        t = validate([["1", "1", "1", "6"], ["2", "4", "5"], ["3"]], split24)
        _, t1 = split_by_threshold(t, 2)
        assert pretty(t1) == "      6\n  4 5\n3"


class TestJson:
    def test_roundtrip(self, mixed4):
        t = validate([["1", "1", "4"], ["2", "4"]], mixed4)
        blob = tableau_to_json(t)
        assert blob == {"shape": [3, 2], "rows": [["1", "1", "4"], ["2", "4"]]}
        assert tableau_from_json(blob, mixed4) == t

    def test_shape_mismatch_rejected(self, mixed4):
        with pytest.raises(ShapeError):
            tableau_from_json({"shape": [2], "rows": [["1", "1"], ["2"]]}, mixed4)

    def test_invalid_rows_rejected(self, mixed4):
        with pytest.raises(ValidationError):
            tableau_from_json({"shape": [2], "rows": [["3", "3"]]}, mixed4)

    def test_skew_to_json(self, split24):
        t = validate([["1", "1", "1", "6"], ["2", "4", "5"], ["3"]], split24)
        _, t1 = split_by_threshold(t, 2)
        assert skew_tableau_to_json(t1) == {
            "outer": [4, 3, 1],
            "inner": [3, 1],
            "rows": [["6"], ["4", "5"], ["3"]],
        }


class TestSkewTableau:
    def test_validating_constructor(self, mixed4):
        t = SkewTableau(mixed4, (2, 2), (1,), [[2], [0, 2]])
        assert t.symbol_rows() == (("3",), ("1", "3"))
        assert t.size() == 3

    def test_column_violation_cell(self, mixed4):
        with pytest.raises(ValidationError) as exc:
            SkewTableau(mixed4, (2, 2), (1,), [[1], [0, 0]])
        assert exc.value.cell == (2, 2)
        assert exc.value.condition == "column"

    def test_row_violation_cell(self, mixed4):
        with pytest.raises(ValidationError) as exc:
            SkewTableau(mixed4, (3,), (1,), [[2, 2]])
        assert exc.value.cell == (1, 3)
        assert exc.value.condition == "row"

    def test_row_length_must_match_region(self, mixed4):
        with pytest.raises(ShapeError):
            SkewTableau(mixed4, (2, 2), (1,), [[2], [0]])


@given(
    st.integers(2, 4).flatmap(
        lambda k: st.tuples(
            st.lists(st.integers(0, 1), min_size=k, max_size=k),
            st.lists(st.integers(0, k - 1), min_size=0, max_size=7),
        )
    )
)
def test_enumerated_tableaux_round_trip_via_symbols(data):
    parities, _ = data
    alphabet = make_alphabet([str(i) for i in range(len(parities))], parities)
    for lam in partitions(4):
        for t in enumerate_tableaux(lam, alphabet):
            assert validate(t.symbol_rows(), alphabet) == t
