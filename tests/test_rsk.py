import contextlib
import copy
import io
import itertools
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import superplactic.rsk
from superplactic import (
    BoundExceededError,
    CornerError,
    ForeignLetterError,
    HypothesisError,
    ShapeError,
    Tableau,
    TwoRowedArray,
    ValidationError,
    Word,
    array_from_json,
    array_involution,
    array_to_json,
    c_lambda,
    check_susy,
    check_tableau,
    class_size,
    enumerate_arrays,
    enumerate_standard,
    enumerate_tableaux,
    has_symmetry,
    make_alphabet,
    partitions,
    plactic_class,
    rsk_forward,
    rsk_inverse,
    split_array,
    symmetry_probe,
    tableau_of_word,
    validate,
    validate_array,
    word_to_array,
)

from oracles import all_signatures, columns_clash, super_rsk


WORKED_COLUMNS = [
    ("2", "1"),
    ("1", "2"),
    ("1", "2"),
    ("1", "2"),
    ("6", "3"),
    ("5", "4"),
    ("4", "5"),
    ("3", "6"),
]


@pytest.fixture
def worked_array(split24):
    return validate_array(WORKED_COLUMNS, split24, split24)


class TestValidateArray:
    def test_accepts_worked_columns(self, worked_array, split24):
        assert worked_array.top_symbols == ("2", "1", "1", "1", "6", "5", "4", "3")
        assert worked_array.bottom_symbols == ("1", "2", "2", "2", "3", "4", "5", "6")
        assert worked_array.pretty() == "2 1 1 1 6 5 4 3\n1 2 2 2 3 4 5 6"
        assert TwoRowedArray(split24, split24).pretty() == "(empty)"

    def test_column_order_is_bottom_major(self, split24):
        with pytest.raises(ValidationError):
            validate_array([("1", "2"), ("1", "1")], split24, split24)
        with pytest.raises(ValidationError):
            validate_array([("2", "1"), ("1", "1")], split24, split24)
        assert validate_array([("1", "1"), ("2", "1")], split24, split24).pairs == ((0, 0), (1, 0))

    def test_repeated_column_needs_even_pair(self, split24):
        assert len(validate_array([("1", "1"), ("1", "1")], split24, split24).pairs) == 2
        assert len(validate_array([("3", "3"), ("3", "3")], split24, split24).pairs) == 2
        with pytest.raises(ValidationError):
            validate_array([("1", "3"), ("1", "3")], split24, split24)

    def test_empty(self, split24):
        arr = validate_array([], split24, split24)
        assert arr.pairs == ()
        t, u = rsk_forward(arr)
        assert t.shape == () and u.shape == ()

    def test_matches_rule_on_bottom_major_pairs(self):
        """Every sequence of up to three columns over every signed alphabet
        pair of one or two letters, against the rule written on (b, a)
        tuples: each column is at least the one before, and equal only at
        pair parity 0."""
        alphabets = [
            make_alphabet([str(i + 1) for i in range(k)], sig)
            for k in (1, 2)
            for sig in all_signatures(k)
        ]
        for top in alphabets:
            for bottom in alphabets:
                cols = [(a, b) for a in top.letters for b in bottom.letters]
                for k in range(4):
                    for seq in itertools.product(cols, repeat=k):
                        expected = None
                        for t in range(k - 1):
                            a1, b1 = seq[t]
                            a2, b2 = seq[t + 1]
                            if (b1, a1) > (b2, a2):
                                fault = "are out of order"
                            elif (a1, b1) == (a2, b2) and (top.parity_of(a1) + bottom.parity_of(b1)) % 2:
                                fault = "repeat a pair of parity 1"
                            else:
                                continue
                            expected = ("columns %d and %d %s" % (t + 1, t + 2, fault), (1, t + 2))
                            break
                        if expected is None:
                            assert validate_array(seq, top, bottom).top_symbols == tuple(a for a, _ in seq)
                        else:
                            with pytest.raises(ValidationError) as info:
                                validate_array(seq, top, bottom)
                            assert (str(info.value), info.value.cell) == expected


class TestForward:
    def test_worked_example(self, worked_array):
        t, u = rsk_forward(worked_array)
        assert t.symbol_rows() == (("1", "1", "1", "6"), ("2", "4", "5"), ("3",))
        assert u.symbol_rows() == (("1", "2", "2", "6"), ("2", "4", "5"), ("3",))

    def test_shapes_match_and_content_preserved(self, mixed3):
        for arr in enumerate_arrays(mixed3, mixed3, 3):
            t, u = rsk_forward(arr)
            check_tableau(t)
            check_tableau(u)
            assert t.shape == u.shape
            assert sorted(s for row in t.symbol_rows() for s in row) == sorted(arr.top_symbols)
            assert sorted(s for row in u.symbol_rows() for s in row) == sorted(arr.bottom_symbols)

    def test_all_even_bottom_gives_insertion_tableau(self, mixed4):
        for letters in itertools.product(range(4), repeat=4):
            w = Word.from_indices(mixed4, letters)
            t, u = rsk_forward(word_to_array(w))
            assert t == tableau_of_word(w)
            entries = sorted(s for row in u.symbol_rows() for s in row)
            assert entries == [str(i) for i in range(1, len(w) + 1)]

    @pytest.mark.parametrize("pairs, cell, condition", [
        ([(0, 1), (0, 0)], (1, 2), "row"),
        ([(1, 0), (0, 0)], (2, 1), "column"),
    ])
    def test_u_fault_names_its_cell(self, evens3, pairs, cell, condition):
        """Trusted unsorted arrays whose U breaks one condition: rsk_forward
        names the cell and the condition that check_tableau names on the
        oracle's U, in the same words."""
        message = "%s condition fails at cell (%d, %d)" % ((condition,) + cell)
        _, u_rows = super_rsk(pairs, evens3.parities, evens3.parities)
        with pytest.raises(ValidationError) as full:
            check_tableau(Tableau(evens3, u_rows))
        with pytest.raises(ValidationError) as per_cell:
            rsk_forward(TwoRowedArray(evens3, evens3, pairs))
        for exc in (full, per_cell):
            assert str(exc.value) == message
            assert (exc.value.cell, exc.value.condition) == (cell, condition)

    @pytest.mark.parametrize("bottom", [3, -1, 0.5, 1.0])
    def test_foreign_bottom_letter(self, evens3, bottom):
        with pytest.raises(ForeignLetterError, match="letter index .* out of range"):
            rsk_forward(TwoRowedArray(evens3, evens3, [(0, 0), (1, bottom)]))

    def test_row_longer_than_the_row_above(self, monkeypatch, evens3):
        """No insertion grows T off a partition shape, so a bump that puts
        the cells in rows 0, 1, 1 is patched in: the third cell makes row
        2 of U longer than row 1.  Each bottom letter heads one column, so
        every column takes the one-bump path."""
        rows = iter([0, 1, 1])
        monkeypatch.setattr(superplactic.rsk, "_bump_row", lambda trows, a, col_next: next(rows))
        with pytest.raises(ShapeError, match=r"row lengths must weakly decrease, got \[1, 2\]"):
            rsk_forward(TwoRowedArray(evens3, evens3, [(0, 0), (0, 1), (0, 2)]))


def test_per_cell_check_is_the_full_check():
    """On seeded trusted arrays of 1-12 columns over 1-4 letters, unsorted,
    or sorted and free to repeat a pair of parity 1, rsk_forward raises exactly
    when check_tableau rejects the oracle's U; otherwise it returns the
    oracle's pair, and when it raises, the cell it names breaks the
    condition it names in the oracle's U."""
    rng = random.Random(1313)
    outcomes = {True: 0, False: 0}
    for _ in range(4000):
        top, bottom = (make_alphabet("abcd"[:k], [rng.randint(0, 1) for _ in range(k)])
                       for k in (rng.randint(1, 4), rng.randint(1, 4)))
        pairs = [(rng.randrange(len(top)), rng.randrange(len(bottom)))
                 for _ in range(rng.randint(1, 12))]
        if rng.random() < 0.5:
            pairs.sort(key=lambda ab: (ab[1], ab[0]))
        t_rows, u_rows = super_rsk(pairs, top.parities, bottom.parities)
        try:
            check_tableau(Tableau(bottom, u_rows))
            accepted = True
        except ValidationError:
            accepted = False
        outcomes[accepted] += 1
        array = TwoRowedArray(top, bottom, pairs)
        if accepted:
            t, u = rsk_forward(array)
            assert (t.rows, u.rows) == (t_rows, u_rows)
            continue
        with pytest.raises(ValidationError) as exc:
            rsk_forward(array)
        i, j = exc.value.cell
        x = u_rows[i - 1][j - 1]
        par = bottom.parities
        if exc.value.condition == "row":
            left = u_rows[i - 1][j - 2]
            assert j > 1 and (left > x or (left == x and par[x] == 1))
        else:
            up = u_rows[i - 2][j - 1]
            assert i > 1 and (up > x or (up == x and par[x] == 0))
    assert min(outcomes.values()) > 1000, outcomes


class TestInverse:
    def test_worked_example(self, worked_array, split24):
        t, u = rsk_forward(worked_array)
        assert rsk_inverse(t, u) == worked_array

    def test_roundtrip_small_pairs(self, mixed2):
        for n in range(4):
            for lam in partitions(n):
                for t in enumerate_tableaux(lam, mixed2):
                    for u in enumerate_tableaux(lam, mixed2):
                        arr = rsk_inverse(t, u)
                        assert rsk_forward(arr) == (t, u)

    def test_shape_mismatch(self, mixed2):
        t = validate([["1"]], mixed2)
        u = validate([["1", "2"]], mixed2)
        with pytest.raises(ShapeError):
            rsk_inverse(t, u)

    def test_invalid_recording_tableau(self, mixed2):
        t = Tableau(mixed2, [(0,), (1,)])
        bad = Tableau(mixed2, [(1,), (0,)])
        with pytest.raises(CornerError):
            rsk_inverse(t, bad)

    def test_repeated_parity_one_letter_in_a_row(self, mixed2):
        """2 has parity 1, so U = [2 2] breaks the row condition.  One
        column deletion per 2 would return the array (1,2) (1,2), which
        repeats a column of parity 1; the second 2 is not smaller than
        the first, so this raises."""
        with pytest.raises(CornerError, match="letter 2 heads no removable column corner"):
            rsk_inverse(Tableau(mixed2, [(0, 0)]), Tableau(mixed2, [(1, 1)]))

    def test_recording_tableau_with_one_fault(self):
        """Seeded trusted U's that break exactly one row or column
        condition, each made by changing one letter of a valid U, raise
        CornerError; T is the valid insertion tableau of the same array."""
        rng = random.Random(2019)
        faults = {"row": 0, "column": 0}
        for _ in range(1500):
            top, bottom = (make_alphabet("abcd"[:k], [rng.randint(0, 1) for _ in range(k)])
                           for k in (rng.randint(1, 4), rng.randint(2, 4)))
            array = _random_valid_array(rng, top, bottom, rng.randint(1, 14))
            t, u = rsk_forward(array)
            rows = [list(row) for row in u.rows]
            i = rng.randrange(len(rows))
            rows[i][rng.randrange(len(rows[i]))] = rng.randrange(len(bottom))
            broken = _broken_conditions(rows, bottom.parities)
            if len(broken) != 1:
                continue
            faults[broken[0]] += 1
            with pytest.raises(CornerError):
                rsk_inverse(t, Tableau(bottom, rows))
        assert min(faults.values()) > 100, faults


def _random_valid_array(rng, top, bottom, size):
    """`size` random columns sorted bottom letter first, with a repeated
    column of pair parity 1 dropped."""
    pairs = sorted(((rng.randrange(len(top)), rng.randrange(len(bottom))) for _ in range(size)),
                   key=lambda ab: (ab[1], ab[0]))
    par = (top.parities, bottom.parities)
    keep = [p for k, p in enumerate(pairs)
            if k == 0 or p != pairs[k - 1] or (par[0][p[0]] + par[1][p[1]]) % 2 == 0]
    return TwoRowedArray(top, bottom, keep)


def _broken_conditions(rows, parities):
    """The condition, "row" or "column", of each pair of neighbouring cells
    that breaks it: parity-0 letters may repeat along a row, parity-1
    letters down a column, and letters otherwise increase."""
    broken = []
    for i, row in enumerate(rows):
        for j, y in enumerate(row):
            if j and not (row[j - 1] < y or (row[j - 1] == y and parities[y] == 0)):
                broken.append("row")
            if i and not (rows[i - 1][j] < y or (rows[i - 1][j] == y and parities[y] == 1)):
                broken.append("column")
    return broken


class TestStrips:
    """rsk_forward inserts each run of at least `_STRIP_MIN` columns over
    one parity-0 bottom letter as one row word, and rsk_inverse peels each
    letter of U as one strip.  Lowering `_STRIP_MIN` to 2 sends every such
    run of two or more columns through the strip."""

    def test_roundtrip_every_small_array(self, monkeypatch):
        """Every array of up to 5 columns over every pair of 3-letter
        signatures that repeats a parity-0 bottom letter, so that a strip
        forms, comes back from rsk_inverse: 39,120 of the 70,528 arrays.
        (Criterion 08 round-trips every array of up to 4 columns.)"""
        monkeypatch.setattr(superplactic.rsk, "_STRIP_MIN", 2)
        arrays = 0
        for sig_top in all_signatures(3):
            top = make_alphabet(["1", "2", "3"], sig_top)
            for sig_bottom in all_signatures(3):
                bottom = make_alphabet(["a", "b", "c"], sig_bottom)
                for arr in enumerate_arrays(top, bottom, 5):
                    bottoms = [b for _, b in arr.pairs]
                    if any(b == c and sig_bottom[b] == 0 for b, c in zip(bottoms, bottoms[1:])):
                        assert rsk_inverse(*rsk_forward(arr)) == arr
                        arrays += 1
        assert arrays == 39120

    def test_strips_match_one_bump_per_column(self, monkeypatch):
        """On trusted arrays, unsorted or free to repeat a pair of parity 1,
        the strips give the same pair, or raise the same error naming the
        same cell and condition, as one bump per column: 1,200 seeded
        arrays of up to 24 columns, and every sequence of 2 to 5 columns
        over each pair of 2-letter signatures.  Among those, a strip's run
        of cells in a row, which one `_check_cell` call checks, can fail
        the column condition after its first cell.  `has_symmetry` runs
        the strips on both of its sides, and gives the same outcome on
        those arrays and on every array of up to 5 columns over each pair
        of a 3-letter and a 2-letter signature, either way round (15,120
        arrays)."""
        rng = random.Random(1919)
        arrays = []
        for _ in range(1200):
            top, bottom = (make_alphabet("abcd"[:k], [rng.randint(0, 1) for _ in range(k)])
                           for k in (rng.randint(1, 4), rng.randint(1, 3)))
            pairs = [(rng.randrange(len(top)), rng.randrange(len(bottom))) for _ in range(rng.randint(2, 24))]
            if rng.random() < 0.7:
                pairs.sort(key=lambda ab: (ab[1], ab[0]))
            arrays.append(TwoRowedArray(top, bottom, pairs))
        for sig_top in all_signatures(2):
            for sig_bottom in all_signatures(2):
                top, bottom = make_alphabet("ab", sig_top), make_alphabet("xy", sig_bottom)
                for length in range(2, 6):
                    arrays += (TwoRowedArray(top, bottom, pairs)
                               for pairs in itertools.product(itertools.product(range(2), repeat=2), repeat=length))
        assert len(arrays) == 1200 + 21760
        small = []
        for sig3 in all_signatures(3):
            for sig2 in all_signatures(2):
                three, two = make_alphabet("abc", sig3), make_alphabet("xy", sig2)
                small += [*enumerate_arrays(three, two, 5), *enumerate_arrays(two, three, 5)]
        assert len(small) == 15120

        frames = []  # the frame that raised each fault, and its run of cells

        def outcome(run, array):
            try:
                return run(array)
            except ValidationError as exc:
                tb = exc.__traceback__
                while tb.tb_next:
                    tb = tb.tb_next
                frames.append((tb.tb_frame.f_code.co_name, tb.tb_frame.f_locals.get("g")))
                return str(exc), exc.cell, exc.condition

        outcomes = []
        for strip_min in (2, 10**9):  # every run of two or more, then none
            monkeypatch.setattr(superplactic.rsk, "_STRIP_MIN", strip_min)
            forward = [outcome(rsk_forward, array) for array in arrays]
            symmetric = [outcome(has_symmetry, array) for array in arrays + small]
            outcomes.append((forward, symmetric))
        assert outcomes[0] == outcomes[1]
        forward, symmetric = outcomes[0]
        strip_faults = sum(name == "_check_cell" and g > 1 for name, g in frames)
        assert strip_faults > 50 and sum(len(out) == 2 for out in forward) > 200
        assert symmetric[len(arrays):].count(False) > 1000

    def test_a_run_of_cells_is_checked_as_one_cell_at_a_time(self):
        """`_check_cell` on the last g cells of a row, which hold one
        parity-0 letter, raises what placing them one cell at a time
        raises, or nothing when that raises nothing: every row of up to 3
        cells with a run of 1 to 3 cells after it, under every weakly
        increasing row of 1 to 4 cells or none, over every 3-letter
        signature."""
        check = superplactic.rsk._check_cell

        def outcome(urows, run):
            try:
                run(urows)
            except ShapeError as exc:
                return type(exc), str(exc)
            except ValidationError as exc:
                return type(exc), str(exc), exc.cell, exc.condition
            return None

        def one_at_a_time(urows, b, g):
            for _ in range(g):
                urows[-1].append(b)
                check(urows, len(urows) - 1, prow, pcol)

        faults = set()
        for sig in all_signatures(3):
            alphabet = make_alphabet("abc", sig)
            prow, pcol = alphabet.row_next, alphabet.col_next
            aboves = [None] + [list(row) for k in range(1, 5)
                               for row in itertools.combinations_with_replacement(range(3), k)]
            for above, b, g, k in itertools.product(aboves, range(3), range(1, 4), range(4)):
                if sig[b]:
                    continue
                for left in itertools.product(range(3), repeat=k):
                    start = [] if above is None else [above]
                    run = outcome([*start, [*left, *[b] * g]], lambda u: check(u, len(u) - 1, prow, pcol, g))
                    assert run == outcome([*start, [*left]], lambda u: one_at_a_time(u, b, g))
                    faults.add(run and run[0])
        assert faults == {None, ShapeError, ValidationError}


class TestWordEmbedding:
    def test_positions_all_even(self, mixed4):
        w = Word(mixed4, ["2", "1", "3"])
        arr = word_to_array(w)
        assert arr.top_symbols == ("2", "1", "3")
        assert arr.bottom_symbols == ("1", "2", "3")
        assert arr.bottom_alphabet.parities == (0, 0, 0)

    def test_class_size_agrees_with_search(self, mixed3):
        for length in range(5):
            for letters in itertools.product(range(3), repeat=length):
                w = Word.from_indices(mixed3, letters)
                assert class_size(w) == len(plactic_class(w))

    def test_class_size_is_standard_count(self, mixed4):
        for letters in itertools.product(range(4), repeat=4):
            w = Word.from_indices(mixed4, letters)
            assert class_size(w) == enumerate_standard(tableau_of_word(w).shape)

    def test_bound(self, mixed2):
        with pytest.raises(BoundExceededError):
            class_size(Word(mixed2, ["1"] * 10))
        assert class_size(Word(mixed2, ["1"] * 10), max_len=10) == 1


class TestInvolution:
    def test_swaps_rows_and_alphabets(self, worked_array, split24):
        flip = array_involution(worked_array)
        assert flip.top_alphabet == split24
        assert sorted(zip(flip.top_symbols, flip.bottom_symbols)) == sorted(
            zip(worked_array.bottom_symbols, worked_array.top_symbols)
        )

    def test_is_involution(self, mixed2, mixed3):
        for arr in enumerate_arrays(mixed2, mixed3, 3):
            assert array_involution(array_involution(arr)) == arr

    def test_worked_array_is_symmetric(self, worked_array):
        assert has_symmetry(worked_array)

    def test_empty_array_is_symmetric(self, mixed2):
        assert has_symmetry(validate_array([], mixed2, mixed2))

    def test_all_even_alphabets_always_symmetric(self, evens2):
        for arr in enumerate_arrays(evens2, evens2, 3):
            assert has_symmetry(arr)

    def test_two_columns_are_asymmetric_exactly_when_they_clash(self):
        """Rule 2C on every two-column array over every pair of 1-3-letter
        signatures: columns in bottom-major order, equal only at pair
        parity 0, as enumerate_arrays lists them."""
        alphabets = [make_alphabet([str(i + 1) for i in range(k)], sig)
                     for k in (1, 2, 3) for sig in all_signatures(k)]
        arrays = asymmetric = 0
        for top in alphabets:
            lp = top.parities
            for bottom in alphabets:
                pp = bottom.parities
                cols = sorted(((a, b) for a in range(len(lp)) for b in range(len(pp))), key=lambda c: (c[1], c[0]))
                pairs = [(first, second) for i, first in enumerate(cols) for second in cols[i:]
                         if first != second or (lp[first[0]] + pp[first[1]]) % 2 == 0]
                assert [arr.pairs for arr in enumerate_arrays(top, bottom, 2) if len(arr) == 2] == pairs
                for first, second in pairs:
                    clash = columns_clash(first, second, lp, pp)
                    assert has_symmetry(TwoRowedArray(top, bottom, [first, second])) is not clash, (lp, pp, first, second)
                    arrays += 1
                    asymmetric += clash
        assert (arrays, asymmetric) == (4050, 784)


class TestClosingArray:
    COLUMNS = [("3", "1"), ("4", "2"), ("1", "3"), ("2", "4")]

    def build(self, signature):
        alphabet = make_alphabet(["1", "2", "3", "4"], signature)
        return validate_array(self.COLUMNS, alphabet, alphabet)

    def test_fixed_point_of_involution(self):
        arr = self.build((0, 1, 1, 1))
        assert array_involution(arr).pairs == arr.pairs

    def test_symmetric_signatures(self):
        for signature in [(0, 0, 0, 0), (0, 1, 1, 1), (1, 0, 0, 0), (1, 1, 1, 1)]:
            assert has_symmetry(self.build(signature))

    def test_an_asymmetric_signature_exists(self):
        assert not has_symmetry(self.build((0, 0, 1, 1)))


class TestSusy:
    def test_worked_example(self, worked_array):
        assert check_susy(worked_array) is True

    def test_split_pieces(self, worked_array):
        s0, s1 = split_array(worked_array)
        assert s0.top_symbols == ("2", "1", "1", "1")
        assert s0.bottom_symbols == ("1", "2", "2", "2")
        assert s0.top_alphabet.letters == ("1", "2")
        assert s1.top_symbols == ("6", "5", "4", "3")
        assert s1.bottom_symbols == ("3", "4", "5", "6")
        assert s1.top_alphabet.letters == ("3", "4", "5", "6")
        assert s1.top_alphabet.parities == (1, 1, 1, 1)

    def test_split_respects_forward_map(self, worked_array, split24):
        t, u = rsk_forward(worked_array)
        s0, _ = split_array(worked_array)
        t0, u0 = rsk_forward(s0)
        from superplactic import split_by_threshold

        t0_whole, _ = split_by_threshold(t, 2)
        u0_whole, _ = split_by_threshold(u, 2)
        assert t0.symbol_rows() == t0_whole.symbol_rows()
        assert u0.symbol_rows() == u0_whole.symbol_rows()

    def test_odd_pair_rejected(self, mixed4):
        arr = validate_array([("3", "1")], mixed4, mixed4)
        with pytest.raises(HypothesisError):
            check_susy(arr)

    def test_unaligned_alphabets_rejected(self, mixed4):
        evens_last = make_alphabet(["1", "2", "3", "4"], [1, 1, 0, 0])
        arr = validate_array([("1", "3")], mixed4, evens_last)
        with pytest.raises(HypothesisError, match="aligned parity blocks"):
            check_susy(arr)

    def test_split_rejects_odd_pair(self, mixed4):
        arr = validate_array([("3", "1")], mixed4, mixed4)
        with pytest.raises(HypothesisError, match="pair parity 1"):
            split_array(arr)

    def test_interleaved_alphabet_rejected(self, mixed3):
        arr = validate_array([("1", "1")], mixed3, mixed3)
        with pytest.raises(HypothesisError):
            split_array(arr)

    def test_odd_first_split_accepted(self):
        oddfirst = make_alphabet(["1", "2", "3", "4"], [1, 1, 0, 0])
        arr = validate_array([("1", "1")], oddfirst, oddfirst)
        assert check_susy(arr) is True


class TestCanonicalTableau:
    def test_small_shape(self):
        c = c_lambda((3, 2))
        assert c.symbol_rows() == (("1", "2", "3"), ("1", "2"))
        assert c.alphabet.parities == (1, 1, 1)

    def test_empty(self):
        assert c_lambda(()).shape == ()

    def test_valid_for_all_small_shapes(self):
        for n in range(9):
            for lam in partitions(n):
                c = c_lambda(lam)
                check_tableau(c)
                assert c.shape == lam
                width = lam[0] if lam else 0
                assert len(c.alphabet.letters) == width
                for row in c.symbol_rows():
                    assert row == tuple(str(j + 1) for j in range(len(row)))


class TestEnumerateArrays:
    def test_counts_single_letter(self):
        e1 = make_alphabet(["1"], [0])
        o1 = make_alphabet(["1"], [1])
        assert sum(1 for _ in enumerate_arrays(e1, e1, 2)) == 3
        assert sum(1 for _ in enumerate_arrays(o1, o1, 2)) == 3
        assert sum(1 for _ in enumerate_arrays(e1, o1, 2)) == 2

    def test_every_array_revalidates(self):
        """Every column the walk makes re-validates through its symbols, over
        every pair of 1-3-letter signatures: its letters are ints in range.
        `symmetry_probe` steps its memo on the walk's letters unchecked."""
        signatures = [sig for k in (1, 2, 3) for sig in all_signatures(k)]
        total = 0
        for top_sig, bottom_sig in itertools.product(signatures, repeat=2):
            top = make_alphabet(["1", "2", "3"][:len(top_sig)], top_sig)
            bottom = make_alphabet(["x", "y", "z"][:len(bottom_sig)], bottom_sig)
            arrays = list(enumerate_arrays(top, bottom, 3))
            for arr in arrays:
                assert all(type(a) is type(b) is int for a, b in arr.pairs)
                cols = list(zip(arr.top_symbols, arr.bottom_symbols))
                assert validate_array(cols, top, bottom).pairs == arr.pairs
            assert len({a.pairs for a in arrays}) == len(arrays)
            total += len(arrays)
        assert total == 16204

    def test_deterministic(self, mixed2):
        first = [a.pairs for a in enumerate_arrays(mixed2, mixed2, 3)]
        second = [a.pairs for a in enumerate_arrays(mixed2, mixed2, 3)]
        assert first == second

    def test_order_pinned(self, mixed2):
        # Each array precedes its extensions, which follow in increasing
        # last column; (1,2) and (2,1) have pair parity 1 and never repeat.
        assert [a.pairs for a in enumerate_arrays(mixed2, mixed2, 2)] == [
            (),
            ((0, 0),),
            ((0, 0), (0, 0)),
            ((0, 0), (1, 0)),
            ((0, 0), (0, 1)),
            ((0, 0), (1, 1)),
            ((1, 0),),
            ((1, 0), (0, 1)),
            ((1, 0), (1, 1)),
            ((0, 1),),
            ((0, 1), (1, 1)),
            ((1, 1),),
            ((1, 1), (1, 1)),
        ]

    def test_long_arrays_stay_off_the_recursion_limit(self):
        e = make_alphabet(["1"], [0])
        assert sum(1 for _ in enumerate_arrays(e, e, 1500)) == 1501

    def test_negative_max_cols_raises_on_call(self, mixed2):
        with pytest.raises(ValueError):
            enumerate_arrays(mixed2, mixed2, -1)


class TestProbe:
    def test_counts_and_sink(self, mixed2):
        rows = []
        report = symmetry_probe(mixed2, mixed2, 2, sink=rows.append)
        assert report.total == 13
        assert sum(report.counts.values()) == 13
        assert len(rows) == 13
        assert report.counts[(True, False)] == 0
        assert report.counts[(False, False)] == 0
        for record in rows:
            assert set(record) == {"top", "bottom", "hypothesis", "symmetric"}
        # Four more pairs, with their counts (hypothesis_asymmetric,
        # hypothesis_symmetric, unrestricted_asymmetric, unrestricted_symmetric)
        # and one record per array: 180, 501, and 129 twice.  Over the aligned
        # pair 0,0,1 / 0,0,1 no array that meets the hypotheses is asymmetric;
        # the involution gives a 2-letter and a 3-letter signature one census
        # both ways round.
        for top, bottom, max_cols, counts in (((0, 1, 0), (0, 1, 0), 3, (0, 0, 52, 128)),
                                              ((0, 0, 1), (0, 0, 1), 4, (0, 126, 192, 183)),
                                              ((0, 1), (0, 1, 0), 4, (0, 0, 40, 89)),
                                              ((0, 1, 0), (0, 1), 4, (0, 0, 40, 89))):
            rows = []
            report = symmetry_probe(make_alphabet("abc"[:len(top)], top), make_alphabet("abc"[:len(bottom)], bottom),
                                    max_cols, sink=rows.append)
            assert tuple(report.counts[hyp, sym] for hyp in (True, False) for sym in (False, True)) == counts
            assert report.total == len(rows) == sum(counts)

    def test_json_structure(self, mixed2):
        obj = symmetry_probe(mixed2, mixed2, 2).to_json_obj()
        assert set(obj) == {"max_cols", "total", "counts", "examples"}
        names = {
            "hypothesis_symmetric",
            "hypothesis_asymmetric",
            "unrestricted_symmetric",
            "unrestricted_asymmetric",
        }
        assert set(obj["counts"]) == names
        assert set(obj["examples"]) == names
        assert obj["counts"]["hypothesis_asymmetric"] == 0

    def test_mixed_pairs_can_be_asymmetric(self):
        alphabet = make_alphabet(["1", "2", "3", "4"], [0, 0, 1, 1])
        report = symmetry_probe(alphabet, alphabet, 4, max_arrays=10**6)
        assert report.counts[(False, False)] > 0

    def test_cap(self, mixed2):
        with pytest.raises(BoundExceededError):
            symmetry_probe(mixed2, mixed2, 3, max_arrays=5)

    def test_cap_is_checked_before_the_walk(self, mixed2):
        """The arrays are counted before the walk, so a bound on their number
        also bounds their length: max_cols = 10**22 raises at once, before
        the sink sees a record, and names the count it would have walked."""
        records = []
        with pytest.raises(BoundExceededError, match="^probe exceeded 1000000 arrays$") as info:
            symmetry_probe(mixed2, mixed2, 10**22, sink=records.append)
        assert records == []
        assert info.value.observed > 10**44
        report = symmetry_probe(mixed2, mixed2, 4, max_arrays=41)
        assert report.total == 41 == sum(1 for _ in enumerate_arrays(mixed2, mixed2, 4))
        with pytest.raises(BoundExceededError):
            symmetry_probe(mixed2, mixed2, 4, max_arrays=40, sink=records.append)
        assert records == []

    def test_census_of_small_signatures(self):
        """Every array over the pair is symmetric only when both alphabets
        are constant, with the same constant, up to the parity of each
        one's smallest letter: 8 pairs for each size.  Checked on all pairs
        of 2-letter signatures up to 6 columns, all pairs of 3-letter ones
        up to 4, and all 256 pairs of 4-letter ones up to 3 (213,248
        arrays)."""
        for size, max_cols, arrays in ((2, 6, 1472), (3, 4, 30496), (4, 3, 213248)):
            alphabets = [make_alphabet([str(i + 1) for i in range(size)], list(sig))
                         for sig in all_signatures(size)]
            all_symmetric = set()
            total = 0
            for top in alphabets:
                for bottom in alphabets:
                    report = symmetry_probe(top, bottom, max_cols)
                    total += report.total
                    counts = report.counts
                    if counts[(True, False)] + counts[(False, False)] == 0:
                        all_symmetric.add((top.parities, bottom.parities))
            kinds = [{(0,) + (c,) * (size - 1), (1,) + (c,) * (size - 1)} for c in (0, 1)]
            expected = {(a, b) for kind in kinds for a in kind for b in kind}
            assert len(expected) == 8
            assert all_symmetric == expected, size
            assert total == arrays, size

    def test_against_oracle_on_small_signatures(self):
        """On every pair of signatures of 1-3 letters up to 3 columns:
        has_symmetry is the independent oracle's answer to whether the
        involution has the tableau pair (U, T), and the probe streams one
        record per array of enumerate_arrays, in the same order, with the
        oracle's symmetry and the hypotheses read off the parities."""
        def blocks(par):
            return {p for p in (0, 1) if list(par) == sorted(par, reverse=p == 1)}

        alphabets = [make_alphabet("abc"[:k], sig) for k in (1, 2, 3) for sig in all_signatures(k)]
        for top in alphabets:
            lpar = top.parities
            for bottom in alphabets:
                ppar = bottom.parities
                aligned = bool(blocks(lpar) & blocks(ppar))
                records = []
                symmetry_probe(top, bottom, 3, sink=records.append)
                expected = []
                for arr in enumerate_arrays(top, bottom, 3):
                    t, u = super_rsk(arr.pairs, lpar, ppar)
                    swapped = sorted(((b, a) for a, b in arr.pairs), key=lambda ba: (ba[1], ba[0]))
                    sym = super_rsk(swapped, ppar, lpar) == (u, t)
                    assert has_symmetry(arr) == sym
                    hyp = aligned and all((lpar[a] + ppar[b]) % 2 == 0 for a, b in arr.pairs)
                    expected.append({"top": list(arr.top_symbols), "bottom": list(arr.bottom_symbols),
                                     "hypothesis": hyp, "symmetric": sym})
                assert records == expected

    def test_checkpoints_agree_with_the_full_replay(self):
        """The probe starts each array's involuted side from a checkpoint of
        its parent, has_symmetry replays every column.  They agree on every
        array of enumerate_arrays, in order, over every pair of a 2-letter
        and a 3-letter signature, either way round, up to 5 columns: deep
        enough that arrays of several top-letter blocks replay some of them
        and share the rest (15,120 arrays)."""
        twos = [make_alphabet("ab", sig) for sig in all_signatures(2)]
        threes = [make_alphabet("abc", sig) for sig in all_signatures(3)]
        total = 0
        for tops, bottoms in ((twos, threes), (threes, twos)):
            for top in tops:
                for bottom in bottoms:
                    records = []
                    symmetry_probe(top, bottom, 5, sink=records.append)
                    assert [record["symmetric"] for record in records] == [
                        has_symmetry(array) for array in enumerate_arrays(top, bottom, 5)]
                    total += len(records)
        assert total == 15120

    def test_involuted_side_replays_only_the_columns_after_the_new_one(self, monkeypatch):
        """Counts the insertions of one census.  Replaying every column of
        every array, as has_symmetry does, would cost the involuted side
        alone one insertion per column of the census; with the checkpoints
        and the step memo, which bumps each (tableau, letter, parity) of a
        side once, both sides together make fewer insertions than there are
        arrays."""
        counted = [0]
        for name in ("_bump_row", "_bump_col"):
            def counting(*args, bump=getattr(superplactic.rsk, name)):
                counted[0] += 1
                return bump(*args)
            monkeypatch.setattr(superplactic.rsk, name, counting)
        alphabet = make_alphabet("abc", [0, 0, 1])
        report = symmetry_probe(alphabet, alphabet, 6)
        columns = sum(len(array) for array in enumerate_arrays(alphabet, alphabet, 6))
        assert (report.total, columns) == (2471, 12901)
        assert counted[0] < report.total

    def test_each_distinct_step_of_u_is_checked_once(self, monkeypatch):
        """Counts the cell checks of the same census.  Checking every cell
        as it is placed would cost each array past the empty one at least
        two checks, one per side; with U and U2 interned and each placement
        of a letter in a row of an interned tableau checked once, when first
        met, the census makes fewer checks than there are arrays."""
        counted = [0]

        def counting(*args, check=superplactic.rsk._check_cell):
            counted[0] += 1
            return check(*args)

        monkeypatch.setattr(superplactic.rsk, "_check_cell", counting)
        alphabet = make_alphabet("abc", [0, 0, 1])
        report = symmetry_probe(alphabet, alphabet, 6)
        assert report.total == 2471
        assert 0 < counted[0] < report.total

    def test_sink_records_are_independent(self):
        """Every record's lists belong to the sink: a sink that keeps the
        records, and one that changes each record it gets, see the same
        records, in order, as one that deep-copies each record."""
        top = make_alphabet("abc", [0, 1, 0])
        bottom = make_alphabet("xy", [1, 0])
        copied = []
        symmetry_probe(top, bottom, 4, sink=lambda record: copied.append(copy.deepcopy(record)))
        kept = []
        symmetry_probe(top, bottom, 4, sink=kept.append)
        seen = []

        def mutating(record):
            seen.append(copy.deepcopy(record))
            record["top"].append("?")
            record["bottom"].clear()

        symmetry_probe(top, bottom, 4, sink=mutating)
        assert len(copied) == sum(1 for _ in enumerate_arrays(top, bottom, 4)) > 100
        assert kept == copied
        assert seen == copied

    @pytest.mark.parametrize("side", ["forward", "involuted"])
    def test_both_sides_validate_u(self, monkeypatch, side):
        """Each side checks every cell it places in its U with the shared
        `_check_cell`: a fault in the U of one side stops the probe and
        has_symmetry, and the order tables the check was given show which
        side raised, as the forward U holds bottom letters and the
        involuted U top letters.  The probe's walk never makes a faulty
        array, so the prefixes of one are patched in.  The forward U gets
        two copies of the parity-1 bottom letter x side by side in a row:
        the column (1, x) and then (0, x), out of order.  The involuted U
        gets a fault while the forward U stays valid: repeating the
        parity-1 column (2, y) over an all-even bottom alphabet puts two
        parity-1 letters side by side in a row of the involuted U.  The
        probe meets it in its last array, on a checkpoint built from the
        prefix before it."""
        top = make_alphabet(["1", "2"], [0, 1])
        if side == "forward":
            bottom = make_alphabet(["x", "y"], [1, 0])
            cols = [(1, 0), (0, 0)]
            match = r"row condition fails at cell \(1, 2\)"
        else:
            bottom = make_alphabet(["x", "y"], [0, 0])
            cols = [(0, 0), (0, 0), (1, 1), (1, 1)]
            match = r"row condition fails at cell \(2, 2\)"
            rsk_forward(TwoRowedArray(top, bottom, cols))
        prefixes = [cols[:k] for k in range(len(cols) + 1)]
        monkeypatch.setattr(superplactic.rsk, "_column_walk",
                            lambda top, bottom, max_cols: iter(prefixes))
        records = []
        with pytest.raises(ValidationError, match=match) as probe:
            symmetry_probe(top, bottom, len(cols), sink=records.append)
        assert [record["symmetric"] for record in records] == [
            has_symmetry(TwoRowedArray(top, bottom, prefix)) for prefix in prefixes[:len(records)]]
        assert len(records) == {"forward": 2, "involuted": 4}[side]
        single_array = TwoRowedArray(top, bottom, cols)
        with pytest.raises(ValidationError, match=match) as single:
            has_symmetry(single_array)
        u_alphabet = bottom if side == "forward" else top
        for exc in (probe, single):
            check = exc.traceback[-1]
            assert check.name == "_check_cell"
            assert check.locals["prow"] is u_alphabet.row_next
            assert check.locals["pcol"] is u_alphabet.col_next
        # the forward side runs on the array's own columns, the involuted
        # side on the swapped ones
        forward_rows = [entry for entry in single.traceback if entry.name == "_forward_rows"]
        assert (forward_rows[-1].locals["pairs"] is single_array.pairs) == (side == "forward")

    def test_top_letters_are_checked(self):
        """A top letter outside the top alphabet raises ForeignLetterError
        before its column is bumped, on the forward side, in rsk_forward and
        in has_symmetry alike: the domain error, not an error from inside
        the bump or, for -1, a silent read from the end of a table.  Columns
        are checked in order, so a foreign bottom letter in an earlier
        column raises first.  A trusted array may hold any object as a
        letter, on top or on bottom; the probe checks none itself, as its
        letters come from `_column_walk`, and `test_every_array_revalidates`
        shows those are ints in range."""
        a = make_alphabet(["1", "2"], [0, 0])
        cases = [([(5, 0)], 5), ([(-1, 0)], -1), ([(0, 0), (5, 0)], 5), ([(0.5, 0)], 0.5), ([(0, 7), (5, 0)], 7)]
        for letter in (-1, 2, 0.0, [0], None):
            cases += [([(letter, 0)], letter), ([(0, letter)], letter)]
        for pairs, letter in cases:
            array = TwoRowedArray(a, a, pairs)
            for run in (rsk_forward, has_symmetry):
                with pytest.raises(ForeignLetterError, match="letter index %s out of range" % re.escape(str(letter))) as exc:
                    run(array)
                check = exc.traceback[-1]
                assert check.name == "_forward_rows"
                assert check.locals["pairs"] is array.pairs

    def test_negative_max_cols_raises_on_call(self, mixed2):
        with pytest.raises(ValueError):
            symmetry_probe(mixed2, mixed2, -1)

    def test_unaligned_witness(self):
        """Alignment is needed: over this unaligned pair an array whose
        columns all have pair parity 0 is not symmetric."""
        top = make_alphabet(["1", "2", "3"], [0, 0, 1])
        bottom = make_alphabet(["1", "2", "3"], [0, 1, 0])
        array = validate_array([("1", "1"), ("2", "1"), ("3", "2"), ("1", "3")], top, bottom)
        assert array.pairs == ((0, 0), (1, 0), (2, 1), (0, 2))
        assert array.pair_parities() == (0, 0, 0, 0)
        assert not has_symmetry(array)


class TestArrayJson:
    def test_roundtrip(self, worked_array, split24):
        blob = array_to_json(worked_array)
        assert blob == {
            "top": list(worked_array.top_symbols),
            "bottom": list(worked_array.bottom_symbols),
        }
        assert array_from_json(blob, split24, split24) == worked_array

    def test_rejects_invalid(self, split24):
        with pytest.raises(ValidationError):
            array_from_json({"top": ["2", "1"], "bottom": ["1", "1"]}, split24, split24)
        with pytest.raises(ValidationError):
            array_from_json({"top": ["1"], "bottom": []}, split24, split24)


@st.composite
def random_array(draw):
    k = draw(st.integers(1, 3))
    m = draw(st.integers(1, 3))
    top = make_alphabet([str(i + 1) for i in range(k)], draw(st.lists(st.integers(0, 1), min_size=k, max_size=k)))
    bottom = make_alphabet(
        ["abc"[i] for i in range(m)], draw(st.lists(st.integers(0, 1), min_size=m, max_size=m))
    )
    arrays = list(enumerate_arrays(top, bottom, 3))
    return arrays[draw(st.integers(0, len(arrays) - 1))]


@given(random_array())
@settings(max_examples=150)
def test_roundtrip_random(arr):
    t, u = rsk_forward(arr)
    assert rsk_inverse(t, u) == arr
    assert t.shape == u.shape


def test_roundtrip_tall_shapes():
    """Seeded arrays of 200-700 columns, a tenth to three tenths with an odd
    bottom letter; their shapes are 20 or more rows tall."""
    rng = random.Random(20261018)
    for sig in [(0, 0, 1), (0, 1, 0), (1, 0, 0), (0, 1, 1)]:
        alphabet = make_alphabet(["1", "2", "3"], sig)
        same = [[x for x in range(3) if sig[x] == p] for p in (0, 1)]
        for _ in range(5):
            n = rng.randint(200, 700)
            share = rng.uniform(0.1, 0.3)
            seen = set()
            cols = []
            for _ in range(n):
                b = rng.choice(same[1] if rng.random() < share else same[0])
                a = rng.randrange(3)
                if sig[a] != sig[b]:
                    if (a, b) in seen:
                        a = rng.choice(same[sig[b]])
                    seen.add((a, b))
                cols.append((a, b))
            cols.sort(key=lambda ab: (ab[1], ab[0]))
            columns = [(alphabet.symbol(a), alphabet.symbol(b)) for a, b in cols]
            s = validate_array(columns, alphabet, alphabet)
            t, u = rsk_forward(s)
            assert len(t.shape) >= 20
            assert rsk_inverse(t, u) == s


@given(random_array())
@settings(max_examples=100)
def test_involution_maps_forward_pairs_random(arr):
    t, u = rsk_forward(arr)
    ft, fu = rsk_forward(array_involution(arr))
    assert has_symmetry(arr) == (ft == u and fu == t)


def test_readme_library_example():
    """The README's library example prints what its comments say."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library example", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    promised = []
    for line in block.splitlines():
        comment = line.partition("#")[2]
        if comment.startswith(" ->"):
            promised.append(comment[3:].strip())
        elif comment and promised:
            promised.append(comment.strip())
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block, {})
    assert out.getvalue().splitlines() == promised
    assert promised == ["1 3 4", "2", "1 2 3", "4"]
