import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import superplactic.bumping
from superplactic import (
    AlphabetMismatchError,
    CornerError,
    Tableau,
    Word,
    check_tableau,
    col_delete,
    col_insert,
    col_insert_trace,
    enumerate_tableaux,
    is_horizontal_strip,
    make_alphabet,
    partitions,
    pretty,
    row_delete,
    row_insert,
    row_insert_trace,
    row_insert_word,
    tableau_of_word,
    transpose,
    validate,
    word_of,
    SkewDiagram,
)

from superplactic.bumping import _bump_row, _delete_row_strip, _insert_row_word, _row_step, _unbump_row

from oracles import _scan_col_insert, _scan_row_insert, all_signatures, insertion_tableau


def small_tableaux(alphabet, max_cells):
    for n in range(max_cells + 1):
        for lam in partitions(n):
            yield from enumerate_tableaux(lam, alphabet)


class TestWorkedInsertions:
    def test_append_greatest_letter(self, alternating6):
        t = validate(
            [["1", "1", "1", "2", "4", "5"], ["2", "3", "3", "4"], ["2", "4"], ["2", "4"], ["2"], ["3"]],
            alternating6,
        )
        t1, i = row_insert(t, "6")
        assert i == 1
        assert pretty(t1) == "1 1 1 2 4 5 6\n2 3 3 4\n2 4\n2 4\n2\n3"

    def test_cascade_to_new_row(self, alternating6):
        t = validate(
            [["1", "1", "1", "2", "4", "5", "6"], ["2", "3", "3", "4"], ["2", "4"], ["2", "4"], ["2"], ["3"]],
            alternating6,
        )
        t2, i = row_insert(t, "1")
        assert i == 7
        assert pretty(t2) == "1 1 1 1 4 5 6\n2 3 3 4\n2 4\n2 4\n2\n2\n3"

    def test_insert_into_empty(self, mixed4):
        for x in mixed4.letters:
            t, i = row_insert(Tableau.empty(mixed4), x)
            assert i == 1
            assert t.symbol_rows() == ((x,),)
            t, j = col_insert(x, Tableau.empty(mixed4))
            assert j == 1
            assert t.symbol_rows() == ((x,),)


class TestBumpRules:
    def test_even_letter_bumps_strictly_greater(self, evens2):
        t, i = row_insert(validate([["1"]], evens2), "1")
        assert (i, t.symbol_rows()) == (1, (("1", "1"),))

    def test_odd_letter_bumps_equal(self, odds2):
        t, i = row_insert(validate([["1"]], odds2), "1")
        assert (i, t.symbol_rows()) == (2, (("1",), ("1",)))

    def test_even_letter_column_bumps_equal(self, evens2):
        t, j = col_insert("1", validate([["1"]], evens2))
        assert (j, t.symbol_rows()) == (2, (("1", "1"),))

    def test_odd_letter_column_appends_below(self, odds2):
        t, j = col_insert("1", validate([["1"]], odds2))
        assert (j, t.symbol_rows()) == (1, (("1",), ("1",)))

    def test_all_even_matches_scan_oracle(self, evens3):
        for letters in itertools.product(range(3), repeat=5):
            w = Word.from_indices(evens3, letters)
            assert tableau_of_word(w).rows == insertion_tableau(letters, (0, 0, 0))

    def test_all_odd_matches_scan_oracle(self):
        odds3 = make_alphabet(["1", "2", "3"], [1, 1, 1])
        for letters in itertools.product(range(3), repeat=5):
            w = Word.from_indices(odds3, letters)
            assert tableau_of_word(w).rows == insertion_tableau(letters, (1, 1, 1))


class TestDeletionErrors:
    def test_missing_row(self, mixed4):
        t = validate([["1", "1"]], mixed4)
        with pytest.raises(CornerError):
            row_delete(t, 2)
        with pytest.raises(CornerError):
            row_delete(t, 0)
        with pytest.raises(CornerError):
            row_delete(Tableau.empty(mixed4), 1)

    def test_not_a_corner(self, mixed4):
        t = validate([["1", "1"], ["2", "2"]], mixed4)
        with pytest.raises(CornerError):
            row_delete(t, 1)

    def test_column_errors(self, mixed4):
        t = validate([["1", "2"], ["2", "3"]], mixed4)
        with pytest.raises(CornerError):
            col_delete(t, 1)
        with pytest.raises(CornerError):
            col_delete(t, 3)
        with pytest.raises(CornerError):
            col_delete(Tableau.empty(mixed4), 1)


class TestDeletionStopsAndEjects:
    """A deletion whose in-hand letter finds nothing to swap with stops and
    ejects it.  Valid tableaux never get there; the trusted constructor
    lets in ones that do."""

    def test_row_deletion(self, evens2):
        # row 1 holds only 2: nothing there is less than the in-hand 1
        t, x = row_delete(Tableau(evens2, [[1], [0]]), 2)
        assert (t.rows, x) == (((1,),), "1")

    def test_column_deletion(self, evens2):
        # column 1 holds only 2: nothing there is at most the in-hand 1
        t, x = col_delete(Tableau(evens2, [[1, 0]]), 2)
        assert (t.rows, x) == (((1,),), "1")


class TestInverses:
    def test_row_insert_then_delete(self, mixed3, mixed4):
        for t in small_tableaux(mixed4, 5):
            for x in mixed4.letters:
                t1, i = row_insert(t, x)
                check_tableau(t1)
                back, y = row_delete(t1, i)
                assert back == t
                assert y == x
        # over 1,2,3 with parities 0,1,0, 1 bumps 2 from (1,3), then 2 from
        # (2,1), since the parity-1 2 bumps an equal 2, then 3 from (3,1)
        t = validate([["1", "1", "2", "3", "3", "3"], ["2", "3", "3"], ["3"]], mixed3)
        t1, i = row_insert(t, "1")
        assert (i, t1.symbol_rows()) == (4, (("1", "1", "1", "3", "3", "3"), ("2", "3", "3"), ("2",), ("3",)))
        assert row_delete(t1, i) == (t, "1")

    def test_col_insert_then_delete(self, mixed3, mixed4):
        for t in small_tableaux(mixed4, 5):
            for x in mixed4.letters:
                t1, j = col_insert(x, t)
                check_tableau(t1)
                back, y = col_delete(t1, j)
                assert back == t
                assert y == x
        # over 1,2,3 with parities 0,1,0: 3 ends at row 2, column 2; under a
        # first row of 10 cells, 2 shifts all of row 2 right, moves up at
        # column 6 and ends at row 1, column 11
        for rows, x, j, grown in (
            ([["1", "1"], ["3"]], "3", 2, (("1", "1"), ("3", "3"))),
            ([["1"] * 5 + ["3"] * 5, ["3"] * 5], "2", 11, (("1",) * 5 + ("3",) * 6, ("2",) + ("3",) * 4)),
        ):
            t = validate(rows, mixed3)
            t1, j1 = col_insert(x, t)
            assert (j1, t1.symbol_rows()) == (j, grown)
            assert col_delete(t1, j) == (t, x)

    def test_delete_then_insert(self, mixed4):
        for t in small_tableaux(mixed4, 5):
            lam = t.shape
            for i in range(1, len(lam) + 1):
                if i < len(lam) and lam[i - 1] == lam[i]:
                    continue
                t1, x = row_delete(t, i)
                t2, i2 = row_insert(t1, x)
                assert (t2, i2) == (t, i)


class TestTransposeDuality:
    def test_column_insert_is_transposed_row_insert(self):
        letters = ["1", "2", "3"]
        for sig in all_signatures(3):
            alphabet = make_alphabet(letters, sig)
            for t in small_tableaux(alphabet, 5):
                for x in letters:
                    direct, j = col_insert(x, t)
                    dual, i = row_insert(transpose(t), x)
                    assert direct == transpose(dual)
                    assert j == i

    def test_column_delete_is_transposed_row_delete(self):
        letters = ["1", "2", "3"]
        for sig in all_signatures(3):
            alphabet = make_alphabet(letters, sig)
            for t in small_tableaux(alphabet, 5):
                heights = transpose(t).shape
                for j in range(1, len(heights) + 1):
                    if j < len(heights) and heights[j - 1] == heights[j]:
                        continue
                    direct, x = col_delete(t, j)
                    dual, y = row_delete(transpose(t), j)
                    assert direct == transpose(dual)
                    assert x == y


class TestTraces:
    def test_row_trace_shape(self, mixed4):
        t = validate([["1", "1", "3"], ["2", "3"]], mixed4)
        t1, i, trace = row_insert_trace(t, "1")
        assert i == 3
        assert trace == ((1, 3, "1"), (2, 2, "3"), (3, 1, "3"))
        assert t1.symbol_rows() == (("1", "1", "1"), ("2", "3"), ("3",))

    def test_col_trace_shape(self, mixed4):
        t = validate([["1", "1", "3"], ["2", "3"]], mixed4)
        t1, j, trace = col_insert_trace("1", t)
        assert j == 4
        assert trace == ((1, 1, "1"), (1, 2, "1"), (1, 3, "1"), (1, 4, "3"))
        assert t1.symbol_rows() == (("1", "1", "1", "3"), ("2", "3"))

    def test_plain_inserts_match_traced_and_record_nothing(self, mixed4, monkeypatch):
        """row_insert and col_insert return what their *_trace twins return,
        less the trace, and hand the bumping primitive no list to record in."""
        asked = []

        def spy(bump):
            def run(rows, x, table, trace=None):
                asked.append(trace)
                return bump(rows, x, table, trace)
            return run

        for name in ("_bump_row", "_bump_col"):
            monkeypatch.setattr(superplactic.bumping, name, spy(getattr(superplactic.bumping, name)))
        for t in small_tableaux(mixed4, 4):
            for x in mixed4.letters:
                assert row_insert(t, x) == row_insert_trace(t, x)[:2]
                assert col_insert(x, t) == col_insert_trace(x, t)[:2]
        plain, traced = asked[0::2], asked[1::2]
        assert plain == [None] * len(traced)
        assert all(isinstance(steps, list) for steps in traced)

    def test_row_routes_move_weakly_left(self, mixed4):
        par = dict(zip(mixed4.letters, mixed4.parities))
        for t in small_tableaux(mixed4, 5):
            for x in mixed4.letters:
                _, i, trace = row_insert_trace(t, x)
                rows = [r for r, _, _ in trace]
                cols = [c for _, c, _ in trace]
                syms = [s for _, _, s in trace]
                assert rows == list(range(1, i + 1))
                assert all(a >= b for a, b in zip(cols, cols[1:]))
                for a, b in zip(syms, syms[1:]):
                    assert a < b or (a == b and par[a] == 1)

    def test_col_routes_move_weakly_up(self, mixed4):
        par = dict(zip(mixed4.letters, mixed4.parities))
        for t in small_tableaux(mixed4, 5):
            for x in mixed4.letters:
                _, j, trace = col_insert_trace(x, t)
                rows = [r for r, _, _ in trace]
                cols = [c for _, c, _ in trace]
                syms = [s for _, _, s in trace]
                assert cols == list(range(1, j + 1))
                assert all(a >= b for a, b in zip(rows, rows[1:]))
                for a, b in zip(syms, syms[1:]):
                    assert a < b or (a == b and par[a] == 0)


class TestWordBuild:
    def test_seventeen_letter_word_rebuilds(self, alternating6, big_tableau):
        w = Word(alternating6, list("32224242334111145"))
        assert tableau_of_word(w) == big_tableau

    def test_empty_word(self, mixed4):
        assert tableau_of_word(Word(mixed4)) == Tableau.empty(mixed4)

    def test_reading_word_fixed_point(self):
        for k in range(1, 5):
            for sig in all_signatures(k):
                alphabet = make_alphabet([str(i + 1) for i in range(k)], sig)
                for t in small_tableaux(alphabet, 5):
                    assert tableau_of_word(word_of(t)) == t, (sig, t)

    def test_insert_word_concatenates(self, mixed4):
        u = Word(mixed4, ["2", "1", "3"])
        v = Word(mixed4, ["3", "1"])
        t = row_insert_word(Tableau.empty(mixed4), u)
        assert row_insert_word(t, v) == tableau_of_word(u + v)

    def test_insert_word_rejects_other_alphabet(self, mixed4, mixed3):
        with pytest.raises(AlphabetMismatchError):
            row_insert_word(Tableau.empty(mixed4), Word(mixed3, ["1"]))


class TestElementaryMoves:
    def k1_ok(self, par, x, y, z):
        left = x < y or (x == y and par[x] == 0)
        right = y < z or (y == z and par[y] == 1)
        return left and right

    def k2_ok(self, par, x, y, z):
        left = x < y or (x == y and par[x] == 1)
        right = y < z or (y == z and par[y] == 0)
        return left and right

    def test_first_move_tableaux(self, mixed4):
        par = mixed4.parities
        hit = 0
        for x, y, z in itertools.product(range(4), repeat=3):
            if not self.k1_ok(par, x, y, z):
                continue
            hit += 1
            w1 = Word.from_indices(mixed4, (x, z, y))
            w2 = Word.from_indices(mixed4, (z, x, y))
            expect = Tableau(mixed4, [(x, y), (z,)])
            assert tableau_of_word(w1) == expect
            assert tableau_of_word(w2) == expect
        assert hit > 0

    def test_second_move_tableaux(self, mixed4):
        par = mixed4.parities
        hit = 0
        for x, y, z in itertools.product(range(4), repeat=3):
            if not self.k2_ok(par, x, y, z):
                continue
            hit += 1
            w1 = Word.from_indices(mixed4, (y, x, z))
            w2 = Word.from_indices(mixed4, (y, z, x))
            expect = Tableau(mixed4, [(x, z), (y,)])
            assert tableau_of_word(w1) == expect
            assert tableau_of_word(w2) == expect
        assert hit > 0


class TestRowWordGrowth:
    def test_row_word_insertion_adds_horizontal_strip(self, mixed4):
        par = mixed4.parities
        rows = []
        for length in range(1, 4):
            for letters in itertools.product(range(4), repeat=length):
                if all(a < b or (a == b and par[a] == 0) for a, b in zip(letters, letters[1:])):
                    rows.append(letters)
        for t in small_tableaux(mixed4, 4):
            for letters in rows:
                grown = row_insert_word(t, Word.from_indices(mixed4, letters))
                assert is_horizontal_strip(SkewDiagram(grown.shape, t.shape))

    def test_strip_primitives_match_one_bump_per_letter(self):
        """On seeded row words over random signatures, inserted into the
        oracle's tableaux of up to 30 cells, `_insert_row_word` gives the
        rows of one `_bump_row` per letter and counts the cells each row
        gained; `_delete_row_strip` on those counts gives the rows and the
        ejected letters of one `_unbump_row` per cell, top row first and
        right to left, and the ejected letters are the word reversed."""
        rng = random.Random(1919)
        straddles = odd_letters = 0
        for _ in range(800):
            k = rng.randint(1, 5)
            alphabet = make_alphabet([str(i) for i in range(k)], [rng.randint(0, 1) for _ in range(k)])
            par, col_next, row_next = alphabet.parities, alphabet.col_next, alphabet.row_next
            start = [list(r) for r in insertion_tableau([rng.randrange(k) for _ in range(rng.randint(0, 30))], par)]
            xs = sorted(rng.randrange(k) for _ in range(rng.randint(1, 14)))
            xs = [x for t, x in enumerate(xs) if t == 0 or x != xs[t - 1] or par[x] == 0]
            one = [r[:] for r in start]
            ends = [_bump_row(one, x, col_next) for x in xs]
            strip = [r[:] for r in start]
            grown = _insert_row_word(strip, xs, col_next)
            assert strip == one
            assert grown == [ends.count(r) for r in range(max(ends) + 1)]
            # a run of equal letters that bumps in the row and then runs past its end
            straddles += any(x == y and e != f for x, y, e, f in zip(xs, xs[1:], ends, ends[1:]))
            odd_letters += any(par[x] for x in xs)
            back = [r[:] for r in one]
            ejected = [_unbump_row(back, r, row_next) for r, c in enumerate(grown) for _ in range(c)]
            assert (back, ejected) == (start, xs[::-1])
            assert _delete_row_strip(strip, grown, row_next) == ejected
            assert strip == back
        assert straddles > 50 and odd_letters > 250, (straddles, odd_letters)

    def test_row_step_matches_one_bump_per_letter(self):
        """On seeded words in any order over random signatures, made of runs
        of equal letters, `_row_step` taken row by row through the oracle's
        tableaux of up to 30 cells gives the rows of one `_bump_row` per
        letter.  A run of a parity-1 letter bumps each copy on to the next
        row; a run of a parity-0 letter can bump in a row and then run past
        its end."""
        rng = random.Random(2222)
        odd_runs = straddles = 0
        for _ in range(1000):
            k = rng.randint(1, 5)
            alphabet = make_alphabet([str(i) for i in range(k)], [rng.randint(0, 1) for _ in range(k)])
            par, col_next = alphabet.parities, alphabet.col_next
            start = [list(r) for r in insertion_tableau([rng.randrange(k) for _ in range(rng.randint(0, 30))], par)]
            xs = [x for _ in range(rng.randint(1, 6)) for x in [rng.randrange(k)] * rng.randint(1, 4)]
            one = [r[:] for r in start]
            ends = [_bump_row(one, x, col_next) for x in xs]
            rows = [r[:] for r in start]
            word, r = xs, 0
            while word:
                if r == len(rows):
                    rows.append([])
                word = _row_step(rows[r], word, col_next)
                r += 1
            assert rows == one, (xs, start)
            pairs = list(zip(xs, xs[1:], ends, ends[1:]))
            odd_runs += any(x == y and par[x] for x, y, _, _ in pairs)
            # a copy bumps in the first row, and the next copy ends that row
            straddles += any(x == y and not par[x] and e > 0 and f == 0 for x, y, e, f in pairs)
        assert odd_runs > 500 and straddles > 200, (odd_runs, straddles)

    def test_strip_deletion_ejects_as_one_deletion_per_cell(self):
        """On trusted tableaux whose rows increase but whose columns may
        not, some in-hand letters find nothing to swap with and leave the
        deletion; `_delete_row_strip` still gives the rows and the ejected
        letters, in order, of one `_unbump_row` per cell."""
        rng = random.Random(2020)
        left = 0
        for _ in range(1500):
            k = rng.randint(1, 4)
            alphabet = make_alphabet([str(i) for i in range(k)], [rng.randint(0, 1) for _ in range(k)])
            lengths = sorted((rng.randint(1, 6) for _ in range(rng.randint(1, 4))), reverse=True)
            rows = [sorted(rng.randrange(k) for _ in range(n)) for n in lengths]
            counts = [rng.randint(0, n - m) for n, m in zip(lengths, lengths[1:] + [0])]
            one = [r[:] for r in rows]
            ejected = []
            for r, c in enumerate(counts):
                for _ in range(c):
                    top = one[0][:]
                    ejected.append(_unbump_row(one, r, alphabet.row_next))
                    # a letter ejected from row 0 was one of its entries, so this one left below it
                    left += r > 0 and ejected[-1] not in top
            assert _delete_row_strip(rows, counts, alphabet.row_next) == ejected
            assert rows == one
        assert left > 50, left
        # Rows that do not increase, which the trusted constructor also lets
        # in: row 1 hands up 1, ~0, 1.  The ejected ~0 ends the run of 1s, so
        # the second 1 bisects row 0 afresh and finds nothing, where landing
        # one cell left of the first 1 would swap it for the 2.
        rows = [[2, 0, 1], [0, 1, 1], [2, 0]]
        assert _delete_row_strip(rows, [0, 1, 2], make_alphabet("abc", [0, 0, 0]).row_next) == [0, 0, 1]
        assert rows == [[2, 1, 1], [0, 2]]


@st.composite
def alphabet_and_word(draw, max_len=9):
    k = draw(st.integers(1, 5))
    parities = draw(st.lists(st.integers(0, 1), min_size=k, max_size=k))
    letters = draw(st.lists(st.integers(0, k - 1), min_size=0, max_size=max_len))
    alphabet = make_alphabet([str(i + 1) for i in range(k)], parities)
    return Word.from_indices(alphabet, letters)


@given(alphabet_and_word())
@settings(max_examples=200)
def test_random_words_build_valid_tableaux(word):
    t = tableau_of_word(word)
    check_tableau(t)
    assert t.size() == len(word)
    content = sorted(word.symbols)
    built = sorted(s for row in t.symbol_rows() for s in row)
    assert built == content


@given(alphabet_and_word(max_len=40), st.integers(0, 4), st.sampled_from(["row", "col"]))
@settings(max_examples=200)
def test_random_insert_delete_roundtrip(word, pick, mode):
    alphabet = word.alphabet
    t = tableau_of_word(word)
    x = alphabet.letters[pick % len(alphabet.letters)]
    rows = [list(r) for r in t.rows]
    if mode == "row":
        t1, k, trace = row_insert_trace(t, x)
        assert (t1, k) == row_insert(t, x)
        back, y = row_delete(t1, k)
        i, j = _scan_row_insert(rows, alphabet.index(x), alphabet.parities)
        assert k == i + 1
    else:
        t1, k, trace = col_insert_trace(x, t)
        assert (t1, k) == col_insert(x, t)
        back, y = col_delete(t1, k)
        i, j = _scan_col_insert(rows, alphabet.index(x), alphabet.parities)
        assert k == j + 1
    assert (back, y) == (t, x)
    # The trace ends at the cell the plain-scan oracle adds, counted from 1.
    assert trace[-1][:2] == (i + 1, j + 1)
    assert t1.rows == tuple(map(tuple, rows))
