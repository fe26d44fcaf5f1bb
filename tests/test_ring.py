import math
import random

import pytest

import superplactic.ring
from superplactic import (
    AlphabetMismatchError,
    BoundExceededError,
    FormalSum,
    SkewDiagram,
    Tableau,
    contains,
    enumerate_tableaux,
    is_horizontal_strip,
    is_vertical_strip,
    make_alphabet,
    partitions,
    pieri_check,
    ring_product,
    row_insert_word,
    s_col,
    s_lambda,
    s_row,
    tableau_of_word,
    validate,
    word_of,
)
from superplactic.ring import _strips

from oracles import all_signatures, hook_length_count, insertion_tableau, lr_coefficients, super_tableau_count


def lr_differences(letters, max_size, max_total):
    """Check the Littlewood-Richardson rule of the ring on every signature
    of `letters` letters: ring_product(s_lambda(lam), s_lambda(nu)) against
    the sum of s_lambda(mu) added c^mu_{lam nu} times, for every pair of
    nonempty shapes with |lam|, |nu| <= max_size and |lam| + |nu| <=
    max_total.  Returns the number of cases and the cases (signature, lam,
    nu) whose two sides differ."""
    shapes = [lam for n in range(1, max_size + 1) for lam in partitions(n)]
    cases = [(lam, nu, lr_coefficients(lam, nu))
             for lam in shapes for nu in shapes if sum(lam) + sum(nu) <= max_total]
    differ = []
    for sig in all_signatures(letters):
        alphabet = make_alphabet([str(i) for i in range(1, letters + 1)], list(sig))
        schur = {mu: s_lambda(mu, alphabet) for n in range(max_total + 1) for mu in partitions(n)}
        for lam, nu, coefficients in cases:
            right = FormalSum(alphabet)
            for mu, c in coefficients.items():
                for _ in range(c):
                    right = right + schur[mu]
            if ring_product(schur[lam], schur[nu]) != right:
                differ.append((sig, lam, nu))
    return len(cases) * 2 ** letters, differ


class TestFormalSum:
    def test_terms_sorted_and_deterministic(self, evens3):
        f = s_lambda((2, 1), evens3)
        assert f.terms() == f.terms()
        keys = [(t.shape, t.rows) for t, _ in f.terms()]
        assert keys == sorted(keys)

    def test_coefficient_lookup(self, evens3):
        t = validate([["1", "1"]], evens3)
        f = FormalSum(evens3, [(t, 2)])
        assert f.coefficient(t) == 2
        assert f.coefficient(validate([["2"]], evens3)) == 0

    def test_addition_and_cancellation(self, evens3):
        t = validate([["1", "1"]], evens3)
        f = FormalSum(evens3, [(t, 2)])
        assert (f + f).coefficient(t) == 4
        zero = f - f
        assert len(zero) == 0
        assert not zero
        assert f + zero == f

    def test_merges_repeated_terms(self, evens3):
        t = validate([["1", "1"]], evens3)
        f = FormalSum(evens3, [(t, 1), (t, 3)])
        assert f.coefficient(t) == 4
        assert len(f) == 1

    def test_sum_and_a_number_do_not_mix(self, evens3):
        f = s_row(1, evens3)
        with pytest.raises(TypeError):
            f + 1
        with pytest.raises(TypeError):
            f - 1

    def test_alphabet_mismatch(self, evens3, mixed3):
        with pytest.raises(AlphabetMismatchError):
            s_row(1, evens3) + s_row(1, mixed3)
        with pytest.raises(AlphabetMismatchError):
            ring_product(s_row(1, evens3), s_row(1, mixed3))


class TestSchurSums:
    def test_all_even_counts_match_classical_dimensions(self, evens3):
        dims = {(3,): 10, (2, 1): 8, (2, 2): 6, (1, 1, 1): 1}
        for lam, dim in dims.items():
            f = s_lambda(lam, evens3)
            assert len(f) == dim
            assert all(c == 1 for _, c in f.terms())
            assert all(t.shape == lam for t, _ in f.terms())

    def test_mixed_two_letter_counts(self, mixed2):
        assert len(s_lambda((2,), mixed2)) == 2
        assert len(s_lambda((1, 1), mixed2)) == 2
        assert len(s_lambda((2, 1), mixed2)) == 2
        assert len(s_lambda((2, 2), mixed2)) == 0

    def test_empty_shape_is_unit(self, mixed3):
        one = s_lambda((), mixed3)
        assert len(one) == 1
        ((t, c),) = one.terms()
        assert t.shape == () and c == 1

    def test_row_and_column_shorthands(self, mixed3):
        assert s_row(2, mixed3) == s_lambda((2,), mixed3)
        assert s_col(3, mixed3) == s_lambda((1, 1, 1), mixed3)
        assert s_row(0, mixed3) == s_lambda((), mixed3)
        assert s_col(0, mixed3) == s_lambda((), mixed3)


class TestProduct:
    def test_unit_element(self, mixed3):
        one = s_row(0, mixed3)
        f = s_lambda((2, 1), mixed3)
        assert ring_product(one, f) == f
        assert ring_product(f, one) == f
        # the empty word leaves each left term as it is, the empty one too,
        # beside right words that open rows under it
        letters = s_row(1, mixed3)
        x = one + letters
        assert ring_product(x, x) == one + letters + letters + s_row(2, mixed3) + s_col(2, mixed3)

    def test_single_letters(self, evens3):
        prod = ring_product(s_row(1, evens3), s_row(1, evens3))
        assert len(prod) == 9
        assert prod.coefficient(validate([["1"], ["2"]], evens3)) == 1
        assert prod.coefficient(validate([["1", "1"]], evens3)) == 1
        assert prod == s_row(2, evens3) + s_col(2, evens3)

    def test_product_inserts_reading_words(self, mixed3):
        left = validate([["1", "2"], ["2"]], mixed3)
        right = validate([["1", "1"]], mixed3)
        prod = ring_product(FormalSum(mixed3, [(left, 1)]), FormalSum(mixed3, [(right, 1)]))
        ((t, c),) = prod.terms()
        assert c == 1
        assert t == tableau_of_word(word_of(left) + word_of(right))

    def test_associative(self, mixed3):
        a = s_row(1, mixed3)
        b = s_col(2, mixed3)
        c = s_lambda((2,), mixed3)
        assert ring_product(ring_product(a, b), c) == ring_product(a, ring_product(b, c))

    def test_coefficients_scale(self, mixed3):
        t = validate([["1"]], mixed3)
        f = FormalSum(mixed3, [(t, 2)])
        prod = ring_product(f, f)
        assert all(c == 4 for _, c in prod.terms())


def _reference_product(f, g):
    """The product term by term through the public Tableau API: each right
    term's reading word row inserted into each left term, summed in a dict
    keyed by Tableau, zeros dropped, in the order of `terms()`."""
    acc = {}
    for t, c in f.terms():
        for u, d in g.terms():
            key = row_insert_word(t, word_of(u))
            acc[key] = acc.get(key, 0) + c * d
    return sorted(((t, c) for t, c in acc.items() if c), key=lambda tc: (tc[0].shape, tc[0].rows))


class TestIndexRows:
    def test_product_matches_the_tableau_reference(self):
        """Every lam of at most 4 cells times s_row(p) and s_col(p), p <= 3,
        over every signature of 1 to 3 letters, with the left terms scaled
        by 2 and the right ones by -1."""
        for k in (1, 2, 3):
            for sig in all_signatures(k):
                alphabet = make_alphabet([str(i) for i in range(1, k + 1)], list(sig))
                for n in range(5):
                    for lam in partitions(n):
                        f = FormalSum(alphabet, [(t, 2) for t, _ in s_lambda(lam, alphabet).terms()])
                        for p in range(4):
                            for one in (s_row(p, alphabet), s_col(p, alphabet)):
                                g = FormalSum(alphabet, [(u, -1) for u, _ in one.terms()])
                                prod = ring_product(f, g)
                                assert list(prod.terms()) == _reference_product(f, g), (sig, lam, p)
                                for t, _ in prod.terms():
                                    assert validate(t.symbol_rows(), alphabet) == t

    def test_random_sums_match_the_insertion_oracle(self):
        """Seeded random sums over 1 to 5 letters whose right terms have 2
        or 3 rows, so their reading words are not row words, and now and
        then the empty term: the product is each pair's insertion tableau
        of the concatenated reading words, by the oracle's scan insertion.
        The cases include right words that repeat a parity-1 letter,
        products that open one new row or more, and the empty term on both
        sides beside longer right terms."""
        rng = random.Random(20)

        def reading(rows):
            return tuple(x for row in reversed(rows) for x in row)

        def random_rows(k, parities, lengths, heights):
            while True:
                word = [rng.randrange(k) for _ in range(rng.choice(lengths))]
                rows = insertion_tableau(word, parities)
                if len(rows) in heights:
                    return rows

        seen = {"repeated odd letter": 0, "one new row": 0, "two or more new rows": 0, "empty times empty": 0}
        for _ in range(600):
            k = rng.randint(1, 5)
            parities = [rng.randint(0, 1) for _ in range(k)]
            if k == 1:
                parities = [1]  # one parity-0 letter has no tableau of 2 rows
            alphabet = make_alphabet([str(i) for i in range(1, k + 1)], parities)

            def random_sum(rows_of):
                return {rows_of(): rng.choice((-2, -1, 1, 2)) for _ in range(rng.randint(1, 3))}

            left = random_sum(lambda: random_rows(k, parities, range(6), range(6)))
            right = random_sum(lambda: random_rows(k, parities, range(2, 6), (2, 3)))
            if rng.random() < 0.25:
                right[()] = rng.choice((-2, -1, 1, 2))
            want = {}
            for t, c in left.items():
                for u, d in right.items():
                    word = reading(u)
                    odd = [x for x in word if parities[x] == 1]
                    seen["repeated odd letter"] += len(set(odd)) < len(odd)
                    rows = insertion_tableau(reading(t) + word, parities)
                    seen["one new row"] += len(rows) == len(t) + 1
                    seen["two or more new rows"] += len(rows) > len(t) + 1
                    seen["empty times empty"] += t == u == ()
                    want[rows] = want.get(rows, 0) + c * d

            def as_sum(terms):
                return FormalSum(alphabet, [(Tableau(alphabet, rows), c) for rows, c in terms.items()])

            got = ring_product(as_sum(left), as_sum(right))
            assert got == as_sum({rows: c for rows, c in want.items() if c}), (parities, left, right)
        assert all(seen.values()), seen

    def test_product_cancels_equal_terms(self, evens3):
        """y . xz and yz . x are Knuth equivalent words (x < y <= z), so
        with opposite signs their terms cancel in the product."""
        x, y, z = (validate([[s]], evens3) for s in "123")
        yz = validate([["2", "3"]], evens3)
        xz = validate([["1", "3"]], evens3)
        f = FormalSum(evens3, [(y, 1), (yz, -1)])
        g = FormalSum(evens3, [(xz, 1), (x, 1)])
        assert len(_reference_product(f, g)) == 2
        prod = ring_product(f, g)
        assert list(prod.terms()) == _reference_product(f, g)
        assert prod.coefficient(tableau_of_word(word_of(y) + word_of(xz))) == 0
        assert len(prod) == 2
        assert ring_product(FormalSum(evens3, [(z, 1)]), f - f) == FormalSum(evens3)

    def test_term_over_another_alphabet(self, evens3, mixed3):
        t = validate([["1", "2"]], evens3)
        same_rows = validate([["1", "2"]], mixed3)
        assert same_rows.rows == t.rows
        with pytest.raises(AlphabetMismatchError):
            FormalSum(evens3, [(t, 1), (same_rows, 1)])
        f = FormalSum(evens3, [(t, 3)])
        assert f.coefficient(t) == 3
        assert f.coefficient(same_rows) == 0

    def test_terms_are_validated_tableaux(self, mixed3):
        for lam in ((2, 1), (1, 1, 1), (3,)):
            f = s_lambda(lam, mixed3) + s_row(2, mixed3) - s_col(1, mixed3)
            for t, _ in f.terms():
                assert validate(t.symbol_rows(), mixed3) == t
            assert [t for t, _ in s_lambda(lam, mixed3).terms()] == sorted(
                enumerate_tableaux(lam, mixed3), key=lambda t: t.rows)


class TestPieri:
    def test_row_and_column_mode_pass(self, mixed3):
        counts = {
            "row": {(2, 2, 1): 4, (3, 1, 1): 12, (3, 2): 8, (4, 1): 16},
            "col": {(2, 1, 1, 1): 8, (2, 2, 1): 4, (3, 1, 1): 12, (3, 2): 8},
        }
        for mode in ("row", "col"):
            report = pieri_check((2, 1), 2, mixed3, mode=mode)
            assert report.equal is True
            assert report.mode == mode
            assert report.lam == (2, 1)
            assert report.p == 2
            assert report.mismatches() == ()
            for _, left, right in report.by_shape:
                assert left == right
            assert {shape: left for shape, left, _ in report.by_shape} == counts[mode]

    def test_candidate_shapes_are_strips(self, mixed3):
        report = pieri_check((2, 1), 2, mixed3, mode="row")
        shapes = [shape for shape, _, _ in report.by_shape]
        assert len(set(shapes)) == len(shapes)
        for shape in shapes:
            assert sum(shape) == 5
            assert contains(shape, (2, 1))
            assert is_horizontal_strip(SkewDiagram(shape, (2, 1)))
        report = pieri_check((2, 1), 2, mixed3, mode="col")
        for shape, _, _ in report.by_shape:
            assert is_vertical_strip(SkewDiagram(shape, (2, 1)))

    def test_empty_base_shape(self, mixed3):
        assert pieri_check((), 1, mixed3).equal is True

    def test_grid_of_small_shapes(self, mixed4):
        for n in range(4):
            for lam in partitions(n):
                for p in (1, 2):
                    assert pieri_check(lam, p, mixed4, mode="row").equal is True

    def test_right_side_counts_match_the_strip_oracle(self):
        for sig in all_signatures(3):
            alphabet = make_alphabet(["1", "2", "3"], list(sig))
            for n in range(5):
                for lam in partitions(n):
                    for p in (1, 2):
                        for mode in ("row", "col"):
                            report = pieri_check(lam, p, alphabet, mode=mode)
                            strip_ok = is_horizontal_strip if mode == "row" else is_vertical_strip
                            expected = {
                                mu: super_tableau_count(mu, sig)
                                for mu in partitions(n + p)
                                if contains(mu, lam) and strip_ok(SkewDiagram(mu, lam))
                            }
                            right = {shape: r for shape, _, r in report.by_shape}
                            assert right == {mu: c for mu, c in expected.items() if c}, (sig, lam, p, mode)
                            assert report.equal is True

    def test_strips_match_the_partition_filter(self):
        """The strips built from lam are the shapes of size |lam| + p that
        contain lam and pass the strip test, each once: every lam of at most
        8 cells, p <= 4, both modes."""
        for n in range(9):
            for lam in partitions(n):
                for p in range(5):
                    for mode, strip_ok in (("row", is_horizontal_strip), ("col", is_vertical_strip)):
                        want = [mu for mu in partitions(n + p)
                                if contains(mu, lam) and strip_ok(SkewDiagram(mu, lam))]
                        assert sorted(_strips(lam, p, mode)) == sorted(want), (lam, p, mode)

    def test_mismatch_tallies_both_sides(self, monkeypatch):
        """A wrong insertion, which appends every letter to the first row,
        makes the sides differ.  The report then counts the left terms by
        shape, and the right side still holds one count per strip."""

        def append_to_the_row(row, xs, col_next):
            row += xs
            return []

        monkeypatch.setattr(superplactic.ring, "_row_step", append_to_the_row)
        for sig in ((0, 1, 0), (1, 0, 1), (0, 0, 1)):
            alphabet = make_alphabet(["1", "2", "3"], list(sig))
            for lam, p, mode in (((2, 1), 2, "row"), ((2, 1), 2, "col"), ((1,), 1, "col"), ((3, 1), 3, "row")):
                report = pieri_check(lam, p, alphabet, mode=mode)
                assert report.equal is False
                assert report.mismatches() != ()
                one = s_row(p, alphabet) if mode == "row" else s_col(p, alphabet)
                left = {}
                for rows, c in ring_product(s_lambda(lam, alphabet), one)._terms.items():
                    shape = tuple(map(len, rows))
                    left[shape] = left.get(shape, 0) + c
                strips = set(_strips(lam, p, mode))
                for shape, left_count, right_count in report.by_shape:
                    assert left_count == left.get(shape, 0), (sig, lam, p, mode, shape)
                    want = super_tableau_count(shape, sig) if shape in strips else 0
                    assert right_count == want, (sig, lam, p, mode, shape)
                shapes = set(left) | {mu for mu in strips if super_tableau_count(mu, sig)}
                assert [shape for shape, _, _ in report.by_shape] == sorted(shapes)

    def test_size_cap(self, mixed3):
        with pytest.raises(BoundExceededError):
            pieri_check((3, 3, 3), 3, mixed3, max_cells=5)

    def test_bad_mode(self, mixed3):
        with pytest.raises(ValueError):
            pieri_check((2, 1), 2, mixed3, mode="diag")


class TestLittlewoodRichardson:
    def test_oracle_classical_values(self, mixed3):
        assert lr_coefficients((2, 1), (2, 1))[(3, 2, 1)] == 2
        assert lr_coefficients((1,), (1,)) == {(2,): 1, (1, 1): 1}
        assert lr_coefficients((2, 1), ()) == {(2, 1): 1}
        assert lr_coefficients((1, 1), (2,)) == {(3, 1): 1, (2, 1, 1): 1}
        # the ring over three letters, shapes of four rows included:
        # s_21 * s_21 = s_42 + s_411 + s_33 + 2 s_321 + s_3111 + s_222 + s_2211
        s = {mu: s_lambda(mu, mixed3) for mu in partitions(6)}
        assert ring_product(s_lambda((2, 1), mixed3), s_lambda((2, 1), mixed3)) == (
            s[4, 2] + s[4, 1, 1] + s[3, 3] + s[3, 2, 1] + s[3, 2, 1] + s[3, 1, 1, 1] + s[2, 2, 2] + s[2, 2, 1, 1])

    def test_oracle_dimension_count(self):
        """Sum over mu of c^mu_{lam nu} f^mu is C(|lam| + |nu|, |lam|) f^lam f^nu,
        f counting standard fillings, on every pair of shapes of at most 5
        cells each."""
        shapes = [lam for n in range(6) for lam in partitions(n)]
        for lam in shapes:
            for nu in shapes:
                total = sum(c * hook_length_count(mu) for mu, c in lr_coefficients(lam, nu).items())
                want = math.comb(sum(lam) + sum(nu), sum(lam)) * hook_length_count(lam) * hook_length_count(nu)
                assert total == want, (lam, nu)

    def test_product_is_the_lr_sum_on_every_four_letter_signature(self):
        """All 16 signatures of 4 letters, |lam|, |nu| <= 4 and |lam| + |nu| <= 7."""
        assert lr_differences(4, 4, 7) == (1536, [])

    def test_wrong_insertion_breaks_the_lr_sum(self, monkeypatch):
        """The check above sees a wrong insertion, which appends every letter
        to the first row."""

        def append_to_the_row(row, xs, col_next):
            row += xs
            return []

        monkeypatch.setattr(superplactic.ring, "_row_step", append_to_the_row)
        _, differ = lr_differences(2, 2, 4)
        assert ((0, 0), (1,), (1,)) in differ
