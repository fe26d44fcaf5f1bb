import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superplactic import (
    AlphabetMismatchError,
    BoundExceededError,
    PlacticClass,
    Word,
    canonical_word,
    conjugate_partition,
    equivalent,
    greene_col,
    greene_profile,
    greene_row,
    greene_via_shape,
    is_column_word,
    is_row_word,
    knuth_neighbors,
    make_alphabet,
    plactic_class,
    tableau_of_word,
    word_of,
    z2_degree,
)
from superplactic.plactic import MAX_STATES_ENV

from oracles import (
    all_signatures,
    classical_knuth_neighbors,
    greene_family_max,
    signed_knuth_neighbors,
    words_over,
)


def knuth_closure(word):
    """The words reachable from word through knuth_neighbors."""
    closure = {word}
    frontier = {word}
    while frontier:
        frontier = {v for u in frontier for v in knuth_neighbors(u)} - closure
        closure.update(frontier)
    return closure


class TestGrading:
    def test_degree_counts_odd_letters_mod_two(self, mixed4):
        assert z2_degree(Word(mixed4)) == 0
        assert z2_degree(Word(mixed4, ["3"])) == 1
        assert z2_degree(Word(mixed4, ["3", "4", "1"])) == 0
        assert z2_degree(Word(mixed4, ["3", "3", "3"])) == 1


class TestWordKinds:
    def test_repeats_depend_on_parity(self, mixed4):
        assert is_row_word(Word(mixed4, ["1", "1"]))
        assert not is_column_word(Word(mixed4, ["1", "1"]))
        assert not is_row_word(Word(mixed4, ["3", "3"]))
        assert is_column_word(Word(mixed4, ["3", "3"]))

    def test_strict_steps(self, mixed4):
        assert is_row_word(Word(mixed4, ["1", "2", "3"]))
        assert not is_row_word(Word(mixed4, ["2", "1"]))
        assert is_column_word(Word(mixed4, ["3", "2", "1"]))
        assert not is_column_word(Word(mixed4, ["1", "2"]))

    def test_trivial_words(self, mixed4):
        for w in (Word(mixed4), Word(mixed4, ["4"])):
            assert is_row_word(w)
            assert is_column_word(w)


class TestNeighbors:
    def test_all_even_matches_classical_moves(self, evens3):
        for xs in words_over(evens3, 6):
            w = Word.from_indices(evens3, xs)
            got = {v.letters for v in knuth_neighbors(w)}
            assert got == classical_knuth_neighbors(w.letters)

    def test_matches_signed_moves(self):
        for n in range(1, 5):
            for sig in all_signatures(n):
                alphabet = make_alphabet([str(i) for i in range(1, n + 1)], sig)
                for xs in words_over(alphabet, 5):
                    w = Word.from_indices(alphabet, xs)
                    got = {v.letters for v in knuth_neighbors(w)}
                    assert got == signed_knuth_neighbors(w.letters, sig), (sig, w.letters)

    def test_symmetric(self, mixed4):
        for xs in words_over(mixed4, 5):
            w = Word.from_indices(mixed4, xs)
            for v in knuth_neighbors(w):
                assert w in knuth_neighbors(v)

    def test_preserve_content_degree_and_tableau(self, mixed4):
        for xs in words_over(mixed4, 5, min_len=3):
            w = Word.from_indices(mixed4, xs)
            t = tableau_of_word(w)
            for v in knuth_neighbors(w):
                assert sorted(v.symbols) == sorted(w.symbols)
                assert z2_degree(v) == z2_degree(w)
                assert tableau_of_word(v) == t

    def test_each_neighbor_is_one_adjacent_swap(self):
        """plactic_class keys its search on this: a move swaps exactly one
        adjacent pair of distinct letters, so it never returns the word."""
        for n in range(1, 4):
            for sig in all_signatures(n):
                alphabet = make_alphabet([str(i) for i in range(1, n + 1)], sig)
                for xs in words_over(alphabet, 6):
                    w = Word.from_indices(alphabet, xs)
                    neighbors = knuth_neighbors(w)
                    assert w not in neighbors
                    for v in neighbors:
                        diff = [i for i, (a, b) in enumerate(zip(w.letters, v.letters)) if a != b]
                        assert len(v) == len(w) and len(diff) == 2, (sig, w.letters, v.letters)
                        i, j = diff
                        assert j == i + 1 and v.letters[i] == w.letters[j] and v.letters[j] == w.letters[i]

    def test_short_words_have_no_neighbors(self, mixed4):
        assert knuth_neighbors(Word(mixed4)) == set()
        assert knuth_neighbors(Word(mixed4, ["1", "2"])) == set()


class TestClasses:
    def test_two_element_class(self, evens2):
        w = Word(evens2, ["1", "2", "1"])
        got = {v.symbols for v in plactic_class(w)}
        assert got == {("1", "2", "1"), ("2", "1", "1")}

    def test_row_word_class_is_singleton(self, evens2):
        w = Word(evens2, ["1", "1", "2", "2"])
        assert plactic_class(w) == {w}

    def test_class_contains_word_and_canonical(self, mixed4):
        for xs in words_over(mixed4, 4):
            w = Word.from_indices(mixed4, xs)
            cls = plactic_class(w)
            assert w in cls
            assert canonical_word(w) in cls

    def test_classes_partition_by_tableau(self, mixed3):
        for xs in words_over(mixed3, 4, min_len=1):
            w = Word.from_indices(mixed3, xs)
            t = tableau_of_word(w)
            for v in plactic_class(w):
                assert tableau_of_word(v) == t

    def test_closure_of_public_neighbors(self):
        for sig in all_signatures(3):
            alphabet = make_alphabet(["1", "2", "3"], list(sig))
            for symbols in ("3121", "23121", "321321", "213312"):
                w = Word(alphabet, symbols)
                assert plactic_class(w) == knuth_closure(w), (sig, symbols)

    @pytest.mark.parametrize("indices", [
        (33, 0, 17, 33, 16, 0, 17, 16, 33, 1, 0),
        (33, 17, 0, 32, 16, 33, 0, 17, 16, 32, 1, 33),
    ])
    def test_closure_over_a_wide_alphabet(self, indices):
        """Over 34 letters each letter of the search key takes 6 bits, and
        letters 32 and 33 set the top bit of their field.  Letters 0, 16
        and 32 have parity 0 and letters 1, 17 and 33 parity 1; both words
        repeat letters of each parity."""
        alphabet = make_alphabet([str(i) for i in range(34)], [i % 2 for i in range(34)])
        w = Word.from_indices(alphabet, indices)
        closure = knuth_closure(w)
        assert len(closure) > 1
        assert plactic_class(w, max_len=len(w)) == closure

    def test_length_bound(self, evens2):
        with pytest.raises(BoundExceededError):
            plactic_class(Word(evens2, ["1"] * 10))
        assert len(plactic_class(Word(evens2, ["1"] * 10), max_len=10)) == 1

    def test_state_bound(self, evens2):
        with pytest.raises(BoundExceededError):
            plactic_class(Word(evens2, ["1", "2", "1"]), max_states=1)

    def test_state_bound_from_environment(self, evens2, monkeypatch):
        monkeypatch.setenv(MAX_STATES_ENV, "1")
        with pytest.raises(BoundExceededError):
            plactic_class(Word(evens2, ["1", "2", "1"]))
        monkeypatch.setenv(MAX_STATES_ENV, "1000")
        assert len(plactic_class(Word(evens2, ["1", "2", "1"]))) == 2

    @pytest.mark.parametrize("setting", ["abc", "", "1.5", "0", "-3"])
    def test_bad_state_bound_in_environment(self, evens2, monkeypatch, setting):
        monkeypatch.setenv(MAX_STATES_ENV, setting)
        with pytest.raises(BoundExceededError, match=MAX_STATES_ENV):
            plactic_class(Word(evens2, ["1", "2", "1"]))


class TestCanonical:
    def test_reading_word_of_tableau(self, mixed4):
        for xs in words_over(mixed4, 4):
            w = Word.from_indices(mixed4, xs)
            canon = canonical_word(w)
            assert canon == word_of(tableau_of_word(w))
            assert canonical_word(canon) == canon

    def test_equivalent(self, evens2):
        assert equivalent(Word(evens2, ["1", "2", "1"]), Word(evens2, ["2", "1", "1"]))
        assert not equivalent(Word(evens2, ["1", "2", "1"]), Word(evens2, ["1", "1", "2"]))
        assert equivalent(Word(evens2), Word(evens2))

    def test_equivalent_rejects_two_alphabets(self, evens2, mixed2):
        with pytest.raises(AlphabetMismatchError, match="words live over different alphabets"):
            equivalent(Word(evens2, ["1"]), Word(mixed2, ["1"]))

    def test_class_wrapper(self, evens2):
        pc = PlacticClass.of(Word(evens2, ["1", "2", "1"]))
        assert pc.representative.symbols == ("1", "2", "1")
        assert pc.canonical.symbols == ("2", "1", "1")
        assert pc.tableau().symbol_rows() == (("1", "1"), ("2",))


class TestGreene:
    @pytest.fixture
    def table_word(self):
        alphabet = make_alphabet(["1", "2", "3", "4", "5"], [0, 0, 1, 0, 1])
        return Word(alphabet, ["1", "2", "3", "3", "4", "5", "5"])

    def test_worked_row_values(self, table_word):
        assert greene_row(table_word, 1) == 5
        assert greene_row(table_word, 2) == 7
        assert greene_row(table_word, 3) == 7

    def test_worked_col_values(self, table_word):
        assert [greene_col(table_word, k) for k in (1, 2, 3)] == [2, 4, 5]
        assert greene_profile(table_word, 7, "col") == (2, 4, 5, 6, 7, 7, 7)

    def test_trivial_words(self, mixed4):
        assert greene_row(Word(mixed4), 1) == 0
        assert greene_col(Word(mixed4), 2) == 0
        assert greene_row(Word(mixed4, ["3"]), 1) == 1

    def test_length_bounds(self, evens2):
        with pytest.raises(BoundExceededError):
            greene_row(Word(evens2, ["1"] * 11), 1)
        with pytest.raises(BoundExceededError):
            greene_row(Word(evens2, ["1"] * 9), 4)
        assert greene_row(Word(evens2, ["1"] * 9), 3) == 9
        assert greene_row(Word(evens2, ["1"] * 11), 1, max_len=11) == 11

    def test_huge_k_gives_word_length(self, mixed4):
        w = Word(mixed4, ["2", "1", "3", "3"])
        assert greene_row(w, 10**9) == 4
        assert greene_col(w, 10**9) == 4
        assert greene_row(Word(mixed4), 10**9) == 0
        assert greene_col(Word(mixed4), 10**9) == 0

    def test_profile_past_word_length_repeats_l_n(self, table_word):
        assert greene_profile(table_word, 10, "row") == (5, 7, 7, 7, 7, 7, 7, 7, 7, 7)
        assert greene_profile(table_word, 10, "col") == (2, 4, 5, 6, 7, 7, 7, 7, 7, 7)
        assert greene_profile(Word(table_word.alphabet), 3, "col") == (0, 0, 0)

    @pytest.mark.parametrize("max_k", [1, 2, 3, 4, 7, 8])
    def test_one_letter_fills_its_field(self, max_k):
        # max_k copies of a letter that no subword may repeat need max_k
        # subwords all ending at it: the fullest one letter's count can get
        for sig in all_signatures(3):
            alphabet = make_alphabet(["1", "2", "3"], list(sig))
            for x, parity in enumerate(sig):
                w = Word.from_indices(alphabet, [x] * max_k)
                mode = "row" if parity == 1 else "col"
                assert greene_profile(w, max_k, mode) == tuple(range(1, max_k + 1)), (sig, x)

    def test_profile_weakly_increasing_and_capped(self, mixed4):
        for xs in words_over(mixed4, 4):
            w = Word.from_indices(mixed4, xs)
            prof = greene_profile(w, 4, "row")
            assert all(a <= b for a, b in zip(prof, prof[1:]))
            assert prof[-1] <= len(w)

    def test_max_k_zero_and_negative(self, mixed4):
        w = Word(mixed4, ["2", "1", "3"])
        assert greene_profile(w, 0) == ()
        assert greene_profile(Word(mixed4), 0, "col") == ()
        for mode in ("row", "col"):
            with pytest.raises(ValueError, match="max_k must be at least 0"):
                greene_profile(w, -1, mode)

    def test_bad_mode(self, mixed4):
        with pytest.raises(ValueError):
            greene_profile(Word(mixed4, ["1"]), 1, "diag")

    def test_matches_family_search_mixed4(self, mixed4):
        for xs in words_over(mixed4, 4):
            w = Word.from_indices(mixed4, xs)
            for k in (1, 2, 3):
                assert greene_row(w, k) == greene_family_max(w, k, "row")
                assert greene_col(w, k) == greene_family_max(w, k, "col")

    def test_matches_family_search_longer_two_letters(self, mixed2):
        for xs in words_over(mixed2, 6, min_len=5):
            w = Word.from_indices(mixed2, xs)
            for k in (1, 2):
                assert greene_row(w, k) == greene_family_max(w, k, "row")
                assert greene_col(w, k) == greene_family_max(w, k, "col")

    def test_matches_family_search_every_signature(self):
        for size in (1, 2, 3):
            for sig in all_signatures(size):
                alphabet = make_alphabet([str(i + 1) for i in range(size)], list(sig))
                for xs in words_over(alphabet, 5):
                    w = Word.from_indices(alphabet, xs)
                    for k in (1, 2, 3):
                        assert greene_row(w, k) == greene_family_max(w, k, "row"), (sig, w, k)
                        assert greene_col(w, k) == greene_family_max(w, k, "col"), (sig, w, k)

    def test_via_shape_agrees(self, mixed4):
        for xs in words_over(mixed4, 4):
            w = Word.from_indices(mixed4, xs)
            lam = tableau_of_word(w).shape
            conj = conjugate_partition(lam)
            for k in (1, 2, 3):
                assert greene_via_shape(w, k, "row") == sum(lam[:k])
                assert greene_via_shape(w, k, "col") == sum(conj[:k])

    def test_invariant_across_class(self, mixed3, mixed4):
        """The last word, 3,1,2,2,3 with parities 0,1,0, has shape 3,1,1, its
        own conjugate: l_2 is 4 both ways, and its class holds the 6 standard
        fillings of 3,1,1, with canonical word 3,2,1,2,3."""
        for alphabet, symbols in ((mixed4, "2133"), (mixed4, "3412"), (mixed4, "4321"), (mixed3, "31223")):
            w = Word(alphabet, symbols)
            cls = plactic_class(w)
            profiles = {
                (greene_profile(v, 3, "row"), greene_profile(v, 3, "col"))
                for v in cls
            }
            assert len(profiles) == 1
        assert profiles == {((3, 4, 5), (3, 4, 5))}
        assert greene_row(w, 2) == greene_col(w, 2) == 4
        assert len(cls) == 6
        assert canonical_word(w).symbols == ("3", "2", "1", "2", "3")


@st.composite
def small_word(draw):
    k = draw(st.integers(1, 4))
    parities = draw(st.lists(st.integers(0, 1), min_size=k, max_size=k))
    letters = draw(st.lists(st.integers(0, k - 1), min_size=0, max_size=7))
    alphabet = make_alphabet([str(i + 1) for i in range(k)], parities)
    return Word.from_indices(alphabet, letters)


@given(small_word())
@settings(max_examples=150)
def test_greene_equals_shape_sums_random(word):
    lam = tableau_of_word(word).shape
    conj = conjugate_partition(lam)
    for k in (1, 2, 3):
        assert greene_row(word, k) == sum(lam[:k])
        assert greene_col(word, k) == sum(conj[:k])


def test_greene_profile_equals_shape_sums_long_words():
    rng = random.Random(2009)
    for _ in range(60):
        size = rng.randint(2, 6)
        alphabet = make_alphabet([str(i + 1) for i in range(size)], [rng.randint(0, 1) for _ in range(size)])
        w = Word.from_indices(alphabet, [rng.randrange(size) for _ in range(rng.randint(20, 80))])
        lam = tableau_of_word(w).shape
        conj = conjugate_partition(lam)
        k = rng.randint(1, 4)
        assert greene_profile(w, k, "row") == tuple(sum(lam[:j]) for j in range(1, k + 1)), w
        assert greene_profile(w, k, "col") == tuple(sum(conj[:j]) for j in range(1, k + 1)), w


def test_greene_profile_equals_shape_sums_large_alphabets():
    """Words of 20-40 letters over alphabets of 20-40 letters, one per k in
    1..8, so letter fields sit high in the packed DP state.  The DP keeps
    many more states as k grows, so the words for k >= 5 stay near 20
    letters to keep this under a second."""
    rng = random.Random(4040)
    for k in range(1, 9):
        size = rng.randint(20, 40)
        alphabet = make_alphabet([str(i + 1) for i in range(size)], [rng.randint(0, 1) for _ in range(size)])
        length = rng.randint(20, 40 if k <= 4 else 28 - k)
        w = Word.from_indices(alphabet, [rng.randrange(size) for _ in range(length)])
        lam = tableau_of_word(w).shape
        conj = conjugate_partition(lam)
        assert greene_profile(w, k, "row") == tuple(sum(lam[:j]) for j in range(1, k + 1)), w
        assert greene_profile(w, k, "col") == tuple(sum(conj[:j]) for j in range(1, k + 1)), w


@given(small_word())
@settings(max_examples=100)
def test_canonical_is_class_invariant_random(word):
    for v in knuth_neighbors(word):
        assert canonical_word(v) == canonical_word(word)
