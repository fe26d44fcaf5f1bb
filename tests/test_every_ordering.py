"""The plactic theorems on every signature of four letters.

Criteria 04, 05 and 12 run on one split alphabet, parities 0,0,1,1.  These
tests check the same statements on all sixteen orderings of four letters,
with tableaux and their shapes taken from the independent insertion of
tests/oracles.py.
"""

import itertools

import pytest

from superplactic import Word, greene_profile, make_alphabet, plactic_class

from oracles import all_signatures, hook_length_count, insertion_tableau

SIGNATURES = all_signatures(4)


def _alphabet(signature):
    return make_alphabet(["1", "2", "3", "4"], list(signature))


@pytest.mark.parametrize("signature", SIGNATURES)
def test_classes_are_fibers_of_every_signature(signature):
    """Every class of a word of at most 6 letters is the set of words with
    its tableau, and has as many members as its shape has standard fillings.

    One search per class suffices: the moves are symmetric, so every member
    of a class has the same closure.
    """
    alphabet = _alphabet(signature)
    for length in range(7):
        for content in itertools.combinations_with_replacement(range(4), length):
            fibers = {}
            for xs in set(itertools.permutations(content)):
                fibers.setdefault(insertion_tableau(xs, signature), set()).add(xs)
            for t, fiber in fibers.items():
                members = {w.letters for w in plactic_class(Word.from_indices(alphabet, min(fiber)))}
                assert members == fiber, (signature, t)
                assert len(members) == hook_length_count([len(row) for row in t]), (signature, t)


@pytest.mark.parametrize("signature", SIGNATURES)
def test_greene_profile_is_the_shape_of_every_signature(signature):
    """l_1, l_2, l_3 are the partial sums of the shape in row mode and of
    the conjugate shape in column mode, on every word of at most 5 letters."""
    alphabet = _alphabet(signature)
    for length in range(6):
        for xs in itertools.product(range(4), repeat=length):
            shape = [len(row) for row in insertion_tableau(xs, signature)]
            w = Word.from_indices(alphabet, xs)
            conj = [sum(part > j for part in shape) for j in range(shape[0] if shape else 0)]
            for mode, lam in (("row", shape), ("col", conj)):
                sums = tuple(sum(lam[:k]) for k in (1, 2, 3))
                assert greene_profile(w, 3, mode) == sums, (signature, xs, mode)
