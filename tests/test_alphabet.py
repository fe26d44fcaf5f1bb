import itertools
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from superplactic import (
    AlphabetError,
    ForeignLetterError,
    alphabet_from_json,
    alphabet_to_json,
    conjugate_alphabet,
    make_alphabet,
    product_alphabet,
)


def test_basic_accessors(mixed4):
    assert mixed4.letters == ("1", "2", "3", "4")
    assert mixed4.parities == (0, 0, 1, 1)
    assert mixed4.index("3") == 2
    assert mixed4.symbol(2) == "3"
    assert mixed4.parity_of("3") == 1
    assert mixed4.even_letters == ("1", "2")
    assert mixed4.odd_letters == ("3", "4")
    assert len(mixed4.letters) == 4


def test_order_is_positional_not_lexicographic():
    a = make_alphabet(["b", "a"], [0, 1])
    assert a.index("b") < a.index("a")
    assert a.parity_of("a") == 1


def test_empty_alphabet_allowed():
    a = make_alphabet([], [])
    assert a.letters == ()
    assert a.even_letters == ()


def test_duplicate_letter_rejected():
    with pytest.raises(AlphabetError):
        make_alphabet(["a", "a"], [0, 0])


def test_parity_length_mismatch_rejected():
    with pytest.raises(AlphabetError):
        make_alphabet(["a"], [0, 1])


def test_bad_parity_value_rejected():
    with pytest.raises(AlphabetError):
        make_alphabet(["a"], [2])


def test_non_string_letter_rejected():
    with pytest.raises(AlphabetError):
        make_alphabet([1], [0])


@pytest.mark.parametrize(
    "letters, parities, message",
    [
        (["a", "a"], [0, 0], "duplicate letter 'a'"),
        (["a"], [2], "parity must be 0 or 1, got 2"),
        ([1], [0], "letters must be strings, got 1"),
        (["x" * 100] * 2, [0, 0], "duplicate letter '%s... (102 characters)" % ("x" * 39)),
        (["a"], [10 ** 99], "parity must be 0 or 1, got %s... (100 characters)" % ("1" + "0" * 39)),
        # past the default limit on integer-to-string conversion, where repr raises
        (["a"], [10 ** 5000], "parity must be 0 or 1, got an integer of 16610 bits"),
    ],
)
def test_messages_cut_long_values(letters, parities, message):
    """Short values are echoed whole; long ones are cut to 40 characters
    followed by their length."""
    with pytest.raises(AlphabetError) as info:
        make_alphabet(letters, parities)
    assert str(info.value) == message


def test_foreign_symbol_raises(mixed4):
    with pytest.raises(ForeignLetterError):
        mixed4.index("9")
    with pytest.raises(ForeignLetterError):
        mixed4.parity_of("9")
    with pytest.raises(ForeignLetterError):
        mixed4.to_indices(["1", "9"])
    with pytest.raises(ForeignLetterError) as info:
        mixed4.index("9" * 5000)
    assert str(info.value) == "letter '%s... (5002 characters) is not in the alphabet" % ("9" * 39)


def test_index_symbol_roundtrip(alternating6):
    for i, sym in enumerate(alternating6.letters):
        assert alternating6.index(sym) == i
        assert alternating6.symbol(i) == sym
    seq = ["5", "1", "4", "4"]
    assert alternating6.to_symbols(alternating6.to_indices(seq)) == tuple(seq)


def test_equality_and_hash(mixed4):
    twin = make_alphabet(["1", "2", "3", "4"], [0, 0, 1, 1])
    other = make_alphabet(["1", "2", "3", "4"], [0, 0, 1, 0])
    assert mixed4 == twin
    assert hash(mixed4) == hash(twin)
    assert mixed4 != other


def test_immutable(mixed4):
    with pytest.raises(AttributeError):
        mixed4.letters = ()


def test_conjugate_flips_parities(mixed4):
    conj = conjugate_alphabet(mixed4)
    assert conj.letters == mixed4.letters
    assert conj.parities == (1, 1, 0, 0)
    assert conjugate_alphabet(conj) == mixed4


def test_product_alphabet_order_and_parity():
    left = make_alphabet(["1", "2"], [0, 1])
    right = make_alphabet(["x", "y"], [1, 1])
    prod = product_alphabet(left, right)
    assert prod.letters == ("(1,x)", "(2,x)", "(1,y)", "(2,y)")
    assert prod.parities == (1, 0, 1, 0)


def test_product_alphabet_sizes(mixed3, mixed4):
    prod = product_alphabet(mixed3, mixed4)
    assert len(prod.letters) == 12
    assert len(set(prod.letters)) == 12
    for a in mixed3.letters:
        for b in mixed4.letters:
            pair = "(%s,%s)" % (a, b)
            want = (mixed3.parity_of(a) + mixed4.parity_of(b)) % 2
            assert prod.parity_of(pair) == want


def test_product_alphabet_right_major_comparisons(mixed3, mixed4):
    prod = product_alphabet(mixed3, mixed4)
    for a1 in mixed3.letters:
        for b1 in mixed4.letters:
            for a2 in mixed3.letters:
                for b2 in mixed4.letters:
                    lhs = prod.index("(%s,%s)" % (a1, b1))
                    rhs = prod.index("(%s,%s)" % (a2, b2))
                    i1, j1 = mixed3.index(a1), mixed4.index(b1)
                    i2, j2 = mixed3.index(a2), mixed4.index(b2)
                    assert (lhs < rhs) == ((j1, i1) < (j2, i2))


def test_json_roundtrip(split24):
    blob = alphabet_to_json(split24)
    assert blob == {"letters": list(split24.letters), "parity": list(split24.parities)}
    assert alphabet_from_json(blob) == split24


def test_parities_stored_as_int():
    a = make_alphabet(["a", "b"], [True, 0])
    assert [type(p) for p in a.parities] == [int, int]
    assert json.dumps(alphabet_to_json(a)) == '{"letters": ["a", "b"], "parity": [1, 0]}'
    assert a == make_alphabet(["a", "b"], [1, 0])


def test_order_tables_encode_the_parity_rule():
    for sig in itertools.product((0, 1), repeat=3):
        a = make_alphabet(["x", "y", "z"], sig)
        for p, q in itertools.product(range(3), repeat=2):
            assert (q >= a.row_next[p]) == (p < q or (p == q and sig[p] == 0))
            assert (q >= a.col_next[p]) == (p < q or (p == q and sig[p] == 1))
            assert (q >= a.row_next[p]) == (p < a.col_next[q])


def test_json_rejects_malformed():
    with pytest.raises(AlphabetError):
        alphabet_from_json({"letters": ["a"]})
    with pytest.raises(AlphabetError):
        alphabet_from_json({"letters": ["a", "a"], "parity": [0, 0]})


@given(st.integers(1, 8).flatmap(lambda k: st.tuples(st.just(k), st.lists(st.integers(0, 1), min_size=k, max_size=k))))
def test_roundtrip_any_signature(data):
    k, parities = data
    letters = ["L%d" % i for i in range(k)]
    a = make_alphabet(letters, parities)
    assert alphabet_from_json(alphabet_to_json(a)) == a
    assert conjugate_alphabet(conjugate_alphabet(a)) == a
    assert a.to_symbols(range(k)) == tuple(letters)
