"""The value types compare and hash by content, refuse assignment and
keep their printed form."""

import pytest

from superplactic import (
    FormalSum,
    SkewDiagram,
    SkewTableau,
    Word,
    make_alphabet,
    validate,
    validate_array,
)


def _alphabet():
    return make_alphabet(["1", "2"], [0, 1])


# name: (a builder of a fresh value, a field to assign, its repr)
VALUES = {
    "SignedAlphabet": (_alphabet, "letters", "SignedAlphabet(1:0, 2:1)"),
    "Word": (lambda: Word(_alphabet(), ["2", "1", "1"]), "letters", "Word(2 1 1)"),
    "Tableau": (lambda: validate([["1", "1", "2"], ["2"]], _alphabet()), "rows", "Tableau(1 1 2 | 2)"),
    "SkewTableau": (
        lambda: SkewTableau(_alphabet(), (2, 1), (1,), [[1], [1]]),
        "inner",
        "SkewTableau((2, 1)/(1,): 2 | 2)",
    ),
    "TwoRowedArray": (
        lambda: validate_array([("1", "1"), ("1", "1"), ("2", "2")], _alphabet(), _alphabet()),
        "pairs",
        "TwoRowedArray((1,1), (1,1), (2,2))",
    ),
    "SkewDiagram": (lambda: SkewDiagram((3, 1), (1,)), "outer", "SkewDiagram((3, 1), (1,))"),
    "FormalSum": (
        lambda: FormalSum(_alphabet(), [(validate([["1", "2"]], _alphabet()), 2)]),
        "alphabet",
        "FormalSum(+2 [1 2])",
    ),
}


@pytest.mark.parametrize("name", sorted(VALUES))
def test_value_contract(name):
    build, field, text = VALUES[name]
    a, b = build(), build()
    assert a is not b and a == b
    if name == "FormalSum":
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(b, field))
    assert repr(a) == text
