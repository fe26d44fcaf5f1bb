"""Every size bound names what it saw, the limit it broke and the setting
that raises it, and keeps its message; a bound setting that is not an
integer is such an error too.  A huge integer argument is cut in the
message of its domain error, and each argument gate words its error."""

import pytest

import superplactic.plactic
from superplactic import (
    AlphabetError,
    BoundExceededError,
    CornerError,
    ForeignLetterError,
    ShapeError,
    Tableau,
    Word,
    check_tableau,
    class_size,
    col_delete,
    enumerate_arrays,
    greene_col,
    greene_profile,
    greene_row,
    greene_via_shape,
    make_alphabet,
    partitions,
    pieri_check,
    plactic_class,
    row_delete,
    s_col,
    s_row,
    split_by_threshold,
    symmetry_probe,
)
from superplactic.plactic import MAX_STATES_ENV


def _evens():
    return make_alphabet(["1", "2"], [0, 0])


def _mixed():
    return make_alphabet(["1", "2"], [0, 1])


# name: (environment, a call that breaks one bound, message, observed, limit, setting)
SITES = {
    "class_length": (
        {}, lambda: plactic_class(Word(_evens(), ["1"] * 10)),
        "word of length 10 exceeds the class search bound 9", 10, 9, "max_len",
    ),
    "class_states_argument": (
        {}, lambda: plactic_class(Word(_evens(), ["1", "2", "1"]), max_states=1),
        "class search exceeded 1 states", 2, 1, "max_states",
    ),
    "class_states_zero_argument": (
        {}, lambda: plactic_class(Word(_evens(), ["1", "2", "1"]), max_states=0),
        "max_states must be an integer of at least 1, got 0", 0, 1, "max_states",
    ),
    "class_states_fractional_argument": (
        {MAX_STATES_ENV: "5"}, lambda: plactic_class(Word(_evens(), ["1", "2", "1"]), max_states=2.5),
        "max_states must be an integer of at least 1, got 2.5", 2.5, 1, "max_states",
    ),
    "class_states_environment": (
        {MAX_STATES_ENV: "1"}, lambda: plactic_class(Word(_evens(), ["1", "2", "1"])),
        "class search exceeded 1 states", 2, 1, MAX_STATES_ENV,
    ),
    "class_states_bad_environment": (
        {MAX_STATES_ENV: "abc"}, lambda: plactic_class(Word(_evens(), ["1", "2", "1"])),
        "SUPERPLACTIC_MAX_STATES must be an integer of at least 1, got 'abc'", "abc", 1, MAX_STATES_ENV,
    ),
    "greene_length": (
        {}, lambda: greene_col(Word(_evens(), ["1"] * 9), 4),
        "word of length 9 exceeds the Greene search bound 8", 9, 8, "max_len",
    ),
    "greene_length_argument": (
        {}, lambda: greene_row(Word(_evens(), ["1"] * 5), 1, max_len=4),
        "word of length 5 exceeds the Greene search bound 4", 5, 4, "max_len",
    ),
    "class_size_length": (
        {}, lambda: class_size(Word(_mixed(), ["1"] * 10)),
        "word of length 10 exceeds the class size bound 9", 10, 9, "max_len",
    ),
    "pieri_cells": (
        {}, lambda: pieri_check((3, 3, 3), 3, make_alphabet(["1", "2", "3"], [0, 1, 0]), max_cells=5),
        "total size 12 exceeds the Pieri bound 5", 12, 5, "max_cells",
    ),
    "probe_arrays": (
        {}, lambda: symmetry_probe(_mixed(), _mixed(), 3, max_arrays=5),
        "probe exceeded 5 arrays", 25, 5, "max_arrays",
    ),
    # every bound setting must be an integer, checked on the call
    "class_length_text": (
        {}, lambda: plactic_class(Word(_evens(), ["1"]), max_len="9"),
        "max_len must be an integer, got '9'", "9", None, "max_len",
    ),
    "class_size_length_none": (
        {}, lambda: class_size(Word(_mixed(), ["1"]), max_len=None),
        "max_len must be an integer, got None", None, None, "max_len",
    ),
    "greene_length_text": (
        {}, lambda: greene_row(Word(_evens(), ["1"]), 1, max_len="9"),
        "max_len must be an integer, got '9'", "9", None, "max_len",
    ),
    "pieri_cells_text": (
        {}, lambda: pieri_check((1,), 1, _mixed(), max_cells="12"),
        "max_cells must be an integer, got '12'", "12", None, "max_cells",
    ),
    "probe_arrays_text": (
        {}, lambda: symmetry_probe(_mixed(), _mixed(), 2, max_arrays="5"),
        "max_arrays must be an integer, got '5'", "5", None, "max_arrays",
    ),
    "probe_arrays_fractional": (
        {}, lambda: symmetry_probe(_mixed(), _mixed(), 2, max_arrays=2.5),
        "max_arrays must be an integer, got 2.5", 2.5, None, "max_arrays",
    ),
}


@pytest.mark.parametrize("name", SITES)
def test_bound_names_its_setting(name, monkeypatch):
    env, call, message, observed, limit, setting = SITES[name]
    monkeypatch.delenv(MAX_STATES_ENV, raising=False)
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    with pytest.raises(BoundExceededError) as info:
        call()
    assert str(info.value) == message
    assert (info.value.observed, info.value.limit, info.value.setting) == (observed, limit, setting)


_HUGE = 10**5000  # past Python's default limit on integer-to-string conversion


def _tableau():
    return Tableau(_mixed(), [[0, 1], [1]])


# name: (a call with a huge integer argument, the domain error it raises)
HUGE_CALLS = {
    "class_size_max_len": (lambda: class_size(Word(_mixed(), ["1"]), max_len=-_HUGE), BoundExceededError),
    "greene_row_max_len": (lambda: greene_row(Word(_mixed(), ["1"]), 1, max_len=-_HUGE), BoundExceededError),
    "class_max_len": (lambda: plactic_class(Word(_mixed(), ["1"]), max_len=-_HUGE), BoundExceededError),
    "class_max_states": (lambda: plactic_class(Word(_evens(), ["1", "2", "1"]), max_states=-_HUGE),
                         BoundExceededError),
    "probe_max_arrays": (lambda: symmetry_probe(_mixed(), _mixed(), 1, max_arrays=-_HUGE), BoundExceededError),
    "pieri_shape": (lambda: pieri_check((_HUGE,), 1, _mixed()), BoundExceededError),
    "row_delete": (lambda: row_delete(_tableau(), _HUGE), CornerError),
    "col_delete": (lambda: col_delete(_tableau(), _HUGE), CornerError),
    "alphabet_symbol": (lambda: _mixed().symbol(_HUGE), ForeignLetterError),
    "word_from_indices": (lambda: Word.from_indices(_mixed(), [_HUGE]), ForeignLetterError),
    "check_tableau": (lambda: check_tableau(Tableau(_mixed(), [[_HUGE]])), ForeignLetterError),
    "split_by_threshold": (lambda: split_by_threshold(_tableau(), _HUGE), AlphabetError),
}


@pytest.mark.parametrize("name", HUGE_CALLS)
def test_huge_integer_gives_a_short_domain_error(name):
    call, error = HUGE_CALLS[name]
    with pytest.raises(error) as info:
        call()
    assert len(str(info.value)) < 200


# name: (a call with a non-integer size or index, the error type the same
# call raises for an integer out of range, and the message naming the value)
NON_INTEGER_CALLS = {
    "greene_row_k": (lambda: greene_row(Word(_mixed(), ["1", "2"]), 1.5), ValueError,
                     "k must be an integer, got 1.5"),
    "greene_col_k": (lambda: greene_col(Word(_mixed(), ["1", "2"]), 2.0), ValueError,
                     "k must be an integer, got 2.0"),
    "greene_via_shape_k": (lambda: greene_via_shape(Word(_mixed(), ["1", "2"]), 1.5), ValueError,
                           "k must be an integer, got 1.5"),
    "greene_profile_max_k": (lambda: greene_profile(Word(_mixed(), ["1", "2"]), 2.0), ValueError,
                             "max_k must be an integer, got 2.0"),
    "pieri_p": (lambda: pieri_check((2, 1), 1.5, _mixed()), ValueError, "p must be an integer, got 1.5"),
    "pieri_col_p": (lambda: pieri_check((2, 1), 1.5, _mixed(), mode="col"), ValueError,
                    "p must be an integer, got 1.5"),
    "s_row_p": (lambda: s_row(1.5, _mixed()), ValueError, "p must be an integer, got 1.5"),
    "s_col_p": (lambda: s_col(1.5, _mixed()), ValueError, "p must be an integer, got 1.5"),
    "row_delete": (lambda: row_delete(_tableau(), 1.5), CornerError, "row 1.5 does not exist"),
    "row_delete_whole_float": (lambda: row_delete(_tableau(), 2.0), CornerError, "row 2.0 does not exist"),
    "col_delete": (lambda: col_delete(_tableau(), 1.5), CornerError, "column 1.5 does not exist"),
    "col_delete_text": (lambda: col_delete(_tableau(), "1"), CornerError, "column '1' does not exist"),
    "alphabet_symbol": (lambda: _mixed().symbol(0.5), ForeignLetterError, "letter index 0.5 out of range"),
    # partitions checks n and max_part where it checks a negative n: on the call
    "partitions_n": (lambda: partitions(2.5), ShapeError,
                     "cannot partition 2.5, which is not an integer"),
    "partitions_max_part": (lambda: partitions(3, max_part=1.5), ValueError,
                            "max_part must be an integer, got 1.5"),
    "enumerate_arrays_max_cols": (lambda: enumerate_arrays(_mixed(), _mixed(), 2.5), ValueError,
                                  "max_cols must be an integer, got 2.5"),
    "probe_max_cols": (lambda: symmetry_probe(_mixed(), _mixed(), 2.5), ValueError,
                       "max_cols must be an integer, got 2.5"),
}


@pytest.mark.parametrize("name", NON_INTEGER_CALLS)
def test_non_integer_gives_the_out_of_range_error(name):
    call, error, message = NON_INTEGER_CALLS[name]
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message


# name: (a call that one argument gate rejects, the error, its message)
GATE_CALLS = {
    "probe_examples_per_cell": (lambda: symmetry_probe(_mixed(), _mixed(), 2, examples_per_cell="3"),
                                ValueError, "examples_per_cell must be an integer, got '3'"),
    "probe_examples_per_cell_negative": (lambda: symmetry_probe(_mixed(), _mixed(), 2, examples_per_cell=-1),
                                         ValueError, "examples_per_cell must be at least 0"),
    "s_row_p": (lambda: s_row(-1, _mixed()), ValueError, "p must be at least 0"),
    "s_col_p": (lambda: s_col(-1, _mixed()), ValueError, "p must be at least 0"),
    "pieri_p": (lambda: pieri_check((1,), -1, _mixed()), ValueError, "p must be at least 0"),
    "enumerate_arrays_max_cols": (lambda: enumerate_arrays(_mixed(), _mixed(), -1), ValueError,
                                  "max_cols must be at least 0"),
    "probe_max_cols": (lambda: symmetry_probe(_mixed(), _mixed(), -1), ValueError,
                       "max_cols must be at least 0"),
    "greene_row_k": (lambda: greene_row(Word(_mixed(), ["1"]), 0), ValueError, "k must be at least 1"),
    "greene_via_shape_k": (lambda: greene_via_shape(Word(_mixed(), ["1"]), 0), ValueError,
                           "k must be at least 1"),
    "greene_profile_mode": (lambda: greene_profile(Word(_mixed(), ["1"]), 1, "diag"), ValueError,
                            "mode must be 'row' or 'col'"),
    "greene_via_shape_mode": (lambda: greene_via_shape(Word(_mixed(), ["1"]), 1, "diag"), ValueError,
                              "mode must be 'row' or 'col'"),
    "pieri_mode": (lambda: pieri_check((1,), 1, _mixed(), mode="diag"), ValueError,
                   "mode must be 'row' or 'col'"),
    "check_tableau": (lambda: check_tableau(Tableau(_mixed(), [[0, 5]])), ForeignLetterError,
                      "letter index 5 out of range"),
    "to_symbols": (lambda: _mixed().to_symbols([0, -1]), ForeignLetterError, "letter index -1 out of range"),
}


@pytest.mark.parametrize("name", GATE_CALLS)
def test_argument_gate_words_its_error(name):
    call, error, message = GATE_CALLS[name]
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message


def test_greene_via_shape_checks_its_mode_before_inserting(monkeypatch):
    def no_insertion(word):
        raise AssertionError("inserted before the mode was checked")

    monkeypatch.setattr(superplactic.plactic, "tableau_of_word", no_insertion)
    with pytest.raises(ValueError, match="mode must be"):
        greene_via_shape(Word(_mixed(), ["1"]), 1, "diag")
