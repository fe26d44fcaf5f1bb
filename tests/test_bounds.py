"""Every size bound names what it saw, the limit it broke and the setting
that raises it, and keeps its message."""

import pytest

from superplactic import (
    BoundExceededError,
    Word,
    class_size,
    greene_col,
    greene_row,
    make_alphabet,
    pieri_check,
    plactic_class,
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
        "probe exceeded 5 arrays", 6, 5, "max_arrays",
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
