"""The super plactic monoid: Knuth moves, classes, and Greene invariants.

Two words are congruent when one turns into the other by elementary moves
on three consecutive letters.  For letters x <= y <= z the moves are

  * xzy ~ zxy, allowed with x = y only when y has parity 0 and with
    y = z only when y has parity 1;
  * yxz ~ yzx, allowed with x = y only when y has parity 1 and with
    y = z only when y has parity 0.

Both moves swap an adjacent pair of letters around a pivot.  On an all
parity-0 alphabet they reduce to the classical Knuth relations.  Every
congruence class contains exactly one tableau word, the canonical form.

A row word is weakly increasing with equal neighbors only at parity-0
letters; a column word is weakly decreasing with equal neighbors only at
parity-1 letters.  The Greene invariant l_k(w) is the largest total length
of k index-disjoint subwords of w that are row words (for the column
variant, column words); it equals the partial sums of the shape (for rows)
or the conjugate shape (for columns) of the tableau of w, which is how the
class of a word remembers its shape.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from math import comb

from .bumping import tableau_of_word
from .errors import AlphabetMismatchError, _bound_error, _require_int, _require_mode, _require_setting
from .shape import conjugate_partition
from .tableau import Tableau, Word, word_of

DEFAULT_MAX_WORD_LEN = 9
DEFAULT_MAX_STATES = 10**6
MAX_STATES_ENV = "SUPERPLACTIC_MAX_STATES"


def z2_degree(word: Word) -> int:
    """Sum of the letter parities mod 2."""
    par = word.alphabet.parities
    return sum(par[x] for x in word.letters) % 2


def is_row_word(word: Word) -> bool:
    """Weakly increasing, with equal neighbors only at parity-0 letters."""
    row_next = word.alphabet.row_next
    xs = word.letters
    return all(b >= row_next[a] for a, b in zip(xs, xs[1:]))


def is_column_word(word: Word) -> bool:
    """Weakly decreasing, with equal neighbors only at parity-1 letters."""
    col_next = word.alphabet.col_next
    xs = word.letters
    return all(a >= col_next[b] for a, b in zip(xs, xs[1:]))


def _knuth_swaps(xs: tuple[int, ...], row_next: tuple[int, ...],
                 col_next: tuple[int, ...]) -> list[int]:
    """Positions i whose pair xs[i], xs[i + 1] a single elementary move swaps.

    Each move swaps one adjacent pair around a pivot y: the first move
    (xzy ~ zxy) has its pivot right after the pair, the second (yxz ~ yzx)
    right before it.  With the pair ordered as x <= z, it is an instance of
    a move exactly when x <= y <= z with the parity ties of the module
    docstring.  Since b >= row_next[a] exactly when a < col_next[b], those
    ties read row_next[x] <= y < row_next[z] for a pivot after the pair and
    col_next[x] <= y < col_next[z] for one before it.  Both ranges are
    empty when x = z, so every move changes the word.
    """
    out: list[int] = []
    n = len(xs)
    for i in range(n - 1):
        x, z = xs[i], xs[i + 1]
        if z < x:
            x, z = z, x
        if (i + 2 < n and row_next[x] <= xs[i + 2] < row_next[z]) or (
                i and col_next[x] <= xs[i - 1] < col_next[z]):
            out.append(i)
    return out


def knuth_neighbors(word: Word) -> set[Word]:
    """Words reachable from this one by a single elementary move."""
    alphabet = word.alphabet
    xs = word.letters
    return {Word._trusted(alphabet, xs[:i] + (xs[i + 1], xs[i]) + xs[i + 2:])
            for i in _knuth_swaps(xs, alphabet.row_next, alphabet.col_next)}


def _require_length(word: Word, max_len: int, bound: str) -> None:
    """Raise unless max_len is an integer and the word no longer; `bound` names the bound."""
    _require_setting("max_len", max_len)
    if len(word) > max_len:
        raise _bound_error("word of length {observed} exceeds the %s bound {limit}" % bound,
                           len(word), max_len, "max_len")


def plactic_class(word: Word, max_len: int = DEFAULT_MAX_WORD_LEN,
                  max_states: int | None = None) -> set[Word]:
    """The full congruence class of the word, found by searching over
    elementary moves from the word.

    Exponential in the word length, so the length is capped by `max_len`
    and the number of visited words by `max_states` (the environment
    variable SUPERPLACTIC_MAX_STATES overrides the latter default).

    Every move swaps one adjacent pair, so the search keys each visited
    word by one int: letter w_i sits in a field of len(alphabet).bit_length()
    bits at place value v_i, and swapping a = w_i with b = w_{i+1} changes
    the key by (b - a) * (v_i - v_{i+1}).  A neighbour's letter tuple is
    built only when its key has not been seen.
    """
    _require_length(word, max_len, "class search")
    setting, text = "max_states", None
    if max_states is None:
        setting, text = MAX_STATES_ENV, os.environ.get(MAX_STATES_ENV, str(DEFAULT_MAX_STATES))
        try:
            max_states = int(text)
        except ValueError:
            max_states = text
    _require_setting(setting, max_states, 1, text)
    alphabet = word.alphabet
    rn = alphabet.row_next
    cn = alphabet.col_next
    xs = word.letters
    width = len(alphabet).bit_length()
    place = [1 << (width * i) for i in range(len(xs) + 1)]
    shift = [place[i] - place[i + 1] for i in range(len(xs))]  # v_i - v_{i+1}
    key = sum(x * v for x, v in zip(xs, place))
    seen = {key}
    members = [xs]
    todo = [(xs, key)]
    while todo:
        xs, key = todo.pop()
        for i in _knuth_swaps(xs, rn, cn):
            a, b = xs[i], xs[i + 1]
            k = key + (b - a) * shift[i]
            if k not in seen:
                seen.add(k)
                if len(seen) > max_states:
                    raise _bound_error("class search exceeded {limit} states",
                                       len(seen), max_states, setting)
                v = xs[:i] + (b, a) + xs[i + 2:]
                members.append(v)
                todo.append((v, k))
    return {Word._trusted(alphabet, xs) for xs in members}


def canonical_word(word: Word) -> Word:
    """The tableau word of the class: reading word of the tableau of w."""
    return word_of(tableau_of_word(word))


def equivalent(w1: Word, w2: Word) -> bool:
    """Whether two words are plactically congruent, decided via tableaux."""
    if w1.alphabet != w2.alphabet:
        raise AlphabetMismatchError("words live over different alphabets")
    return tableau_of_word(w1) == tableau_of_word(w2)


@dataclass(frozen=True)
class PlacticClass:
    """A congruence class, held by a representative and its canonical word."""

    representative: Word
    canonical: Word

    @classmethod
    def of(cls, word: Word) -> "PlacticClass":
        return cls(word, canonical_word(word))

    def tableau(self) -> Tableau:
        return tableau_of_word(self.canonical)


def _packing(pattern: tuple[int, ...], k_eff: int) -> tuple[int, int, list[int], list[tuple[int, int, int]]]:
    """The packed states of `greene_profile` over present letters whose
    repeat bits (1 where a subword may repeat the letter) are `pattern`,
    with at most k_eff subwords.

    Returns top, the shift of the subword count; cap, the first state
    with k_eff subwords; owner, the unit of the field holding each bit
    below top; and moves, for each rank r, the letter's own unit, a new
    subword ending at it, and the mask of the fields it can extend.
    """
    n = len(pattern)
    w = k_eff.bit_length()
    top = n * w
    unit = [1 << (f * w) for f in range(n + 1)]  # unit[n] counts one subword
    owner = [unit[i // w] for i in range(top)]
    moves = [(unit[r], unit[n] + unit[r], unit[r + e] - 1) for r, e in enumerate(pattern)]
    return top, k_eff << top, owner, moves


# The most entries, n * C(n + k_eff, k_eff), of a shared transition table,
# and the most tables kept.  A table at the bound holds at most about 26 KB.
# A table pays only when later calls share its pattern and k_eff: built for
# one short word it costs up to 2.4 times the packed loop.  The bound covers
# 4 letters at k = 3 (140 entries), the largest the benchmark's words need;
# larger tables are unmeasured.
_TABLE_ENTRIES = 256
_TABLES = 32


@lru_cache(maxsize=_TABLES)
def _transitions(pattern: tuple[int, ...], k_eff: int) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """Every packed state reachable from the empty one, numbered 0, 1, ...
    in breadth-first order, with its successors: succ[r][i] is the number
    of the state that taking the letter of rank r leads to from state i,
    or -1 where the letter can neither extend nor start a subword, and
    chains[i] is the number of subwords of state i."""
    top, cap, owner, moves = _packing(pattern, k_eff)
    ids = {0: 0}
    order = [0]
    succ = [[] for _ in moves]
    for s in order:  # grows while it is read
        for row, (ux, grow, below) in zip(succ, moves):
            m = (s & below).bit_length()
            if m:
                t = s - owner[m - 1] + ux
            elif s < cap:
                t = s + grow
            else:
                row.append(-1)
                continue
            i = ids.get(t)
            if i is None:
                i = ids[t] = len(order)
                order.append(t)
            row.append(i)
    return tuple(map(tuple, succ)), tuple(s >> top for s in order)


def greene_profile(word: Word, max_k: int, mode: str = "row") -> tuple[int, ...]:
    """Exact Greene invariants (l_1, ..., l_max_k) in one sweep.

    Dynamic program over the letters: a state is the multiset of final
    letters of the disjoint subwords built so far, and each new letter x is
    either skipped or taken by one subword, which it extends or starts.
    This searches every family of at most max_k disjoint row (or column)
    words without enumerating the families one by one.  A word of length L
    has l_k = l_L for every k >= L, so the sweep stops at k_eff = min(max_k,
    L) subwords and the profile is padded with its last value.

    Besides the skip, each state tries one move, because it dominates the
    others.  A row word ending at e accepts x exactly when e < col_next[x],
    so the ends x can extend form a down-set of the sorted ends, and a
    smaller end accepts every later letter a larger one accepts.  Read a
    slot not yet used by a subword as an end below every letter.  A state
    that is rank by rank no larger than another, with at least the same
    total, can follow each of its moves (skip, or take x by the end of the
    same rank) and stay rank by rank no larger, so the dominated choices
    never give a larger l_k for any k.  Replacing the largest end that
    accepts x leaves ends that are, rank by rank, no larger than any other
    extension leaves.  It also beats starting a subword at x: both states
    hold x and have the same total, but the extended one holds a free slot
    where the other holds that end, and one subword fewer.  So a subword
    is started only when no end accepts x, and only while fewer than k_eff
    exist.  No state is ever compared with another.

    Column mode is the same sweep: a column word read backwards is a row word
    over the conjugate alphabet, whose col_next is row_next.

    A state is packed into one int.  Each of the n distinct letters of the
    word owns a field of w = k_eff.bit_length() bits that counts the
    subwords ending at it (never more than k_eff, so the field cannot
    overflow), and the number of subwords sits in the bits above every
    field.  The r-th smallest letter owns field r, so the ends that x can
    extend fill the fields below one limit, r + 1 when a subword may repeat
    x and r otherwise, and the end to replace is the one that holds the
    highest set bit below that limit: one bit_length finds it.

    So a state's successor depends only on the state, the rank of x, and
    which present letters a subword may repeat.  Where the states are few,
    n * C(n + k_eff, k_eff) entries at most, the sweep steps through a
    table of the successors of every reachable state, built once for that
    repeat pattern and k_eff and shared by every later word with the same
    one.  Above that size it works on the packed ints directly, and builds
    no table.  Either way a sweep holds at most C(n + k_eff, k_eff)
    states, and greene_profile has no length bound of its own.
    """
    _require_mode(mode)
    _require_int("max_k", max_k, 0)
    letters = word.letters if mode == "row" else word.letters[::-1]
    accepts = word.alphabet.col_next if mode == "row" else word.alphabet.row_next
    present = sorted(set(letters))
    n = len(present)
    k_eff = min(max_k, len(word))
    pattern = tuple([accepts[x] - x for x in present])  # 1 where a subword may repeat x
    states = {0: 0}
    best = [0] * (k_eff + 1)  # best[k]: the best total over exactly k subwords
    if n * comb(n + k_eff, k_eff) <= _TABLE_ENTRIES:
        succ, chains = _transitions(pattern, k_eff)
        steps = dict(zip(present, succ))
        for x in letters:
            tx = steps[x]
            new = dict(states)
            for s, total in states.items():
                t = tx[s]
                if t >= 0 and new.get(t, -1) <= total:
                    new[t] = total + 1
            states = new
        for s, total in states.items():
            k = chains[s]
            if total > best[k]:
                best[k] = total
    else:
        top, cap, owner, moves = _packing(pattern, k_eff)
        steps = dict(zip(present, moves))
        for x in letters:
            ux, grow, below = steps[x]
            new = dict(states)
            for s, total in states.items():
                m = (s & below).bit_length()
                if m:
                    key = s - owner[m - 1] + ux
                elif s < cap:
                    key = s + grow
                else:
                    continue
                if new.get(key, -1) <= total:
                    new[key] = total + 1
            states = new
        for s, total in states.items():
            k = s >> top
            if total > best[k]:
                best[k] = total
    run = tuple(accumulate(best, max))  # run[k]: the best total over at most k subwords
    return run[1:] + run[-1:] * (max_k - k_eff)


def _greene(word: Word, k: int, max_len: int | None, mode: str) -> int:
    """l_k(w) in the given mode, for words within the length bound (by
    default 10 for k <= 3, else 8)."""
    _require_int("k", k, 1)
    _require_length(word, (10 if k <= 3 else 8) if max_len is None else max_len, "Greene search")
    # l_k = l_L for k >= L = len(word), so a huge k costs no more than k = L
    return greene_profile(word, min(k, len(word) or 1), mode)[-1]


def greene_row(word: Word, k: int, max_len: int | None = None) -> int:
    """Largest total length of k index-disjoint row subwords."""
    return _greene(word, k, max_len, "row")


def greene_col(word: Word, k: int, max_len: int | None = None) -> int:
    """Largest total length of k index-disjoint column subwords."""
    return _greene(word, k, max_len, "col")


def greene_via_shape(word: Word, k: int, mode: str = "row") -> int:
    """Greene invariant read off the tableau shape: the sum of the first k
    parts of the shape of the tableau of w, or of its conjugate in column
    mode."""
    _require_int("k", k, 1)
    _require_mode(mode)
    lam = tableau_of_word(word).shape
    if mode == "col":
        lam = conjugate_partition(lam)
    return sum(lam[:k])
