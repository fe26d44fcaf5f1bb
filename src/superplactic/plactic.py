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

from .bumping import tableau_of_word
from .errors import AlphabetMismatchError, BoundExceededError
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


def _k1_sides(x: int, y: int, z: int, row_next: tuple[int, ...], col_next: tuple[int, ...]) -> bool:
    """Side conditions of the first move on an ordered triple x <= y <= z."""
    return y >= row_next[x] and z >= col_next[y]


def _k2_sides(x: int, y: int, z: int, row_next: tuple[int, ...], col_next: tuple[int, ...]) -> bool:
    """Side conditions of the second move on an ordered triple x <= y <= z."""
    return y >= col_next[x] and z >= row_next[y]


def knuth_neighbors(word: Word) -> set[Word]:
    """Words reachable from this one by a single elementary move."""
    rn = word.alphabet.row_next
    cn = word.alphabet.col_next
    xs = word.letters
    out: set[Word] = set()
    for p in range(len(xs) - 2):
        a, b, c = xs[p], xs[p + 1], xs[p + 2]
        # window reads xzy (swap gives zxy) or zxy (swap gives xzy)
        if _k1_sides(a, c, b, rn, cn) or _k1_sides(b, c, a, rn, cn):
            out.add(Word.from_indices(word.alphabet, xs[:p] + (b, a, c) + xs[p + 3:]))
        # window reads yxz (swap gives yzx) or yzx (swap gives yxz)
        if _k2_sides(b, a, c, rn, cn) or _k2_sides(c, a, b, rn, cn):
            out.add(Word.from_indices(word.alphabet, xs[:p] + (a, c, b) + xs[p + 3:]))
    return out


def plactic_class(word: Word, max_len: int = DEFAULT_MAX_WORD_LEN,
                  max_states: int | None = None) -> set[Word]:
    """The full congruence class of the word, computed by breadth-first
    search over elementary moves.

    Exponential in the word length, so the length is capped by `max_len`
    and the number of visited words by `max_states` (the environment
    variable SUPERPLACTIC_MAX_STATES overrides the latter default).
    """
    if len(word) > max_len:
        raise BoundExceededError(
            "word of length %d exceeds the class search bound %d" % (len(word), max_len)
        )
    if max_states is None:
        max_states = int(os.environ.get(MAX_STATES_ENV, DEFAULT_MAX_STATES))
    seen = {word}
    frontier = [word]
    while frontier:
        nxt = []
        for u in frontier:
            for v in knuth_neighbors(u):
                if v not in seen:
                    seen.add(v)
                    if len(seen) > max_states:
                        raise BoundExceededError(
                            "class search exceeded %d states" % max_states
                        )
                    nxt.append(v)
        frontier = nxt
    return seen


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


def greene_profile(word: Word, max_k: int, mode: str = "row") -> tuple[int, ...]:
    """Exact Greene invariants (l_1, ..., l_max_k) in one sweep.

    Dynamic program over the letters: a state is the multiset of final
    letters of the disjoint subwords built so far, and each new letter may
    be skipped, appended to a compatible subword, or start a new one.  This
    searches every family of at most max_k disjoint row (or column) words
    without enumerating the families one by one.
    """
    if mode not in ("row", "col"):
        raise ValueError("mode must be 'row' or 'col'")
    col_next = word.alphabet.col_next
    column = mode == "col"
    states: dict[tuple[int, ...], int] = {(): 0}
    for x in word.letters:
        new = dict(states)
        # x extends a row word ending at e exactly when e < col_next[x]
        # (the tables' duality), and a column word exactly when not.
        bound = col_next[x]
        for chains, total in states.items():
            nt = total + 1
            if len(chains) < max_k:
                key = tuple(sorted(chains + (x,)))
                if new.get(key, -1) < nt:
                    new[key] = nt
            tried: set[int] = set()
            for ci, e in enumerate(chains):
                if e in tried:
                    continue
                tried.add(e)
                if (e >= bound) == column:
                    key = tuple(sorted(chains[:ci] + chains[ci + 1:] + (x,)))
                    if new.get(key, -1) < nt:
                        new[key] = nt
        states = new
    best = [0] * (max_k + 1)
    for chains, total in states.items():
        k = len(chains)
        if total > best[k]:
            best[k] = total
    out = []
    run = 0
    for k in range(1, max_k + 1):
        run = max(run, best[k])
        out.append(run)
    return tuple(out)


def _greene(word: Word, k: int, max_len: int | None, mode: str) -> int:
    """l_k(w) in the given mode, for words within the length bound (by
    default 10 for k <= 3, else 8)."""
    if k < 1:
        raise ValueError("k must be at least 1")
    bound = (10 if k <= 3 else 8) if max_len is None else max_len
    if len(word) > bound:
        raise BoundExceededError(
            "word of length %d exceeds the Greene search bound %d" % (len(word), bound)
        )
    return greene_profile(word, k, mode)[k - 1]


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
    if k < 1:
        raise ValueError("k must be at least 1")
    lam = tableau_of_word(word).shape
    if mode == "col":
        lam = conjugate_partition(lam)
    elif mode != "row":
        raise ValueError("mode must be 'row' or 'col'")
    return sum(lam[:k])
