"""Signed alphabets: totally ordered finite letter sets with a parity map.

A signed alphabet is a finite sequence of distinct symbols together with a
parity (0 or 1) for each symbol.  The order of the sequence is the order of
the alphabet; it is deliberately independent of any lexicographic order on
the symbols themselves.  Parity-0 letters behave like ordinary (even)
letters, parity-1 letters are the odd ones.

Letters are opaque strings at the API boundary.  Internally the rest of the
package works with letter indices (positions in the alphabet), which this
module translates in both directions.

Parity decides where equal letters may meet (Berele and Regev): an equal
pair may sit side by side in a row only at a parity-0 letter, and one above
the other in a column only at a parity-1 letter.  Every alphabet holds this
rule as two tables over letter indices,

  * row_next[a] = a + parity(a), the smallest letter allowed right of a in
    a row, and
  * col_next[a] = a + 1 - parity(a), the smallest letter allowed below a in
    a column,

so each order test elsewhere is one comparison.  The tables are dual:
b >= row_next[a] exactly when a < col_next[b].
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

from .errors import AlphabetError, ForeignLetterError, _excerpt, _require_indices


@dataclass(frozen=True, slots=True, init=False)
class SignedAlphabet:
    """An immutable ordered alphabet with a parity attached to every letter.

    Alphabets compare by letters and parities; the other fields derive from
    them.  The hash is cached, as every word, tableau and array hash uses it.
    """

    letters: tuple[str, ...]
    parities: tuple[int, ...]
    row_next: tuple[int, ...] = field(compare=False)
    col_next: tuple[int, ...] = field(compare=False)
    _index: dict[str, int] = field(compare=False)
    _hash: int = field(compare=False)

    def __init__(self, letters: Iterable[str], parities: Iterable[int]):
        letters = tuple(letters)
        parities = tuple(parities)
        if len(letters) != len(parities):
            raise AlphabetError(
                "expected one parity per letter, got %d letters and %d parities"
                % (len(letters), len(parities))
            )
        for sym in letters:
            if not isinstance(sym, str):
                raise AlphabetError("letters must be strings, got %s" % _excerpt(sym))
        for p in parities:
            if p not in (0, 1):
                raise AlphabetError("parity must be 0 or 1, got %s" % _excerpt(p))
        parities = tuple([int(p) for p in parities])
        index: dict[str, int] = {}
        for i, sym in enumerate(letters):
            if sym in index:
                raise AlphabetError("duplicate letter %s" % _excerpt(sym))
            index[sym] = i
        object.__setattr__(self, "letters", letters)
        object.__setattr__(self, "parities", parities)
        object.__setattr__(self, "row_next", tuple([a + p for a, p in enumerate(parities)]))
        object.__setattr__(self, "col_next", tuple([a + 1 - p for a, p in enumerate(parities)]))
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_hash", hash((letters, parities)))

    def __len__(self) -> int:
        return len(self.letters)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        pairs = ", ".join(
            "%s:%d" % (sym, p) for sym, p in zip(self.letters, self.parities)
        )
        return "SignedAlphabet(%s)" % pairs

    def index(self, symbol: str) -> int:
        """Position of a symbol in the alphabet order."""
        try:
            return self._index[symbol]
        except (KeyError, TypeError):
            # TypeError: an unhashable symbol, such as a list read from JSON
            raise ForeignLetterError("letter %s is not in the alphabet" % _excerpt(symbol)) from None

    def symbol(self, i: int) -> str:
        return self.to_symbols((i,))[0]

    def parity_of(self, symbol: str) -> int:
        return self.parities[self.index(symbol)]

    def to_indices(self, symbols: Iterable[str]) -> tuple[int, ...]:
        index = self.index
        return tuple([index(s) for s in symbols])

    def to_symbols(self, indices: Iterable[int]) -> tuple[str, ...]:
        return tuple([self.letters[i] for i in _require_indices(indices, len(self.letters))])

    @property
    def even_letters(self) -> tuple[str, ...]:
        """Parity-0 letters, in alphabet order."""
        return tuple(s for s, p in zip(self.letters, self.parities) if p == 0)

    @property
    def odd_letters(self) -> tuple[str, ...]:
        """Parity-1 letters, in alphabet order."""
        return tuple(s for s, p in zip(self.letters, self.parities) if p == 1)


def make_alphabet(letters: Sequence[str], parities: Sequence[int]) -> SignedAlphabet:
    """Build a signed alphabet from parallel sequences of symbols and parities."""
    return SignedAlphabet(letters, parities)


def conjugate_alphabet(alphabet: SignedAlphabet) -> SignedAlphabet:
    """Same letters in the same order with every parity flipped."""
    return SignedAlphabet(alphabet.letters, tuple(1 - p for p in alphabet.parities))


def product_alphabet(left: SignedAlphabet, right: SignedAlphabet) -> SignedAlphabet:
    """Alphabet of pairs, ordered right to left and signed by parity sum.

    The letters are the pairs (a, b) with a from `left` and b from `right`,
    rendered as "(a,b)".  Pair (a1, b1) precedes (a2, b2) when b1 < b2, or
    b1 = b2 and a1 < a2, in the respective alphabet orders.  The parity of a
    pair is the sum of the parities of its components mod 2.
    """
    letters = ["(%s,%s)" % (a, b) for b in right.letters for a in left.letters]
    return SignedAlphabet(letters, _pair_parities(left, right))


def _pair_parities(left: SignedAlphabet, right: SignedAlphabet) -> tuple[int, ...]:
    """Parity of every pair (a, b), at its product letter b * len(left) + a."""
    return tuple([(pa + pb) % 2 for pb in right.parities for pa in left.parities])


def alphabet_to_json(alphabet: SignedAlphabet) -> dict:
    return {"letters": list(alphabet.letters), "parity": list(alphabet.parities)}


def alphabet_from_json(obj: dict) -> SignedAlphabet:
    if not (isinstance(obj, dict) and isinstance(obj.get("letters"), list)
            and isinstance(obj.get("parity"), list)):
        raise AlphabetError('alphabet JSON must have "letters" and "parity" arrays')
    return SignedAlphabet(tuple(obj["letters"]), tuple(obj["parity"]))
