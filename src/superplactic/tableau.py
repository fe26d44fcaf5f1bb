"""Words and super semistandard Young tableaux over a signed alphabet.

A filling of a partition shape is super semistandard when

  * every row weakly increases left to right, and equal horizontal
    neighbors are allowed only at parity-0 letters (the row condition);
  * every column weakly increases top to bottom, and equal vertical
    neighbors are allowed only at parity-1 letters (the column condition).

With an all parity-0 alphabet this is the classical semistandard notion,
with an all parity-1 alphabet its transpose.  Tableaux and words are value
objects: equality and hashing look at the alphabet and the content, and all
operations return fresh instances.

Internally rows and words hold letter indices (positions in the alphabet).
Symbols appear at the construction and serialization boundary.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence

from .alphabet import SignedAlphabet, conjugate_alphabet
from .errors import (
    AlphabetError,
    AlphabetMismatchError,
    ForeignLetterError,
    ShapeError,
    ValidationError,
)
from .shape import Partition, as_partition, conjugate_partition, contains


class Word(object):
    """A finite word over a signed alphabet.

    `letters` is the tuple of letter indices; `symbols` translates back to
    the letter strings.  Construct from symbols with the regular constructor
    or from indices with `Word.from_indices`.
    """

    __slots__ = ("alphabet", "letters", "_hash")

    def __init__(self, alphabet: SignedAlphabet, symbols: Iterable[str] = ()):
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "letters", alphabet.to_indices(symbols))
        object.__setattr__(self, "_hash", hash((alphabet, self.letters)))

    @classmethod
    def from_indices(cls, alphabet: SignedAlphabet, indices: Iterable[int]) -> "Word":
        indices = tuple(indices)
        n = len(alphabet)
        for i in indices:
            if not 0 <= i < n:
                raise ForeignLetterError("letter index %d out of range" % i)
        w = cls.__new__(cls)
        object.__setattr__(w, "alphabet", alphabet)
        object.__setattr__(w, "letters", indices)
        object.__setattr__(w, "_hash", hash((alphabet, indices)))
        return w

    def __setattr__(self, name, value):
        raise AttributeError("Word is immutable")

    @property
    def symbols(self) -> tuple[str, ...]:
        return self.alphabet.to_symbols(self.letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Word):
            return NotImplemented
        return self.alphabet == other.alphabet and self.letters == other.letters

    def __hash__(self) -> int:
        return self._hash

    def __add__(self, other: "Word") -> "Word":
        if not isinstance(other, Word):
            return NotImplemented
        if self.alphabet != other.alphabet:
            raise AlphabetMismatchError("cannot concatenate words over different alphabets")
        return Word.from_indices(self.alphabet, self.letters + other.letters)

    def __repr__(self) -> str:
        return "Word(%s)" % " ".join(self.symbols)


class Tableau(object):
    """A super semistandard tableau of straight shape.

    The constructor is a trusted low-level entry point: `rows` must be rows
    of letter indices already satisfying the super semistandard conditions.
    Use `validate` to build a tableau from raw symbol rows with full
    checking.
    """

    __slots__ = ("alphabet", "rows", "_hash")

    def __init__(self, alphabet: SignedAlphabet, rows: Iterable[Iterable[int]] = ()):
        # Exact-size tuple([...]) rather than tuple(<genexpr>): on CPython a
        # tuple grown by resizing is never taken from the tuple free lists,
        # which then keep growing under a steady stream of tableaux.
        rows = tuple([tuple(r) for r in rows])
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "_hash", hash((alphabet, rows)))

    @classmethod
    def empty(cls, alphabet: SignedAlphabet) -> "Tableau":
        return cls(alphabet, ())

    def __setattr__(self, name, value):
        raise AttributeError("Tableau is immutable")

    @property
    def shape(self) -> Partition:
        return tuple([len(r) for r in self.rows])

    def size(self) -> int:
        return sum(len(r) for r in self.rows)

    def symbol_rows(self) -> tuple[tuple[str, ...], ...]:
        return tuple(self.alphabet.to_symbols(r) for r in self.rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Tableau):
            return NotImplemented
        return self.alphabet == other.alphabet and self.rows == other.rows

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return "Tableau(%s)" % " | ".join(" ".join(r) for r in self.symbol_rows())


class SkewTableau(object):
    """A super semistandard filling of a skew shape outer/inner.

    Row i of `rows` holds the entries of the cells strictly right of the
    inner shape, so it has outer[i] - inner[i] entries; rows may be empty.
    The constructor validates the shape and both semistandard conditions on
    the cells present.
    """

    __slots__ = ("alphabet", "outer", "inner", "rows", "_hash")

    def __init__(
        self,
        alphabet: SignedAlphabet,
        outer: Iterable[int],
        inner: Iterable[int],
        rows: Iterable[Iterable[int]],
    ):
        outer = as_partition(outer)
        inner = as_partition(inner)
        if not contains(outer, inner):
            raise ShapeError("inner shape %r not contained in outer shape %r" % (inner, outer))
        rows = tuple(tuple(r) for r in rows)
        if len(rows) != len(outer):
            raise ShapeError("expected %d rows, got %d" % (len(outer), len(rows)))
        pad_inner = inner + (0,) * (len(outer) - len(inner))
        for i, row in enumerate(rows):
            if len(row) != outer[i] - pad_inner[i]:
                raise ShapeError(
                    "row %d has %d entries, expected %d" % (i + 1, len(row), outer[i] - pad_inner[i])
                )
        _check_cells(rows, pad_inner, alphabet)
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "outer", outer)
        object.__setattr__(self, "inner", inner)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "_hash", hash((alphabet, outer, inner, rows)))

    def __setattr__(self, name, value):
        raise AttributeError("SkewTableau is immutable")

    def size(self) -> int:
        return sum(len(r) for r in self.rows)

    def symbol_rows(self) -> tuple[tuple[str, ...], ...]:
        return tuple(self.alphabet.to_symbols(r) for r in self.rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SkewTableau):
            return NotImplemented
        return (
            self.alphabet == other.alphabet
            and self.outer == other.outer
            and self.inner == other.inner
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return "SkewTableau(%r/%r: %s)" % (
            self.outer,
            self.inner,
            " | ".join(" ".join(r) for r in self.symbol_rows()),
        )


def _check_cells(rows: Sequence[Sequence[int]], inner: Sequence[int], alphabet: SignedAlphabet) -> None:
    """Raise unless the letters are in range and satisfy the row and column
    conditions, where row i starts right of the first inner[i] cells
    (zeros for a straight shape).  Cells are reported 1-based."""
    n = len(alphabet)
    row_next = alphabet.row_next
    col_next = alphabet.col_next
    for i, row in enumerate(rows):
        for x in row:
            if not 0 <= x < n:
                raise ForeignLetterError("letter index %d out of range" % x)
        for j in range(len(row) - 1):
            if row[j + 1] < row_next[row[j]]:
                cell = (i + 1, inner[i] + j + 2)
                raise ValidationError("row condition fails at cell (%d, %d)" % cell,
                                      cell=cell, condition="row")
    # Both shapes are partitions, so rows i and i + 1 share the columns
    # from inner[i] up to the end of the lower row.
    for i in range(len(rows) - 1):
        upper, lower = rows[i], rows[i + 1]
        du, dl = inner[i], inner[i + 1]
        for j in range(du, dl + len(lower)):
            if lower[j - dl] < col_next[upper[j - du]]:
                cell = (i + 2, j + 1)
                raise ValidationError("column condition fails at cell (%d, %d)" % cell,
                                      cell=cell, condition="column")


def _check_index_rows(rows: Sequence[Sequence[int]], alphabet: SignedAlphabet) -> None:
    """Raise unless index rows form a super semistandard straight tableau."""
    lengths = [len(r) for r in rows]
    for L in lengths:
        if L == 0:
            raise ShapeError("empty row in tableau")
    for a, b in zip(lengths, lengths[1:]):
        if a < b:
            raise ShapeError("row lengths must weakly decrease, got %r" % (lengths,))
    _check_cells(rows, (0,) * len(rows), alphabet)


def validate(raw_rows: Iterable[Iterable[str]], alphabet: SignedAlphabet) -> Tableau:
    """Build a tableau from rows of symbols, checking every condition.

    Raises ShapeError when the row lengths do not weakly decrease,
    ForeignLetterError on unknown symbols, and ValidationError naming the
    first offending cell when a semistandard condition fails.
    """
    rows = tuple(alphabet.to_indices(r) for r in raw_rows)
    _check_index_rows(rows, alphabet)
    return Tableau(alphabet, rows)


def check_tableau(tableau: Tableau) -> Tableau:
    """Re-validate an existing tableau instance, returning it unchanged."""
    _check_index_rows(tableau.rows, tableau.alphabet)
    return tableau


def word_of(tableau: Tableau) -> Word:
    """Reading word: concatenate the rows from the bottom row up."""
    if isinstance(tableau, SkewTableau):
        raise ShapeError("reading words are defined for straight shapes only")
    letters: list[int] = []
    for row in reversed(tableau.rows):
        letters.extend(row)
    return Word.from_indices(tableau.alphabet, letters)


def transpose(tableau: Tableau) -> Tableau:
    """Reflect the tableau along the main diagonal, flipping all parities.

    The result lives over the conjugate alphabet, where the row and column
    conditions trade places; transposing twice gives back the original.
    """
    rows = tableau.rows
    out: list[tuple[int, ...]] = []
    if rows:
        for j in range(len(rows[0])):
            out.append(tuple(r[j] for r in rows if len(r) > j))
    return Tableau(conjugate_alphabet(tableau.alphabet), out)


def split_by_threshold(tableau: Tableau, k: int) -> tuple[Tableau, SkewTableau]:
    """Split a tableau into the part over the k smallest letters and the rest.

    Entries with alphabet index < k form a straight tableau, the remaining
    entries form a skew tableau on the complementary cells.  Both parts keep
    the original alphabet.
    """
    alphabet = tableau.alphabet
    if not 0 <= k <= len(alphabet):
        raise AlphabetError("threshold %d out of range for an alphabet of size %d" % (k, len(alphabet)))
    lam = tableau.shape
    prefixes = []
    suffixes = []
    for row in tableau.rows:
        m = 0
        while m < len(row) and row[m] < k:
            m += 1
        prefixes.append(row[:m])
        suffixes.append(row[m:])
    mu = tuple(len(p) for p in prefixes)
    if any(a < b for a, b in zip(mu, mu[1:])):
        raise ValidationError("entries below the threshold do not form a straight shape")
    trimmed = tuple(m for m in mu if m > 0)
    t0 = Tableau(alphabet, [p for p in prefixes if p])
    t1 = SkewTableau(alphabet, lam, trimmed, suffixes)
    return t0, t1


def enumerate_tableaux(lam: Iterable[int], alphabet: SignedAlphabet) -> Iterator[Tableau]:
    """All super semistandard tableaux of the given shape, each exactly once.

    Cells are filled in row-major order trying letters in alphabet order, so
    the output order is deterministic.
    """
    lam = as_partition(lam)
    row_next = alphabet.row_next
    col_next = alphabet.col_next
    n = len(alphabet)
    rows = [[-1] * L for L in lam]
    cell_list = [(i, j) for i, L in enumerate(lam) for j in range(L)]
    size = len(cell_list)

    def fill() -> Iterator[Tableau]:
        pos = x = 0  # the cell to fill next and the smallest letter it may take
        while True:
            if pos == size:
                yield Tableau(alphabet, rows)
                x = n
            # With no letter left, step back a cell and try its next letter.
            while x == n:
                if pos == 0:
                    return
                pos -= 1
                i, j = cell_list[pos]
                x = rows[i][j] + 1
            i, j = cell_list[pos]
            rows[i][j] = x
            pos += 1
            if pos < size:
                i, j = cell_list[pos]
                x = row_next[rows[i][j - 1]] if j > 0 else 0
                if i > 0:
                    x = max(x, col_next[rows[i - 1][j]])

    return fill()


def enumerate_standard(lam: Iterable[int]) -> int:
    """Count standard fillings of the shape: entries 1..n, all treated as
    parity 0, strictly increasing along rows and down columns.

    Counts by the hook length formula: n! over the product of the hook
    lengths of the cells.
    """
    lam = as_partition(lam)
    conj = conjugate_partition(lam)
    hooks = math.prod(row - j + conj[j] - i - 1 for i, row in enumerate(lam) for j in range(row))
    return math.factorial(sum(lam)) // hooks


def pretty(tableau: Tableau | SkewTableau) -> str:
    """Plain text rendering, one row per line, columns aligned."""
    if isinstance(tableau, SkewTableau):
        sym_rows = tableau.symbol_rows()
        inner = tableau.inner + (0,) * (len(tableau.outer) - len(tableau.inner))
        offsets = list(inner)
        ncols = tableau.outer[0] if tableau.outer else 0
    else:
        sym_rows = tableau.symbol_rows()
        offsets = [0] * len(sym_rows)
        ncols = len(tableau.rows[0]) if tableau.rows else 0
    if not sym_rows or ncols == 0:
        return "(empty)"
    widths = [1] * ncols
    for off, row in zip(offsets, sym_rows):
        for j, s in enumerate(row):
            widths[off + j] = max(widths[off + j], len(s))
    lines = []
    for off, row in zip(offsets, sym_rows):
        cells = [" " * widths[j] for j in range(off)]
        cells += [s.ljust(widths[off + j]) for j, s in enumerate(row)]
        lines.append(" ".join(cells).rstrip())
    return "\n".join(lines)


def tableau_to_json(tableau: Tableau) -> dict:
    return {
        "shape": list(tableau.shape),
        "rows": [list(r) for r in tableau.symbol_rows()],
    }


def tableau_from_json(obj: dict, alphabet: SignedAlphabet) -> Tableau:
    if not isinstance(obj, dict) or "rows" not in obj:
        raise ShapeError('tableau JSON must have a "rows" array')
    rows = obj["rows"]
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise ShapeError('tableau JSON "rows" must be an array of arrays of letters')
    if not isinstance(obj.get("shape", []), list):
        raise ShapeError('tableau JSON "shape" must be an array')
    t = validate(rows, alphabet)
    if "shape" in obj and tuple(obj["shape"]) != t.shape:
        raise ShapeError("declared shape %r does not match rows" % (obj["shape"],))
    return t


def skew_tableau_to_json(tableau: SkewTableau) -> dict:
    return {
        "outer": list(tableau.outer),
        "inner": list(tableau.inner),
        "rows": [list(r) for r in tableau.symbol_rows()],
    }
