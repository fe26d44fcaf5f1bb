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
from bisect import bisect_left
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

from .alphabet import SignedAlphabet, conjugate_alphabet
from .errors import (
    AlphabetError,
    AlphabetMismatchError,
    ShapeError,
    ValidationError,
    _excerpt,
    _require_indices,
)
from .shape import Partition, SkewDiagram, as_partition, conjugate_partition


@dataclass(frozen=True, slots=True, init=False)
class Word:
    """A finite word over a signed alphabet.

    `letters` is the tuple of letter indices; `symbols` translates back to
    the letter strings.  Construct from symbols with the regular constructor
    or from indices with `Word.from_indices`.
    """

    alphabet: SignedAlphabet
    letters: tuple[int, ...]

    def __init__(self, alphabet: SignedAlphabet, symbols: Iterable[str] = ()):
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "letters", alphabet.to_indices(symbols))

    @classmethod
    def from_indices(cls, alphabet: SignedAlphabet, indices: Iterable[int]) -> "Word":
        return cls._trusted(alphabet, _require_indices(indices, len(alphabet)))

    @classmethod
    def _trusted(cls, alphabet: SignedAlphabet, letters: tuple[int, ...]) -> "Word":
        """The word on a tuple of letter indices known to lie in the
        alphabet, such as a rearrangement of another word's letters;
        nothing is checked."""
        w = cls.__new__(cls)
        object.__setattr__(w, "alphabet", alphabet)
        object.__setattr__(w, "letters", letters)
        return w

    @property
    def symbols(self) -> tuple[str, ...]:
        return self.alphabet.to_symbols(self.letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __add__(self, other: "Word") -> "Word":
        if not isinstance(other, Word):
            return NotImplemented
        if self.alphabet != other.alphabet:
            raise AlphabetMismatchError("cannot concatenate words over different alphabets")
        return Word.from_indices(self.alphabet, self.letters + other.letters)

    def __repr__(self) -> str:
        return "Word(%s)" % " ".join(self.symbols)


@dataclass(frozen=True, slots=True, init=False)
class Tableau:
    """A super semistandard tableau of straight shape.

    The constructor is a trusted low-level entry point: `rows` must be rows
    of letter indices already satisfying the super semistandard conditions.
    Use `validate` to build a tableau from raw symbol rows with full
    checking.
    """

    alphabet: SignedAlphabet
    rows: tuple[tuple[int, ...], ...]

    def __init__(self, alphabet: SignedAlphabet, rows: Iterable[Iterable[int]] = ()):
        # Exact-size tuple([...]) rather than tuple(<genexpr>): on CPython a
        # tuple grown by resizing is never taken from the tuple free lists,
        # which then keep growing under a steady stream of tableaux.
        rows = tuple([tuple(r) for r in rows])
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "rows", rows)

    @classmethod
    def empty(cls, alphabet: SignedAlphabet) -> "Tableau":
        return cls(alphabet, ())

    @property
    def shape(self) -> Partition:
        return tuple([len(r) for r in self.rows])

    def size(self) -> int:
        return sum(len(r) for r in self.rows)

    def symbol_rows(self) -> tuple[tuple[str, ...], ...]:
        return tuple(self.alphabet.to_symbols(r) for r in self.rows)

    def __repr__(self) -> str:
        return "Tableau(%s)" % " | ".join(" ".join(r) for r in self.symbol_rows())


@dataclass(frozen=True, slots=True)
class SkewTableau:
    """A super semistandard filling of a skew shape outer/inner.

    Row i of `rows` holds the entries of the cells strictly right of the
    inner shape, so it has outer[i] - inner[i] entries; rows may be empty.
    The constructor validates the shape and both semistandard conditions on
    the cells present.
    """

    alphabet: SignedAlphabet
    outer: Partition
    inner: Partition
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        shape = SkewDiagram(self.outer, self.inner)
        outer, inner = shape.outer, shape.inner
        rows = tuple(tuple(r) for r in self.rows)
        if len(rows) != len(outer):
            raise ShapeError("expected %d rows, got %d" % (len(outer), len(rows)))
        pad_inner = inner + (0,) * (len(outer) - len(inner))
        for i, row in enumerate(rows):
            if len(row) != outer[i] - pad_inner[i]:
                raise ShapeError(
                    "row %d has %d entries, expected %d" % (i + 1, len(row), outer[i] - pad_inner[i])
                )
        _check_cells(rows, pad_inner, self.alphabet)
        object.__setattr__(self, "outer", outer)
        object.__setattr__(self, "inner", inner)
        object.__setattr__(self, "rows", rows)

    # the cells present hold their letters row by row, as in a Tableau
    size = Tableau.size
    symbol_rows = Tableau.symbol_rows

    def __repr__(self) -> str:
        return "SkewTableau(%r/%r: %s)" % (
            self.outer,
            self.inner,
            " | ".join(" ".join(r) for r in self.symbol_rows()),
        )


def _cell_error(condition: str, i: int, j: int) -> ValidationError:
    """The error for the 1-based cell (i, j), whose letter breaks the "row"
    or the "column" condition."""
    return ValidationError("%s condition fails at cell (%d, %d)" % (condition, i, j),
                           cell=(i, j), condition=condition)


def _check_cells(rows: Sequence[Sequence[int]], inner: Sequence[int], alphabet: SignedAlphabet) -> None:
    """Raise unless the letters are integer indices in range and satisfy
    the row and column conditions, where row i starts right of the first
    inner[i] cells (zeros for a straight shape).  Cells are reported
    1-based."""
    n = len(alphabet)
    row_next = alphabet.row_next
    col_next = alphabet.col_next
    for i, row in enumerate(rows):
        _require_indices(row, n)
        for j in range(len(row) - 1):
            if row[j + 1] < row_next[row[j]]:
                raise _cell_error("row", i + 1, inner[i] + j + 2)
    # Both shapes are partitions, so rows i and i + 1 share the columns
    # from inner[i] up to the end of the lower row.
    for i in range(len(rows) - 1):
        upper, lower = rows[i], rows[i + 1]
        du, dl = inner[i], inner[i + 1]
        for j in range(du, dl + len(lower)):
            if lower[j - dl] < col_next[upper[j - du]]:
                raise _cell_error("column", i + 2, j + 1)


def _check_index_rows(rows: Sequence[Sequence[int]], alphabet: SignedAlphabet) -> None:
    """Raise unless index rows form a super semistandard straight tableau."""
    lengths = [len(r) for r in rows]
    for L in lengths:
        if L == 0:
            raise ShapeError("empty row in tableau")
    for a, b in zip(lengths, lengths[1:]):
        if a < b:
            raise ShapeError("row lengths must weakly decrease, got %s" % _excerpt(lengths))
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
    if not (isinstance(k, int) and 0 <= k <= len(alphabet)):
        raise AlphabetError("threshold %s out of range for an alphabet of size %d"
                            % (_excerpt(k), len(alphabet)))
    lam = tableau.shape
    prefixes = []
    suffixes = []
    for row in tableau.rows:
        m = bisect_left(row, k)  # rows weakly increase
        prefixes.append(row[:m])
        suffixes.append(row[m:])
    mu = tuple(len(p) for p in prefixes)
    if any(a < b for a, b in zip(mu, mu[1:])):
        raise ValidationError("entries below the threshold do not form a straight shape")
    trimmed = tuple(m for m in mu if m > 0)
    t0 = Tableau(alphabet, [p for p in prefixes if p])
    t1 = SkewTableau(alphabet, lam, trimmed, suffixes)
    return t0, t1


def _rows_under(above: tuple[int, ...] | None, length: int,
                alphabet: SignedAlphabet) -> Iterator[tuple[int, ...]]:
    """The rows of the given length that may sit under the row `above`
    (its first `length` letters), or anywhere when above is None, in
    lexicographic order: each cell takes every letter, in alphabet order,
    allowed right of its left neighbor and below the cell above it."""
    row_next = alphabet.row_next
    n = len(alphabet)
    lows = [0] * length if above is None else [alphabet.col_next[a] for a in above[:length]]
    row = [-1] * length
    last = length - 1
    pos, x = 0, lows[0]
    while True:
        if x < n:
            row[pos] = x
            if pos < last:
                pos += 1
                x = max(lows[pos], row_next[x])
                continue
            yield tuple(row)
        elif pos == 0:
            return
        else:
            pos -= 1  # no letter left for this cell: try the next one before it
        x = row[pos] + 1


def _fillings(lam: Partition, alphabet: SignedAlphabet,
              memo: dict | None = None) -> Iterator[tuple[tuple[int, ...], ...]]:
    """The super semistandard fillings of a partition, as tuples of index
    rows, in row-major lexicographic order.

    Rows are filled top to bottom, each from the rows that may sit under
    the row above it.  Those depend only on the row's length and on that
    many letters of the row above, so a memo lists them once, by that
    prefix (by the length alone for the top row).  A memo holds rows over
    one alphabet, and every shape over it may share it.

    With no memo the rows are made as they are read and none is kept, so
    the fillings come lazily, the first after one row per level, and the
    generator holds one partial filling.

    With m parity-0 and n parity-1 letters, a shape has a filling exactly
    when lambda_{m+1} <= n (Berele and Regev), so a shape outside that hook
    yields nothing, before any row is made.
    """
    if not lam:
        yield ()
        return
    m = alphabet.parities.count(0)
    if m < len(lam) and lam[m] > len(alphabet) - m:
        return

    def under(i: int, above: tuple[int, ...] | None) -> Iterable[tuple[int, ...]]:
        length = lam[i]
        if memo is None:
            return _rows_under(above, length, alphabet)
        key = length if above is None else above[:length]
        rows = memo.get(key)
        if rows is None:
            rows = memo[key] = list(_rows_under(above, length, alphabet))
        return rows

    depth = len(lam)
    stack = [((), iter(under(0, None)))]  # rows so far, and the rows still to try for the next one
    while stack:
        head, rows = stack[-1]
        for row in rows:
            filled = (*head, row)
            i = len(filled)
            if i + 1 < depth:
                stack.append((filled, iter(under(i, row))))
                break
            if i < depth:  # the last row: each row that fits under this one
                for low in under(i, row):
                    yield (*filled, low)
            else:  # a shape of one row
                yield filled
        else:
            stack.pop()


def enumerate_tableaux(lam: Iterable[int], alphabet: SignedAlphabet) -> Iterator[Tableau]:
    """All super semistandard tableaux of the given shape, each exactly once,
    in row-major lexicographic order, made as they are asked for.

    The shape is checked at call time, before the first tableau is asked for.
    """
    lam = as_partition(lam)
    return (Tableau(alphabet, rows) for rows in _fillings(lam, alphabet))


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
    sym_rows = tableau.symbol_rows()
    if isinstance(tableau, SkewTableau):
        inner = tableau.inner + (0,) * (len(tableau.outer) - len(tableau.inner))
        offsets = list(inner)
        ncols = tableau.outer[0] if tableau.outer else 0
    else:
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
        raise ShapeError("declared shape %s does not match rows" % _excerpt(obj["shape"]))
    return t
