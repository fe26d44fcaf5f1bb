"""The paper's theorems on random inputs far past the exhaustive domains.

Each check is seeded and compares the package with `oracles` only: the
symmetry theorem on arrays of hundreds of columns, the symmetry probe on
random pairs of 4- and 5-letter signatures, Knuth moves keeping the
tableau of words of up to 120 letters, the correspondence against the
oracle's insertion and back, the bumping lemmas on tableaux of up to 100
cells, column insertion and deletion and row deletion on hook-shaped
tableaux of up to 700 cells, and Greene's theorem on words of up to 300
letters.
"""

import random

import pytest

from superplactic import (
    Tableau,
    Word,
    check_susy,
    check_tableau,
    col_delete,
    col_insert,
    col_insert_trace,
    enumerate_arrays,
    greene_profile,
    has_symmetry,
    make_alphabet,
    row_delete,
    row_insert,
    rsk_forward,
    rsk_inverse,
    symmetry_probe,
    tableau_of_word,
    validate_array,
)
from superplactic.bumping import _delete_row_strip

from oracles import (
    _scan_col_delete,
    _scan_col_insert,
    _scan_row_delete,
    _scan_row_insert,
    insertion_tableau,
    signed_knuth_neighbors,
    super_rsk,
)


def _alphabet(rng, size, parities=None):
    """`size` letters with the given parities, else random ones of which
    at least one is 0 and one is 1 (for size >= 2)."""
    if parities is None:
        parities = [rng.randint(0, 1) for _ in range(size)]
        if size > 1 and len(set(parities)) == 1:
            parities[rng.randrange(size)] ^= 1
    return make_alphabet([str(i) for i in range(size)], parities)


def _random_array(rng, top, bottom, length, even_only=False):
    """A random array of `length` columns.  A column of pair parity 1 never
    repeats, and with even_only there is none."""
    pairs, odd = [], set()
    while len(pairs) < length:
        p = (rng.randrange(len(top)), rng.randrange(len(bottom)))
        if (top.parities[p[0]] + bottom.parities[p[1]]) % 2:
            if even_only or p in odd:
                continue
            odd.add(p)
        pairs.append(p)
    pairs.sort(key=lambda ab: (ab[1], ab[0]))
    return validate_array([(top.letters[a], bottom.letters[b]) for a, b in pairs], top, bottom)


def _aligned_alphabet(rng, first):
    """2-16 letters: a block of parity `first`, then a block of the other
    parity, each block nonempty."""
    size = rng.randint(2, 16)
    split = rng.randint(1, size - 1)
    return _alphabet(rng, size, [first] * split + [1 - first] * (size - split))


def test_symmetry_theorem_on_long_aligned_arrays():
    """Aligned alphabets and columns of pair parity 0: check_susy holds, and
    the oracle's correspondence of the involution is the pair (U, T)."""
    rng = random.Random(2009)
    for _ in range(25):
        first = rng.randint(0, 1)
        top, bottom = _aligned_alphabet(rng, first), _aligned_alphabet(rng, first)
        array = _random_array(rng, top, bottom, rng.randint(50, 400), even_only=True)
        assert check_susy(array) is True
        t, u = super_rsk(array.pairs, top.parities, bottom.parities)
        # the involution swaps each column, then sorts into product order
        swapped = sorted(((b, a) for a, b in array.pairs), key=lambda ba: (ba[1], ba[0]))
        assert super_rsk(swapped, bottom.parities, top.parities) == (u, t)


def test_probe_on_random_four_letter_pairs():
    """On seeded random pairs of 4-letter signatures up to 4 columns, the
    probe flags an array symmetric exactly when the oracle's correspondence
    of the involution is the pair (U, T)."""
    rng = random.Random(4)
    for _ in range(6):
        top = _alphabet(rng, 4, [rng.randint(0, 1) for _ in range(4)])
        bottom = _alphabet(rng, 4, [rng.randint(0, 1) for _ in range(4)])
        records = []
        symmetry_probe(top, bottom, 4, sink=records.append)
        expected = []
        for array in enumerate_arrays(top, bottom, 4):
            t, u = super_rsk(array.pairs, top.parities, bottom.parities)
            swapped = sorted(((b, a) for a, b in array.pairs), key=lambda ba: (ba[1], ba[0]))
            expected.append(super_rsk(swapped, bottom.parities, top.parities) == (u, t))
        assert [record["symmetric"] for record in records] == expected


def test_probe_matches_has_symmetry_on_random_four_and_five_letter_pairs():
    """On 20 seeded random pairs of 4- and 5-letter signatures, of equal
    and of unequal sizes, up to 3 or 4 columns: the probe streams one
    record per array of enumerate_arrays, in order, whose symmetry is
    has_symmetry of that array, and its total is their number."""
    rng = random.Random(2109)
    sizes = [(4, 4), (4, 5), (5, 4), (5, 5)] * 5
    rng.shuffle(sizes)
    for k, l in sizes:
        top, bottom = _alphabet(rng, k), _alphabet(rng, l)
        max_cols = rng.choice((3, 4)) if k + l < 10 else 3
        records = []
        report = symmetry_probe(top, bottom, max_cols, sink=records.append)
        arrays = list(enumerate_arrays(top, bottom, max_cols))
        assert report.total == len(arrays) == len(records)
        assert [(record["top"], record["bottom"], record["symmetric"]) for record in records] == [
            (list(array.top_symbols), list(array.bottom_symbols), has_symmetry(array)) for array in arrays]


def test_knuth_moves_keep_the_tableau_of_long_words():
    rng = random.Random(5)
    for _ in range(10):
        alphabet = _alphabet(rng, rng.randint(3, 12))
        xs = tuple(rng.randrange(len(alphabet)) for _ in range(rng.randint(40, 120)))
        tableau = tableau_of_word(Word.from_indices(alphabet, xs))
        for _ in range(30):
            moves = sorted(signed_knuth_neighbors(xs, alphabet.parities))
            if not moves:
                break
            xs = rng.choice(moves)
            assert tableau_of_word(Word.from_indices(alphabet, xs)) == tableau


def test_forward_matches_oracle_on_long_arrays():
    rng = random.Random(7)
    for _ in range(12):
        top, bottom = _alphabet(rng, rng.randint(2, 12)), _alphabet(rng, rng.randint(2, 12))
        array = _random_array(rng, top, bottom, rng.randint(100, 700))
        t, u = rsk_forward(array)
        assert (t.rows, u.rows) == super_rsk(array.pairs, top.parities, bottom.parities)
        assert rsk_inverse(t, u) == array


@pytest.mark.parametrize("mode", ["row", "col"])
def test_greene_profile_is_the_oracle_shape_on_long_words(mode):
    """l_1..l_3 are the partial sums of the shape of the oracle's insertion
    tableau, or of its conjugate in column mode."""
    rng = random.Random(17)
    for _ in range(12):
        alphabet = _alphabet(rng, rng.randint(2, 10))
        xs = [rng.randrange(len(alphabet)) for _ in range(rng.randint(100, 300))]
        shape = [len(row) for row in insertion_tableau(xs, alphabet.parities)]
        if mode == "col":
            shape = [sum(part > j for part in shape) for j in range(shape[0])]
        sums = tuple(sum(shape[:k]) for k in (1, 2, 3))
        assert greene_profile(Word.from_indices(alphabet, xs), 3, mode) == sums


def _added_cell(tableau, x, mode):
    """Insert the symbol x by row or column insertion; returns the new
    tableau and the 1-based cell that was added."""
    if mode == "row":
        grown, i = row_insert(tableau, x)
        return grown, (i, grown.shape[i - 1])
    grown, j = col_insert(x, tableau)
    return grown, (sum(part >= j for part in grown.shape), j)


@pytest.mark.parametrize("mode", ["row", "col"])
def test_bumping_lemmas_on_random_tableaux(mode):
    """Criterion 07 on tableaux of 30-100 cells, built by the oracle's row
    insertion of random letters: insert x, then x2.  The second added cell
    lies strictly right of the first (row mode) or strictly below it
    (column mode) exactly when x < x2, or x = x2 of parity 0 (row) or 1
    (column), and then weakly above it (row) or weakly left of it
    (column).  Both added cells are the oracle's."""
    rng = random.Random(1307)
    scan = _scan_row_insert if mode == "row" else _scan_col_insert
    tie_parity = 0 if mode == "row" else 1
    for _ in range(60):
        alphabet = _alphabet(rng, rng.randint(2, 12))
        par = alphabet.parities
        rows = insertion_tableau([rng.randrange(len(alphabet)) for _ in range(rng.randint(30, 100))], par)
        tableau = check_tableau(Tableau(alphabet, rows))
        for _ in range(10):
            x = rng.randrange(len(alphabet))
            x2 = x if rng.random() < 0.3 else rng.randrange(len(alphabet))
            grown, (i, j) = _added_cell(tableau, alphabet.letters[x], mode)
            _, (i2, j2) = _added_cell(grown, alphabet.letters[x2], mode)
            oracle_rows = [list(row) for row in rows]
            assert scan(oracle_rows, x, par) == (i - 1, j - 1)
            assert scan(oracle_rows, x2, par) == (i2 - 1, j2 - 1)
            follows = x < x2 or (x == x2 and par[x] == tie_parity)
            if mode == "row":
                assert (j < j2) == follows
                assert not follows or i >= i2
            else:
                assert (i < i2) == follows
                assert not follows or j >= j2


def _hook_rows(rng):
    """3-6 letters, one or two of them of parity 1, and the rows of a
    tableau of 200-700 of them built by the oracle's row and column
    insertion: a hook shape whose few parity-0 letters make long rows and
    whose parity-1 ones make tall columns."""
    size = rng.randint(3, 6)
    parities = [0] * size
    for k in rng.sample(range(size), rng.randint(1, 2)):
        parities[k] = 1
    alphabet = _alphabet(rng, size, parities)
    rows = []
    for _ in range(rng.randint(200, 700)):
        scan = _scan_row_insert if rng.random() < 0.5 else _scan_col_insert
        scan(rows, rng.randrange(size), parities)
    return alphabet, rows


def test_column_bumping_on_long_rows_and_tall_columns():
    """On hook-shaped tableaux of 200-700 cells, 3-6 letters of which one or
    two have parity 1, built by the oracle's row and column insertion: column
    inserting each letter gives the oracle's rows and added cell, and column
    deleting at each removable corner gives the oracle's rows and letter.
    The few parity-0 letters make long rows, the parity-1 ones tall columns,
    so chains cross long stretches of one row and change rows between them."""
    rng = random.Random(2811)
    for _ in range(12):
        alphabet, rows = _hook_rows(rng)
        parities = alphabet.parities
        tableau = Tableau(alphabet, rows)
        for x in range(len(alphabet)):
            grown, _, trace = col_insert_trace(alphabet.letters[x], tableau)
            oracle_rows = [list(cells) for cells in rows]
            i, j = _scan_col_insert(oracle_rows, x, parities)
            assert (grown.rows, trace[-1][:2]) == (tuple(map(tuple, oracle_rows)), (i + 1, j + 1))
        for r, row in enumerate(rows):
            if r + 1 < len(rows) and len(rows[r + 1]) == len(row):
                continue
            shrunk, letter = col_delete(tableau, len(row))
            oracle_rows = [list(cells) for cells in rows]
            x = _scan_col_delete(oracle_rows, r, parities)
            assert (shrunk.rows, letter) == (tuple(map(tuple, oracle_rows)), alphabet.letters[x])


def test_row_deletion_on_long_rows_and_tall_columns():
    """On hook-shaped tableaux of 200-700 cells from `_hook_rows`: row deleting
    at each removable corner gives the oracle's rows and letter, and
    deleting a random horizontal strip in one `_delete_row_strip` gives the
    rows and letters of one oracle row deletion per cell, top row first and
    right to left in a row.  The long rows of few letters hand runs of
    equal letters up from row to row."""
    rng = random.Random(2903)
    for _ in range(16):
        alphabet, rows = _hook_rows(rng)
        parities = alphabet.parities
        tableau = Tableau(alphabet, rows)
        lengths = [len(row) for row in rows] + [0]
        for r in range(len(rows)):
            if lengths[r] > lengths[r + 1]:
                shrunk, letter = row_delete(tableau, r + 1)
                oracle_rows = [list(cells) for cells in rows]
                x = _scan_row_delete(oracle_rows, r, parities)
                assert (shrunk.rows, letter) == (tuple(map(tuple, oracle_rows)), alphabet.letters[x])
        for _ in range(25):
            counts = [rng.randint(0, lengths[r] - lengths[r + 1]) for r in range(len(rows))]
            if not any(counts):
                counts[-1] = 1
            strip_rows = [list(cells) for cells in rows]
            letters = _delete_row_strip(strip_rows, counts, alphabet.row_next)
            oracle_rows = [list(cells) for cells in rows]
            expected = [_scan_row_delete(oracle_rows, r, parities)
                        for r, c in enumerate(counts) for _ in range(c)]
            assert (strip_rows, letters) == (oracle_rows, expected)
