"""The four benchmark workloads.

Each workload is a closed loop with one caller: the next item starts only
after the previous one has finished and been checked.  The constructor is
the set-up a user script pays on every start: it builds every input from
the seed through the library's public constructors.  `run` makes one
pass: it times items until `stop` says to end and checks each output
against `oracles`, never against the library itself.  `input_stats`
returns exact counts that describe the inputs; they depend on the seed
only.

Item order is fixed by the seed and every pass starts from the first
item, so passes of equal length see the same items.  The runner repeats
passes and keeps each item's best time, and the traced run compares a
traced and an untraced pass over identical work.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import traceback
from pathlib import Path
from time import perf_counter

import oracles

NEVER = object()


class Checks:
    """Compares an output with its expected value.

    Checks named in `tamper` compare against a value that equals nothing,
    which the self-test uses to show that every check can fail.
    """

    def __init__(self, tamper=()):
        self.tamper = frozenset(tamper)

    def same(self, name, actual, expected) -> bool:
        return actual == (NEVER if name in self.tamper else expected)


class Tally:
    """Per-item durations and work, and failures, of one pass."""

    def __init__(self):
        self.durations: list[float] = []
        self.works: list[int] = []
        self.failed = 0
        self.errors: list[str] = []

    @property
    def attempted(self) -> int:
        return len(self.durations)

    def add(self, seconds: float, work: int, ok: bool) -> None:
        self.durations.append(seconds)
        self.works.append(work)
        self.failed += not ok

    def note_error(self) -> None:
        if len(self.errors) < 3:
            self.errors.append(traceback.format_exc(limit=4))


def _letters(count):
    return [chr(ord("a") + i) for i in range(count)]


def _van_der_corput(i: int) -> float:
    """Base-2 radical inverse: every prefix of 0, 1, 2, ... spreads evenly
    over [0, 1), so a run cut short still sees every input size."""
    q, scale = 0.0, 0.5
    while i:
        i, bit = divmod(i, 2)
        q += bit * scale
        scale /= 2
    return q


class PooledWorkload:
    """A workload whose pass is a list of items built at set-up.

    A pass has at least 100 items, so that the 90th percentile has ten
    samples beyond it, and the same number for every commit.
    """

    name = ""
    unit = ""
    checks: tuple[str, ...] = ()

    @property
    def pass_items(self) -> int:
        return len(self.pool)

    def call(self, item):
        raise NotImplementedError

    def check(self, item, out, checks: Checks) -> bool:
        raise NotImplementedError

    def work(self, item) -> int:
        return 1

    def warm_up(self) -> None:
        self.call(self.pool[0])

    def run(self, stop, checks: Checks, tracer=None) -> Tally:
        tally = Tally()
        for i, item in enumerate(self.pool, start=1):
            if stop(tally.attempted):
                break
            if tracer is not None:
                tracer.item = i
            t0 = perf_counter()
            try:
                out = self.call(item)
            except Exception:
                tally.add(perf_counter() - t0, self.work(item), False)
                tally.note_error()
                continue
            t1 = perf_counter()
            tally.add(t1 - t0, self.work(item), self.check(item, out, checks))
        return tally


def _random_tableau_word(rng, shape, parities):
    """Reading word (rows bottom to top) of a random super semistandard
    filling of `shape`: cells are filled row by row with a random letter
    the row and column conditions allow, starting over on a dead end."""
    n = len(parities)
    while True:
        rows = []
        for length in shape:
            row = []
            for j in range(length):
                lo = 0
                if j:
                    lo = row[j - 1] + parities[row[j - 1]]
                if rows:
                    up = rows[-1][j]
                    lo = max(lo, up + 1 - parities[up])
                if lo >= n:
                    break
                row.append(rng.randrange(lo, n))
            if len(row) < length:
                break
            rows.append(row)
        if len(rows) == len(shape):
            return [x for row in reversed(rows) for x in row]


class PlacticWords(PooledWorkload):
    """Greene profiles, tableau and (one word in twenty) the full class."""

    name = "plactic_words"
    unit = "words"
    checks = ("tableau", "greene_row", "greene_col", "class_size")

    ALPHABETS = ((0, 1, 0, 1), (0, 0, 1, 1))
    CLASS_EVERY = 20
    # A class search costs in proportion to the class size, which is the
    # number of standard fillings of the word's shape.  So the words that
    # get one are reading words of random tableaux whose shapes run
    # through every shape of 9 and 10 cells that both alphabets allow
    # (each has two even and two odd letters), once per pass.
    CLASS_SHAPES = tuple(shape for n in (9, 10) for shape in oracles.partitions(n)
                         if oracles.fits_hook(shape, 2, 2))
    K = 3

    def __init__(self, lib, seed, workdir):
        self.lib = lib
        rng = random.Random("plactic_words:%d" % seed)
        alphabets = [lib.make_alphabet(_letters(len(p)), p) for p in self.ALPHABETS]
        shapes = list(self.CLASS_SHAPES)
        self.pool = []
        for i in range(self.CLASS_EVERY * len(shapes)):
            alphabet = alphabets[(i + i // self.CLASS_EVERY) % 2]
            with_class = i % self.CLASS_EVERY == 0
            if with_class:
                if i == 0:
                    rng.shuffle(shapes)
                letters = _random_tableau_word(rng, shapes[i // self.CLASS_EVERY], alphabet.parities)
                symbols = [alphabet.letters[x] for x in letters]
            else:
                symbols = rng.choices(alphabet.letters, k=rng.randint(8, 16))
            self.pool.append((lib.Word(alphabet, symbols), with_class))

    def call(self, item):
        word, with_class = item
        lib = self.lib
        row = lib.greene_profile(word, self.K, "row")
        col = lib.greene_profile(word, self.K, "col")
        tableau = lib.tableau_of_word(word)
        members = lib.plactic_class(word, max_len=10) if with_class else None
        return row, col, tableau, members

    def check(self, item, out, checks):
        word, _ = item
        row, col, tableau, members = out
        rows = tableau.rows
        shape = tuple(len(r) for r in rows)
        ok = [
            checks.same("tableau", rows, oracles.insertion_tableau(word.letters, word.alphabet.parities)),
            checks.same("greene_row", row, oracles.partial_sums(shape, self.K)),
            checks.same("greene_col", col, oracles.partial_sums(oracles.conjugate(shape), self.K)),
        ]
        if members is not None:
            ok.append(checks.same("class_size", len(members), oracles.hook_count(shape)))
        return all(ok)

    def input_stats(self):
        words = [w for w, _ in self.pool]
        return {
            "words": len(words),
            "arrays": 0,
            "columns": sum(len(w) for w in words),
            "col_insert_share": 0.0,
            "max_rows": max(len(oracles.insertion_tableau(w.letters, w.alphabet.parities)) for w in words),
            "max_cols": max(len(w) for w in words),
        }


class RskRoundtrip(PooledWorkload):
    """Forward correspondence, validation of both tableaux, inverse."""

    name = "rsk_roundtrip"
    unit = "columns"
    checks = ("inverse", "check_tableau", "semistandard", "shapes", "contents")

    # (top parities, bottom parities): even letters first on both sides,
    # then alternating.  Sizes are spread log-uniformly over 32..700 at the
    # first 50 points of a van der Corput sequence, the same for every
    # seed: the few largest arrays take most of the time, so their sizes
    # must not move with the seed.
    PAIRS = (((0, 0, 1), (0, 0, 1)), ((0, 1, 0), (0, 1, 0)))
    ARRAYS = 100
    MIN_COLS = 32
    MAX_COLS = 700
    # Share of columns with an odd bottom letter, which are column
    # inserted.  The inverse's cost follows it closely (the shape's height
    # grows with it), so every array gets exactly this share and the rest
    # of its content is random.  Half the share that uniform letters give
    # keeps the largest inverse near 0.1 s, so that a run repeats each
    # array many times.
    COL_INSERT_SHARE = 0.1

    def __init__(self, lib, seed, workdir):
        self.lib = lib
        rng = random.Random("rsk_roundtrip:%d" % seed)
        pairs = [(lib.make_alphabet(_letters(len(t)), t), lib.make_alphabet(_letters(len(b)), b))
                 for t, b in self.PAIRS]
        per_pair = self.ARRAYS // len(pairs)
        self.pool = []
        for i in range(self.ARRAYS):
            top, bottom = pairs[i % len(pairs)]
            q = _van_der_corput(i // len(pairs)) + 0.5 / per_pair
            size = round(self.MIN_COLS * (self.MAX_COLS / self.MIN_COLS) ** q)
            columns = self._columns(rng, top, bottom, size, round(size * self.COL_INSERT_SHARE))
            self.pool.append(lib.validate_array(columns, top, bottom))

    @staticmethod
    def _columns(rng, top, bottom, size, odd_bottom):
        """`size` random columns, `odd_bottom` of them with an odd bottom
        letter, sorted bottom letter first.  Letters are uniform within
        the required parity; a pair of odd parity already present is
        drawn again, since it may not repeat."""
        bottoms = [[b for b, p in enumerate(bottom.parities) if p == parity] for parity in (0, 1)]
        used, picked = set(), []
        while len(picked) < size:
            a = rng.randrange(len(top))
            b = rng.choice(bottoms[len(picked) < odd_bottom])
            if (top.parities[a] + bottom.parities[b]) % 2:
                if (a, b) in used:
                    continue
                used.add((a, b))
            picked.append((a, b))
        picked.sort(key=lambda ab: (ab[1], ab[0]))
        return [(top.letters[a], bottom.letters[b]) for a, b in picked]

    def warm_up(self) -> None:
        self.call(min(self.pool, key=len))

    def work(self, item):
        return len(item.pairs)

    def call(self, array):
        lib = self.lib
        t, u = lib.rsk_forward(array)
        try:
            lib.check_tableau(t)
            lib.check_tableau(u)
            accepted = True
        except lib.SuperplacticError:
            accepted = False
        back = lib.rsk_inverse(t, u)
        return t, u, accepted, back

    def check(self, array, out, checks):
        t, u, accepted, back = out

        def ident(alphabet):
            return alphabet.letters, alphabet.parities

        return all([
            checks.same("inverse", (back.pairs, ident(back.top_alphabet), ident(back.bottom_alphabet)),
                        (array.pairs, ident(array.top_alphabet), ident(array.bottom_alphabet))),
            checks.same("check_tableau", accepted, True),
            checks.same("semistandard", (
                oracles.is_super_semistandard(t.rows, array.top_alphabet.parities),
                oracles.is_super_semistandard(u.rows, array.bottom_alphabet.parities)), (True, True)),
            checks.same("shapes", [len(r) for r in t.rows], [len(r) for r in u.rows]),
            checks.same("contents", (sorted(x for r in t.rows for x in r), sorted(y for r in u.rows for y in r)),
                        (sorted(a for a, _ in array.pairs), sorted(b for _, b in array.pairs))),
        ])

    def input_stats(self):
        columns = sum(len(a.pairs) for a in self.pool)
        odd_bottom = sum(a.bottom_alphabet.parities[b] for a in self.pool for _, b in a.pairs)
        return {
            "words": 0,
            "arrays": len(self.pool),
            "columns": columns,
            "col_insert_share": odd_bottom / columns,
            "max_rows": max(len(self.lib.rsk_forward(a)[0].rows) for a in self.pool),
            "max_cols": max(len(a.pairs) for a in self.pool),
        }


class _StopCensus(Exception):
    pass


class SymmetryProbe:
    """Full symmetry censuses; one item is one array of a census.

    The census is exhaustive, so the seed changes only the letter names
    and the order of the censuses in each round; the input counts are
    the same for every seed.
    """

    name = "symmetry_probe"
    unit = "arrays"
    checks = ("hypothesis_symmetric", "total", "records", "cells", "hypothesis_cells")

    # Two pairs with aligned parity blocks (so the hypothesis cells fill)
    # and two without.  A pass is one round of the four censuses,
    # 4 x 8,361 arrays.
    PAIRS = (((0, 0, 1), (0, 0, 1)), ((1, 0, 0), (1, 0, 0)),
             ((0, 1, 0), (1, 0, 0)), ((0, 1, 0), (0, 1, 0)))
    MAX_COLS = 8

    def __init__(self, lib, seed, workdir):
        self.lib = lib
        self.seed = seed
        rng = random.Random("symmetry_probe:%d" % seed)
        names = rng.sample("abcdefghijklmnopqrstuvwxyz", 3)
        self.pairs = [(lib.make_alphabet(names, t), lib.make_alphabet(names, b)) for t, b in self.PAIRS]
        self.expected = [oracles.census_counts(t, b, self.MAX_COLS) for t, b in self.PAIRS]
        self.pass_items = sum(e[0] for e in self.expected)

    def warm_up(self) -> None:
        top, bottom = self.pairs[0]
        self.lib.symmetry_probe(top, bottom, 0)

    def run(self, stop, checks: Checks, tracer=None) -> Tally:
        tally = Tally()
        order_rng = random.Random("symmetry_probe/order:%d" % self.seed)
        while True:
            order = list(range(len(self.pairs)))
            order_rng.shuffle(order)
            for k in order:
                if stop(tally.attempted):
                    return tally
                self._census(k, stop, checks, tracer, tally)

    def _census(self, k, stop, checks, tracer, tally) -> None:
        """One census, cut short at the first array after `stop` says so."""
        top, bottom = self.pairs[k]
        base = tally.attempted
        stamps, flags = [], []
        cut = []

        def sink(record):
            if cut:
                raise _StopCensus
            stamps.append(perf_counter())
            flags.append((record["hypothesis"], record["symmetric"]))
            if tracer is not None:
                tracer.item = base + len(stamps) + 1
            if stop(base + len(stamps)):
                cut.append(True)

        if tracer is not None:
            tracer.item = base + 1
        report, raised = None, False
        t0 = perf_counter()
        try:
            report = self.lib.symmetry_probe(top, bottom, self.MAX_COLS, sink=sink)
        except _StopCensus:
            pass
        except Exception:
            # The array in progress raised: count it as one failed item.
            stamps.append(perf_counter())
            flags.append((False, True))
            tally.note_error()
            raised = True
        census_ok = not raised
        if report is not None:
            arrays, hypothesis, _, _ = self.expected[k]
            counts = report.counts
            census_ok = all([
                checks.same("total", report.total, arrays),
                checks.same("records", len(stamps), report.total),
                checks.same("cells", sum(counts.values()), report.total),
                checks.same("hypothesis_cells", counts[(True, True)] + counts[(True, False)], hypothesis),
            ])
        last = t0
        for stamp, (hyp, sym) in zip(stamps, flags):
            ok = census_ok and checks.same("hypothesis_symmetric", bool(hyp) and not sym, False)
            tally.add(stamp - last, 1, ok)
            last = stamp

    def input_stats(self):
        arrays = sum(e[0] for e in self.expected)
        columns = sum(e[2] for e in self.expected)
        return {
            "words": 0,
            "arrays": arrays,
            "columns": columns,
            "col_insert_share": sum(e[3] for e in self.expected) / columns,
            "max_rows": 0,
            "max_cols": self.MAX_COLS,
        }


class PieriCli(PooledWorkload):
    """In-process `superplactic pieri ... --json` calls over a grid."""

    name = "pieri_cli"
    unit = "checks"
    checks = ("exit", "json", "equal", "balanced", "shapes")

    # (shape, p, mode, even letters, odd letters).  Each cell also runs as
    # its conjugate (conjugate shape, other mode, even and odd counts
    # swapped), which has as many tableaux on each side.  The seed orders
    # each alphabet's parities at random and shuffles the grid.
    GRID = (
        ((2, 1), 2, "row", 2, 1),
        ((3, 2), 2, "col", 2, 1),
        ((2, 2, 1), 3, "row", 2, 1),
        ((4, 2), 3, "col", 2, 1),
        ((4, 3, 1), 2, "row", 2, 1),
        ((3, 3, 2), 2, "col", 2, 1),
        ((2, 1), 2, "col", 2, 2),
        ((3, 2), 2, "row", 2, 2),
        ((2, 2, 1), 3, "col", 2, 2),
        ((3, 2, 1), 2, "row", 2, 2),
        ((4, 2), 3, "row", 2, 2),
        ((4, 3, 1), 2, "col", 2, 2),
    )
    REPEATS = 10

    def __init__(self, lib, seed, workdir):
        import superplactic.cli

        self.cli = superplactic.cli
        rng = random.Random("pieri_cli:%d" % seed)
        cells = []
        for shape, p, mode, even, odd in self.GRID:
            cells.append((shape, p, mode, even, odd))
            cells.append((oracles.conjugate(shape), p, "col" if mode == "row" else "row", odd, even))
        paths = {}
        self.pool = []
        for shape, p, mode, even, odd in cells:
            parities = [0] * even + [1] * odd
            rng.shuffle(parities)
            key = tuple(parities)
            if key not in paths:
                alphabet = lib.make_alphabet(_letters(len(key)), key)
                path = Path(workdir) / ("alphabet-%s.json" % "".join(map(str, key)))
                path.write_text(json.dumps(lib.alphabet_to_json(alphabet)), encoding="utf-8")
                paths[key] = str(path)
            argv = ["pieri", "--shape", ",".join(map(str, shape)), "--p", str(p),
                    "--mode", mode, "--alphabet", paths[key], "--json"]
            expected = {mu for mu in oracles.strip_shapes(shape, p, mode)
                        if oracles.fits_hook(mu, even, odd)}
            self.pool.append((argv, shape, p, expected))
        rng.shuffle(self.pool)
        self.pool *= self.REPEATS

    def call(self, item):
        out, err = io.StringIO(), io.StringIO()
        code = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                self.cli.main(item[0])
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue()

    def check(self, item, out, checks):
        _, _, _, expected = item
        code, text = out
        try:
            obj = json.loads(text)
            parsed = isinstance(obj, dict)
        except ValueError:
            parsed = False
        if not (checks.same("exit", code, None) and checks.same("json", parsed, True)):
            return False
        rows = obj.get("by_shape", [])
        return all([
            checks.same("equal", obj.get("equal"), True),
            checks.same("balanced", all(r["left"] == r["right"] for r in rows), True),
            checks.same("shapes", {tuple(r["shape"]) for r in rows}, expected),
        ])

    def input_stats(self):
        return {
            "words": 0,
            "arrays": 0,
            "columns": sum(shape[0] if shape else 0 for _, shape, _, _ in self.pool),
            "col_insert_share": 0.0,
            "max_rows": max((len(mu) for *_, expected in self.pool for mu in expected), default=0),
            "max_cols": max((mu[0] for *_, expected in self.pool for mu in expected), default=0),
        }


WORKLOADS = {w.name: w for w in (PlacticWords, RskRoundtrip, SymmetryProbe, PieriCli)}
