"""Command line driver.

File formats are JSON: an alphabet is {"letters": [...], "parity": [...]},
a tableau is {"shape": [...], "rows": [[...], ...]} with rows of symbols,
and a two-rowed array is {"top": [...], "bottom": [...]}.  Words on the
command line are comma-separated symbols ("" is the empty word) and shapes
are comma-separated part lengths.

Exit codes: 0 on success, 1 on a domain error (validation failures, bounds,
foreign letters), 2 on a usage error.
"""

from __future__ import annotations

import functools
import json
import sys

import click

from .alphabet import alphabet_from_json
from .bumping import (
    col_delete,
    col_insert_trace,
    row_delete,
    row_insert_trace,
    tableau_of_word,
)
from .errors import HypothesisError, SuperplacticError, _excerpt
from .plactic import (
    DEFAULT_MAX_WORD_LEN,
    canonical_word,
    greene_col,
    greene_row,
    greene_via_shape,
    plactic_class,
)
from .ring import pieri_check
from .rsk import (
    array_from_json,
    array_to_json,
    check_susy,
    has_symmetry,
    rsk_forward,
    rsk_inverse,
    symmetry_probe,
)
from .shape import as_partition
from .tableau import (
    Word,
    pretty,
    tableau_from_json,
    tableau_to_json,
    word_of,
)


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        raise
    except RecursionError:
        raise json.JSONDecodeError("nested too deeply", text, 0) from None
    except ValueError as exc:
        # a number past the interpreter's limit on integer string conversion
        raise json.JSONDecodeError(str(exc), text, 0) from None


def _load_alphabet(path: str):
    return alphabet_from_json(_load_json(path))


def _load_alphabet_pair(l_path: str, p_path: str):
    return _load_alphabet(l_path), _load_alphabet(p_path)


def _load_tableau(path: str, alphabet):
    return tableau_from_json(_load_json(path), alphabet)


def _load_array(path: str, l_path: str, p_path: str):
    alphabets = _load_alphabet_pair(l_path, p_path)  # first, so their errors come first
    return array_from_json(_load_json(path), *alphabets)


def _parse_word(text: str, alphabet_path: str) -> Word:
    alphabet = _load_alphabet(alphabet_path)
    if text.strip() == "":
        return Word(alphabet, ())
    return Word(alphabet, [s.strip() for s in text.split(",")])


def _parse_shape(text: str):
    if text.strip() == "":
        return ()
    try:
        parts = [int(s) for s in text.split(",")]
    except ValueError:
        raise click.BadParameter("%s is not a comma-separated list of integers" % _excerpt(text),
                                 param_hint="'--shape'") from None
    return as_partition(parts)


class _Integer(click.IntRange):
    """click's integer type, at least `min` when given, whose usage errors
    cut the offending value through _excerpt."""

    @property
    def name(self) -> str:  # --help shows INTEGER, and no range, without a min
        return "integer" if self.min is None else "integer range"

    def _describe_range(self) -> str:
        return "" if self.min is None else super()._describe_range()

    def convert(self, value, param, ctx):
        try:
            number = int(value)
        except ValueError:  # not an integer, or past the integer-conversion limit
            self.fail("%s is not a valid %s." % (_excerpt(value), self.name), param, ctx)
        if self.min is not None and number < self.min:
            self.fail("%s is not in the range %s." % (_excerpt(number), self._describe_range()), param, ctx)
        return number


def _file_option(flag: str, required: bool = True, help: str | None = None):
    """An existing JSON file, passed to the command as `<flag>_path`."""
    dest = flag.lstrip("-").replace("-", "_") + "_path"
    return click.option(flag, dest, required=required, help=help,
                        type=click.Path(exists=True, dir_okay=False))


def _alphabet_pair_options(required: bool = True):
    """The --alphabet-l/--alphabet-p pair: top and bottom alphabets of an array."""
    return lambda f: _file_option("--alphabet-l", required)(_file_option("--alphabet-p", required)(f))


def _mode_option(*modes: str):
    return click.option("--mode", type=click.Choice(modes), default="row", show_default=True)


_alphabet_option = _file_option("--alphabet", help="Alphabet JSON file.")
_word_option = click.option("--word", required=True)


@click.group()
def cli() -> None:
    """Tableaux over signed alphabets: bumping, plactic classes, RSK."""


def _stream(name: str):
    """The text stream click.echo would pick for sys.stdout or sys.stderr,
    wrapped afresh: click's own choice caches the wrapper under the stream
    it wraps, which keeps every stream a caller redirects into alive."""
    return click.get_text_stream(name, errors=None)


def _command(name: str):
    """Register a command whose body returns (record, text).

    The command gets a --json flag after its own options and prints the
    record as sorted, indented JSON with it, else the text.
    """
    def register(body):
        @functools.wraps(body)
        def run(as_json, **kwargs):
            record, text = body(**kwargs)
            click.echo(json.dumps(record, indent=2, sort_keys=True) if as_json else text,
                       file=_stream("stdout"))

        command = cli.command(name)(run)
        command.params.append(click.Option(["--json", "as_json"], is_flag=True,
                                           help="Machine-readable output."))
        return command

    return register


@_command("validate")
@_file_option("--tableau", required=False)
@_file_option("--array", required=False)
@_file_option("--alphabet", required=False)
@_alphabet_pair_options(required=False)
def validate_cmd(tableau_path, array_path, alphabet_path, alphabet_l_path, alphabet_p_path):
    """Check a tableau (with --alphabet) or an array (with --alphabet-l/-p)."""
    if (tableau_path is None) == (array_path is None):
        raise click.UsageError("pass exactly one of --tableau or --array")
    if tableau_path is not None:
        if alphabet_path is None:
            raise click.UsageError("--tableau needs --alphabet")
        shape = list(_load_tableau(tableau_path, _load_alphabet(alphabet_path)).shape)
        return {"valid": True, "shape": shape}, "valid tableau of shape %s" % (shape,)
    if alphabet_l_path is None or alphabet_p_path is None:
        raise click.UsageError("--array needs --alphabet-l and --alphabet-p")
    columns = len(_load_array(array_path, alphabet_l_path, alphabet_p_path))
    return {"valid": True, "columns": columns}, "valid array with %d columns" % columns


@_command("insert")
@_mode_option("row", "col")
@_file_option("--tableau")
@click.option("--letters", required=True, help="Comma-separated letters to insert, in order.")
@_alphabet_option
def insert_cmd(mode, tableau_path, letters, alphabet_path):
    """Insert letters one by one, reporting each bumping path."""
    t = _load_tableau(tableau_path, _load_alphabet(alphabet_path))
    label = "row" if mode == "row" else "column"
    steps, lines = [], []
    for sym in [s.strip() for s in letters.split(",")]:
        if mode == "row":
            t, idx, trace = row_insert_trace(t, sym)
        else:
            t, idx, trace = col_insert_trace(sym, t)
        steps.append({"letter": sym, "index": idx,
                      "path": [{"row": r, "col": c, "letter": v} for r, c, v in trace]})
        path = " ".join("(%d,%d)=%s" % (r, c, v) for r, c, v in trace)
        lines.append("insert %s: %s %d; path %s" % (sym, label, idx, path))
    lines.append(pretty(t))
    return {"mode": mode, "steps": steps, "tableau": tableau_to_json(t)}, "\n".join(lines)


@_command("delete")
@_mode_option("row", "col")
@click.option("--index", required=True, type=_Integer(), help="Row (or column) index, 1-based.")
@_file_option("--tableau")
@_alphabet_option
def delete_cmd(mode, index, tableau_path, alphabet_path):
    """Delete at a corner, reporting the ejected letter."""
    t = _load_tableau(tableau_path, _load_alphabet(alphabet_path))
    t, letter = (row_delete if mode == "row" else col_delete)(t, index)
    text = "ejected %s\n%s" % (letter, pretty(t))
    return {"mode": mode, "letter": letter, "tableau": tableau_to_json(t)}, text


@_command("tableau-of-word")
@_word_option
@_alphabet_option
def tableau_of_word_cmd(word, alphabet_path):
    """Tableau of a word."""
    t = tableau_of_word(_parse_word(word, alphabet_path))
    return {"tableau": tableau_to_json(t)}, pretty(t)


@_command("word-of-tableau")
@_file_option("--tableau")
@_alphabet_option
def word_of_tableau_cmd(tableau_path, alphabet_path):
    """Reading word of a tableau, bottom row up."""
    symbols = list(word_of(_load_tableau(tableau_path, _load_alphabet(alphabet_path))).symbols)
    return {"word": symbols}, ",".join(symbols)


@_command("normal-form")
@_word_option
@_alphabet_option
def normal_form_cmd(word, alphabet_path):
    """Canonical (tableau) word of the congruence class."""
    symbols = list(canonical_word(_parse_word(word, alphabet_path)).symbols)
    return {"word": symbols}, ",".join(symbols)


@_command("class")
@_word_option
@click.option("--limit", default=50, show_default=True, type=_Integer(min=0),
              help="Print at most this many members.")
@click.option("--max-len", default=DEFAULT_MAX_WORD_LEN, show_default=True, type=_Integer(),
              help="Word length bound for the search.")
@_alphabet_option
def class_cmd(word, limit, max_len, alphabet_path):
    """Congruence class of a word: size, canonical form, members.

    The state cap of the search honors SUPERPLACTIC_MAX_STATES.
    """
    w = _parse_word(word, alphabet_path)
    members = sorted(plactic_class(w, max_len=max_len), key=lambda u: u.letters)
    canon = list(canonical_word(w).symbols)
    shown = [list(u.symbols) for u in members[:limit]]
    lines = ["size %d" % len(members), "canonical %s" % ",".join(canon)] + [",".join(u) for u in shown]
    if len(members) > limit:
        lines.append("... (%d more)" % (len(members) - limit))
    return {"size": len(members), "canonical": canon, "words": shown}, "\n".join(lines)


@_command("greene")
@_word_option
@click.option("--k", required=True, type=_Integer(min=1))
@_mode_option("row", "col", "shape")
@_alphabet_option
def greene_cmd(word, k, mode, alphabet_path):
    """Greene invariant by the chain dynamic program, or read off the shape."""
    w = _parse_word(word, alphabet_path)
    if mode == "shape":
        row, col = greene_via_shape(w, k, "row"), greene_via_shape(w, k, "col")
        return {"k": k, "mode": mode, "row": row, "col": col}, "via shape: row %d, col %d" % (row, col)
    value = greene_row(w, k) if mode == "row" else greene_col(w, k)
    return {"k": k, "mode": mode, "value": value}, "%s invariant k=%d: %d" % (mode, k, value)


@_command("rsk")
@_file_option("--array")
@_alphabet_pair_options()
def rsk_cmd(array_path, alphabet_l_path, alphabet_p_path):
    """Correspondence: array to the tableau pair (T, U)."""
    t, u = rsk_forward(_load_array(array_path, alphabet_l_path, alphabet_p_path))
    return {"t": tableau_to_json(t), "u": tableau_to_json(u)}, "T:\n%s\nU:\n%s" % (pretty(t), pretty(u))


@_command("rsk-inverse")
@_file_option("--t")
@_file_option("--u")
@_alphabet_pair_options()
def rsk_inverse_cmd(t_path, u_path, alphabet_l_path, alphabet_p_path):
    """Inverse correspondence: equal-shape pair back to the array."""
    alphabet_l, alphabet_p = _load_alphabet_pair(alphabet_l_path, alphabet_p_path)
    s = rsk_inverse(_load_tableau(t_path, alphabet_l), _load_tableau(u_path, alphabet_p))
    return {"array": array_to_json(s)}, s.pretty()


@_command("symmetry")
@_file_option("--array")
@_alphabet_pair_options()
def symmetry_cmd(array_path, alphabet_l_path, alphabet_p_path):
    """Whether the involution swaps T and U for this array."""
    s = _load_array(array_path, alphabet_l_path, alphabet_p_path)
    try:
        symmetric = check_susy(s)
        hypotheses = True
    except HypothesisError:
        symmetric = has_symmetry(s)
        hypotheses = False
    text = "symmetric: %s\nhypotheses: %s" % ("yes" if symmetric else "no",
                                              "satisfied" if hypotheses else "not satisfied")
    return {"symmetric": symmetric, "hypotheses": hypotheses}, text


@_command("probe")
@_alphabet_pair_options()
@click.option("--max-cols", required=True, type=_Integer(min=0))
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False, writable=True),
              help="JSON-lines file, one record per array.")
def probe_cmd(alphabet_l_path, alphabet_p_path, max_cols, out_path):
    """Survey symmetry over all arrays with at most MAX_COLS columns."""
    alphabet_l, alphabet_p = _load_alphabet_pair(alphabet_l_path, alphabet_p_path)
    try:
        fh = open(out_path, "w", encoding="utf-8")
    except OSError as exc:
        raise click.FileError(out_path, hint=exc.strerror) from exc
    try:  # writing and closing the file fail the same way
        with fh:
            def sink(record):
                fh.write(json.dumps(record, sort_keys=True) + "\n")

            report = symmetry_probe(alphabet_l, alphabet_p, max_cols, sink=sink)
    except OSError as exc:
        name = click.format_filename(out_path)
        raise click.ClickException("could not write %r: %s" % (name, exc.strerror)) from exc
    record = report.to_json_obj()
    lines = ["arrays: %d" % record["total"]] + ["%s: %d" % item for item in record["counts"].items()]
    lines.append("records written to %s" % out_path)
    return record, "\n".join(lines)


@_command("pieri")
@click.option("--shape", required=True, help="Comma-separated partition, e.g. 2,1.")
@click.option("--p", required=True, type=_Integer(min=0))
@_mode_option("row", "col")
@_alphabet_option
def pieri_cmd(shape, p, mode, alphabet_path):
    """Check the Pieri expansion for s_shape times a row or column sum."""
    alphabet = _load_alphabet(alphabet_path)
    report = pieri_check(_parse_shape(shape), p, alphabet, mode)
    record = {
        "equal": report.equal,
        "mode": report.mode,
        "shape": list(report.lam),
        "p": report.p,
        "by_shape": [{"shape": list(shp), "left": left, "right": right}
                     for shp, left, right in report.by_shape],
    }
    lines = ["equal: %s" % ("yes" if report.equal else "no")]
    lines += ["shape %s: left %d, right %d" % (",".join(map(str, shp)) or "-", left, right)
              for shp, left, right in report.by_shape]
    return record, "\n".join(lines)


def main(argv=None):
    """Entry point with the documented exit codes."""
    try:
        return cli.main(args=argv, prog_name="superplactic", standalone_mode=False)
    except click.ClickException as exc:  # usage errors exit 2, file errors 1
        exc.show()
        sys.exit(exc.exit_code)
    except (SuperplacticError, UnicodeError) as exc:
        # An input file that is not UTF-8, or a letter the output stream
        # cannot encode (a lone surrogate from a JSON escape), is bad input.
        click.echo("%s: %s" % (type(exc).__name__, exc), file=_stream("stderr"))
        sys.exit(1)
    except json.JSONDecodeError as exc:
        click.echo("invalid JSON input: %s" % exc, file=_stream("stderr"))
        sys.exit(1)


if __name__ == "__main__":
    main()
