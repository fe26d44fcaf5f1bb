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
from .errors import HypothesisError, SuperplacticError
from .plactic import (
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
    validate,
    word_of,
)


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return json.loads(text)
    except RecursionError:
        raise json.JSONDecodeError("nested too deeply", text, 0) from None


def _load_alphabet(path: str):
    return alphabet_from_json(_load_json(path))


def _load_alphabet_pair(l_path: str, p_path: str):
    return _load_alphabet(l_path), _load_alphabet(p_path)


def _load_tableau(path: str, alphabet):
    return tableau_from_json(_load_json(path), alphabet)


def _load_array(path: str, top_alphabet, bottom_alphabet):
    return array_from_json(_load_json(path), top_alphabet, bottom_alphabet)


def _parse_word(text: str, alphabet) -> Word:
    if text.strip() == "":
        return Word(alphabet, ())
    return Word(alphabet, [s.strip() for s in text.split(",")])


def _parse_shape(text: str):
    if text.strip() == "":
        return ()
    try:
        parts = [int(s) for s in text.split(",")]
    except ValueError:
        raise click.BadParameter("%r is not a comma-separated list of integers" % text,
                                 param_hint="'--shape'") from None
    return as_partition(parts)


def _emit(obj: dict) -> None:
    click.echo(json.dumps(obj, indent=2, sort_keys=True))


_alphabet_option = click.option(
    "--alphabet",
    "alphabet_path",
    required=True,
    type=click.Path(exists=True, dir_okay=False),
    help="Alphabet JSON file.",
)
_json_option = click.option("--json", "as_json", is_flag=True, help="Machine-readable output.")


def _alphabet_pair_options(required: bool):
    """The --alphabet-l/--alphabet-p pair: top and bottom alphabets of an array."""
    path = click.Path(exists=True, dir_okay=False)
    l_option = click.option("--alphabet-l", "alphabet_l_path", required=required, type=path)
    p_option = click.option("--alphabet-p", "alphabet_p_path", required=required, type=path)
    return lambda f: l_option(p_option(f))


@click.group()
def cli() -> None:
    """Tableaux over signed alphabets: bumping, plactic classes, RSK."""


@cli.command("validate")
@click.option("--tableau", "tableau_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--array", "array_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--alphabet", "alphabet_path", type=click.Path(exists=True, dir_okay=False))
@_alphabet_pair_options(required=False)
@_json_option
def validate_cmd(tableau_path, array_path, alphabet_path, alphabet_l_path, alphabet_p_path, as_json):
    """Check a tableau (with --alphabet) or an array (with --alphabet-l/-p)."""
    if (tableau_path is None) == (array_path is None):
        raise click.UsageError("pass exactly one of --tableau or --array")
    if tableau_path is not None:
        if alphabet_path is None:
            raise click.UsageError("--tableau needs --alphabet")
        t = _load_tableau(tableau_path, _load_alphabet(alphabet_path))
        if as_json:
            _emit({"valid": True, "shape": list(t.shape)})
        else:
            click.echo("valid tableau of shape %s" % (list(t.shape),))
    else:
        if alphabet_l_path is None or alphabet_p_path is None:
            raise click.UsageError("--array needs --alphabet-l and --alphabet-p")
        s = _load_array(array_path, *_load_alphabet_pair(alphabet_l_path, alphabet_p_path))
        if as_json:
            _emit({"valid": True, "columns": len(s)})
        else:
            click.echo("valid array with %d columns" % len(s))


@cli.command("insert")
@click.option("--mode", type=click.Choice(["row", "col"]), default="row", show_default=True)
@click.option("--tableau", "tableau_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--letters", required=True, help="Comma-separated letters to insert, in order.")
@_alphabet_option
@_json_option
def insert_cmd(mode, tableau_path, letters, alphabet_path, as_json):
    """Insert letters one by one, reporting each bumping path."""
    alphabet = _load_alphabet(alphabet_path)
    t = _load_tableau(tableau_path, alphabet)
    steps = []
    for sym in [s.strip() for s in letters.split(",")]:
        if mode == "row":
            t, idx, trace = row_insert_trace(t, sym)
        else:
            t, idx, trace = col_insert_trace(sym, t)
        steps.append((sym, idx, trace))
    if as_json:
        _emit(
            {
                "mode": mode,
                "steps": [
                    {
                        "letter": sym,
                        "index": idx,
                        "path": [{"row": r, "col": c, "letter": v} for r, c, v in trace],
                    }
                    for sym, idx, trace in steps
                ],
                "tableau": tableau_to_json(t),
            }
        )
    else:
        label = "row" if mode == "row" else "column"
        for sym, idx, trace in steps:
            path = " ".join("(%d,%d)=%s" % (r, c, v) for r, c, v in trace)
            click.echo("insert %s: %s %d; path %s" % (sym, label, idx, path))
        click.echo(pretty(t))


@cli.command("delete")
@click.option("--mode", type=click.Choice(["row", "col"]), default="row", show_default=True)
@click.option("--index", required=True, type=int, help="Row (or column) index, 1-based.")
@click.option("--tableau", "tableau_path", required=True, type=click.Path(exists=True, dir_okay=False))
@_alphabet_option
@_json_option
def delete_cmd(mode, index, tableau_path, alphabet_path, as_json):
    """Delete at a corner, reporting the ejected letter."""
    alphabet = _load_alphabet(alphabet_path)
    t = _load_tableau(tableau_path, alphabet)
    if mode == "row":
        t, letter = row_delete(t, index)
    else:
        t, letter = col_delete(t, index)
    if as_json:
        _emit({"mode": mode, "letter": letter, "tableau": tableau_to_json(t)})
    else:
        click.echo("ejected %s" % letter)
        click.echo(pretty(t))


@cli.command("tableau-of-word")
@click.option("--word", required=True)
@_alphabet_option
@_json_option
def tableau_of_word_cmd(word, alphabet_path, as_json):
    """Tableau of a word."""
    alphabet = _load_alphabet(alphabet_path)
    t = tableau_of_word(_parse_word(word, alphabet))
    if as_json:
        _emit({"tableau": tableau_to_json(t)})
    else:
        click.echo(pretty(t))


@cli.command("word-of-tableau")
@click.option("--tableau", "tableau_path", required=True, type=click.Path(exists=True, dir_okay=False))
@_alphabet_option
@_json_option
def word_of_tableau_cmd(tableau_path, alphabet_path, as_json):
    """Reading word of a tableau, bottom row up."""
    alphabet = _load_alphabet(alphabet_path)
    w = word_of(_load_tableau(tableau_path, alphabet))
    if as_json:
        _emit({"word": list(w.symbols)})
    else:
        click.echo(",".join(w.symbols))


@cli.command("normal-form")
@click.option("--word", required=True)
@_alphabet_option
@_json_option
def normal_form_cmd(word, alphabet_path, as_json):
    """Canonical (tableau) word of the congruence class."""
    alphabet = _load_alphabet(alphabet_path)
    w = canonical_word(_parse_word(word, alphabet))
    if as_json:
        _emit({"word": list(w.symbols)})
    else:
        click.echo(",".join(w.symbols))


@cli.command("class")
@click.option("--word", required=True)
@click.option("--limit", default=50, show_default=True, type=click.IntRange(min=0),
              help="Print at most this many members.")
@click.option("--max-len", default=9, show_default=True, help="Word length bound for the search.")
@_alphabet_option
@_json_option
def class_cmd(word, limit, max_len, alphabet_path, as_json):
    """Congruence class of a word: size, canonical form, members.

    The state cap of the search honors SUPERPLACTIC_MAX_STATES.
    """
    alphabet = _load_alphabet(alphabet_path)
    w = _parse_word(word, alphabet)
    members = sorted(plactic_class(w, max_len=max_len), key=lambda u: u.letters)
    canon = canonical_word(w)
    if as_json:
        _emit(
            {
                "size": len(members),
                "canonical": list(canon.symbols),
                "words": [list(u.symbols) for u in members[:limit]],
            }
        )
    else:
        click.echo("size %d" % len(members))
        click.echo("canonical %s" % ",".join(canon.symbols))
        for u in members[:limit]:
            click.echo(",".join(u.symbols))
        if len(members) > limit:
            click.echo("... (%d more)" % (len(members) - limit))


@cli.command("greene")
@click.option("--word", required=True)
@click.option("--k", required=True, type=click.IntRange(min=1))
@click.option("--mode", type=click.Choice(["row", "col", "shape"]), default="row", show_default=True)
@_alphabet_option
@_json_option
def greene_cmd(word, k, mode, alphabet_path, as_json):
    """Greene invariant by the chain dynamic program, or read off the shape."""
    alphabet = _load_alphabet(alphabet_path)
    w = _parse_word(word, alphabet)
    if mode == "shape":
        row_val = greene_via_shape(w, k, "row")
        col_val = greene_via_shape(w, k, "col")
        if as_json:
            _emit({"k": k, "mode": mode, "row": row_val, "col": col_val})
        else:
            click.echo("via shape: row %d, col %d" % (row_val, col_val))
    else:
        value = greene_row(w, k) if mode == "row" else greene_col(w, k)
        if as_json:
            _emit({"k": k, "mode": mode, "value": value})
        else:
            click.echo("%s invariant k=%d: %d" % (mode, k, value))


@cli.command("rsk")
@click.option("--array", "array_path", required=True, type=click.Path(exists=True, dir_okay=False))
@_alphabet_pair_options(required=True)
@_json_option
def rsk_cmd(array_path, alphabet_l_path, alphabet_p_path, as_json):
    """Correspondence: array to the tableau pair (T, U)."""
    s = _load_array(array_path, *_load_alphabet_pair(alphabet_l_path, alphabet_p_path))
    t, u = rsk_forward(s)
    if as_json:
        _emit({"t": tableau_to_json(t), "u": tableau_to_json(u)})
    else:
        click.echo("T:")
        click.echo(pretty(t))
        click.echo("U:")
        click.echo(pretty(u))


@cli.command("rsk-inverse")
@click.option("--t", "t_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--u", "u_path", required=True, type=click.Path(exists=True, dir_okay=False))
@_alphabet_pair_options(required=True)
@_json_option
def rsk_inverse_cmd(t_path, u_path, alphabet_l_path, alphabet_p_path, as_json):
    """Inverse correspondence: equal-shape pair back to the array."""
    alphabet_l, alphabet_p = _load_alphabet_pair(alphabet_l_path, alphabet_p_path)
    t = _load_tableau(t_path, alphabet_l)
    u = _load_tableau(u_path, alphabet_p)
    s = rsk_inverse(t, u)
    if as_json:
        _emit({"array": array_to_json(s)})
    else:
        click.echo(s.pretty())


@cli.command("symmetry")
@click.option("--array", "array_path", required=True, type=click.Path(exists=True, dir_okay=False))
@_alphabet_pair_options(required=True)
@_json_option
def symmetry_cmd(array_path, alphabet_l_path, alphabet_p_path, as_json):
    """Whether the involution swaps T and U for this array."""
    s = _load_array(array_path, *_load_alphabet_pair(alphabet_l_path, alphabet_p_path))
    try:
        symmetric = check_susy(s)
        hypotheses = True
    except HypothesisError:
        symmetric = has_symmetry(s)
        hypotheses = False
    if as_json:
        _emit({"symmetric": symmetric, "hypotheses": hypotheses})
    else:
        click.echo("symmetric: %s" % ("yes" if symmetric else "no"))
        click.echo("hypotheses: %s" % ("satisfied" if hypotheses else "not satisfied"))


@cli.command("probe")
@_alphabet_pair_options(required=True)
@click.option("--max-cols", required=True, type=click.IntRange(min=0))
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False, writable=True),
              help="JSON-lines file, one record per array.")
@_json_option
def probe_cmd(alphabet_l_path, alphabet_p_path, max_cols, out_path, as_json):
    """Survey symmetry over all arrays with at most MAX_COLS columns."""
    alphabet_l, alphabet_p = _load_alphabet_pair(alphabet_l_path, alphabet_p_path)
    with open(out_path, "w", encoding="utf-8") as fh:
        def sink(record):
            fh.write(json.dumps(record, sort_keys=True) + "\n")

        report = symmetry_probe(alphabet_l, alphabet_p, max_cols, sink=sink)
    obj = report.to_json_obj()
    if as_json:
        _emit(obj)
    else:
        click.echo("arrays: %d" % obj["total"])
        for name, count in obj["counts"].items():
            click.echo("%s: %d" % (name, count))
        click.echo("records written to %s" % out_path)


@cli.command("pieri")
@click.option("--shape", required=True, help="Comma-separated partition, e.g. 2,1.")
@click.option("--p", required=True, type=click.IntRange(min=0))
@click.option("--mode", type=click.Choice(["row", "col"]), default="row", show_default=True)
@_alphabet_option
@_json_option
def pieri_cmd(shape, p, mode, alphabet_path, as_json):
    """Check the Pieri expansion for s_shape times a row or column sum."""
    alphabet = _load_alphabet(alphabet_path)
    report = pieri_check(_parse_shape(shape), p, alphabet, mode)
    if as_json:
        _emit(
            {
                "equal": report.equal,
                "mode": report.mode,
                "shape": list(report.lam),
                "p": report.p,
                "by_shape": [
                    {"shape": list(shp), "left": left, "right": right}
                    for shp, left, right in report.by_shape
                ],
            }
        )
    else:
        click.echo("equal: %s" % ("yes" if report.equal else "no"))
        for shp, left, right in report.by_shape:
            click.echo("shape %s: left %d, right %d" % (",".join(map(str, shp)) or "-", left, right))


def main(argv=None):
    """Entry point with the documented exit codes."""
    try:
        return cli.main(args=argv, prog_name="superplactic", standalone_mode=False)
    except click.exceptions.Exit as exc:
        sys.exit(exc.exit_code)
    except click.UsageError as exc:
        exc.show()
        sys.exit(2)
    except click.ClickException as exc:
        exc.show()
        sys.exit(exc.exit_code)
    except SuperplacticError as exc:
        click.echo("%s: %s" % (type(exc).__name__, exc), err=True)
        sys.exit(1)
    except json.JSONDecodeError as exc:
        click.echo("invalid JSON input: %s" % exc, err=True)
        sys.exit(1)


if __name__ == "__main__":
    main()
