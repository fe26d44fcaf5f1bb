import contextlib
import inspect
import io
import json
import os
import tempfile

import click
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superplactic.cli import cli, main


def run_cli(args, capsys):
    code = 0
    try:
        main(args)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 0
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def files(tmp_path):
    def dump(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    return {
        "mixed4": dump("mixed4.json", {"letters": ["1", "2", "3", "4"], "parity": [0, 0, 1, 1]}),
        "mixed2": dump("mixed2.json", {"letters": ["1", "2"], "parity": [0, 1]}),
        "split24": dump(
            "split24.json", {"letters": [str(i) for i in range(1, 7)], "parity": [0, 0, 1, 1, 1, 1]}
        ),
        "tableau": dump("tableau.json", {"shape": [2, 1], "rows": [["1", "1"], ["2"]]}),
        "bad_tableau": dump("bad.json", {"shape": [2], "rows": [["3", "3"]]}),
        "array": dump(
            "array.json",
            {
                "top": ["2", "1", "1", "1", "6", "5", "4", "3"],
                "bottom": ["1", "2", "2", "2", "3", "4", "5", "6"],
            },
        ),
        "bad_array": dump("badarray.json", {"top": ["2", "1"], "bottom": ["1", "1"]}),
        "t": dump("t.json", {"shape": [4, 3, 1], "rows": [["1", "1", "1", "6"], ["2", "4", "5"], ["3"]]}),
        "u": dump("u.json", {"shape": [4, 3, 1], "rows": [["1", "2", "2", "6"], ["2", "4", "5"], ["3"]]}),
        "closing": dump("closing.json", {"top": ["3", "4", "1", "2"], "bottom": ["1", "2", "3", "4"]}),
        "dir": tmp_path,
    }


class TestWordCommands:
    def test_tableau_of_word(self, files, capsys):
        code, out, _ = run_cli(["tableau-of-word", "--word", "2,1,3", "--alphabet", files["mixed4"]], capsys)
        assert code == 0
        assert out == "1 3\n2\n"

    def test_tableau_of_word_json(self, files, capsys):
        code, out, _ = run_cli(
            ["tableau-of-word", "--word", "2,1,3", "--alphabet", files["mixed4"], "--json"], capsys
        )
        assert code == 0
        assert json.loads(out) == {"tableau": {"shape": [2, 1], "rows": [["1", "3"], ["2"]]}}

    def test_normal_form_of_empty_word(self, files, capsys):
        code, out, _ = run_cli(["normal-form", "--word", "", "--alphabet", files["mixed4"]], capsys)
        assert code == 0
        assert out == "\n"

    def test_normal_form(self, files, capsys):
        code, out, _ = run_cli(["normal-form", "--word", "2,1,3", "--alphabet", files["mixed4"]], capsys)
        assert code == 0
        assert out == "2,1,3\n"

    def test_class_listing(self, files, capsys):
        code, out, _ = run_cli(["class", "--word", "1,2,1", "--alphabet", files["mixed2"]], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "size 2"
        assert lines[1] == "canonical 2,1,1"
        assert set(lines[2:]) == {"1,2,1", "2,1,1"}

    def test_class_json_sorted(self, files, capsys):
        code, out, _ = run_cli(["class", "--word", "1,2,1", "--alphabet", files["mixed2"], "--json"], capsys)
        assert code == 0
        blob = json.loads(out)
        assert blob["size"] == 2
        assert blob["canonical"] == ["2", "1", "1"]
        assert blob["words"] == sorted(blob["words"])

    def test_greene_text_and_json(self, files, capsys):
        code, out, _ = run_cli(
            ["greene", "--word", "2,1,3", "--k", "2", "--alphabet", files["mixed4"]], capsys
        )
        assert code == 0
        assert out == "row invariant k=2: 3\n"
        code, out, _ = run_cli(
            ["greene", "--word", "2,1,3", "--k", "2", "--mode", "col", "--alphabet", files["mixed4"], "--json"],
            capsys,
        )
        assert code == 0
        assert json.loads(out) == {"k": 2, "mode": "col", "value": 3}


class TestTableauCommands:
    def test_insert_reports_paths(self, files, capsys):
        code, out, _ = run_cli(
            ["insert", "--tableau", files["tableau"], "--letters", "1,3", "--alphabet", files["mixed4"]],
            capsys,
        )
        assert code == 0
        assert out == "insert 1: row 1; path (1,3)=1\ninsert 3: row 1; path (1,4)=3\n1 1 1 3\n2\n"

    def test_insert_column_mode_json(self, files, capsys):
        code, out, _ = run_cli(
            [
                "insert",
                "--mode",
                "col",
                "--tableau",
                files["tableau"],
                "--letters",
                "1",
                "--alphabet",
                files["mixed4"],
                "--json",
            ],
            capsys,
        )
        assert code == 0
        blob = json.loads(out)
        assert blob["mode"] == "col"
        assert blob["tableau"]["shape"] == [3, 1]
        assert blob["steps"][0]["letter"] == "1"
        assert blob["steps"][0]["index"] == 3
        assert blob["steps"][0]["path"][0] == {"row": 1, "col": 1, "letter": "1"}

    def test_delete(self, files, capsys):
        code, out, _ = run_cli(
            ["delete", "--index", "2", "--tableau", files["tableau"], "--alphabet", files["mixed4"]], capsys
        )
        assert code == 0
        assert out == "ejected 1\n1 2\n"

    def test_word_of_tableau(self, files, capsys):
        code, out, _ = run_cli(
            ["word-of-tableau", "--tableau", files["tableau"], "--alphabet", files["mixed4"]], capsys
        )
        assert code == 0
        assert out == "2,1,1\n"

    def test_validate_tableau(self, files, capsys):
        code, out, _ = run_cli(["validate", "--tableau", files["tableau"], "--alphabet", files["mixed4"]], capsys)
        assert code == 0
        assert out == "valid tableau of shape [2, 1]\n"

    def test_validate_rejects_bad_tableau(self, files, capsys):
        code, out, err = run_cli(
            ["validate", "--tableau", files["bad_tableau"], "--alphabet", files["mixed4"]], capsys
        )
        assert code == 1
        assert out == ""
        assert err.startswith("ValidationError:")


class TestArrayCommands:
    def test_rsk_text(self, files, capsys):
        code, out, _ = run_cli(
            ["rsk", "--array", files["array"], "--alphabet-l", files["split24"], "--alphabet-p", files["split24"]],
            capsys,
        )
        assert code == 0
        assert out == "T:\n1 1 1 6\n2 4 5\n3\nU:\n1 2 2 6\n2 4 5\n3\n"

    def test_rsk_json(self, files, capsys):
        code, out, _ = run_cli(
            [
                "rsk",
                "--array",
                files["array"],
                "--alphabet-l",
                files["split24"],
                "--alphabet-p",
                files["split24"],
                "--json",
            ],
            capsys,
        )
        assert code == 0
        blob = json.loads(out)
        assert blob["t"]["rows"][0] == ["1", "1", "1", "6"]
        assert blob["u"]["rows"][0] == ["1", "2", "2", "6"]

    def test_rsk_inverse(self, files, capsys):
        code, out, _ = run_cli(
            [
                "rsk-inverse",
                "--t",
                files["t"],
                "--u",
                files["u"],
                "--alphabet-l",
                files["split24"],
                "--alphabet-p",
                files["split24"],
            ],
            capsys,
        )
        assert code == 0
        assert out == "2 1 1 1 6 5 4 3\n1 2 2 2 3 4 5 6\n"

    def test_symmetry(self, files, capsys):
        code, out, _ = run_cli(
            [
                "symmetry",
                "--array",
                files["array"],
                "--alphabet-l",
                files["split24"],
                "--alphabet-p",
                files["split24"],
            ],
            capsys,
        )
        assert code == 0
        assert out == "symmetric: yes\nhypotheses: satisfied\n"

    def test_symmetry_outside_hypotheses(self, files, capsys):
        code, out, _ = run_cli(
            [
                "symmetry",
                "--array",
                files["closing"],
                "--alphabet-l",
                files["mixed4"],
                "--alphabet-p",
                files["mixed4"],
                "--json",
            ],
            capsys,
        )
        assert code == 0
        assert json.loads(out) == {"symmetric": False, "hypotheses": False}

    def test_validate_array(self, files, capsys):
        code, out, _ = run_cli(
            [
                "validate",
                "--array",
                files["closing"],
                "--alphabet-l",
                files["mixed4"],
                "--alphabet-p",
                files["mixed4"],
            ],
            capsys,
        )
        assert code == 0
        assert out == "valid array with 4 columns\n"

    def test_validate_rejects_bad_array(self, files, capsys):
        code, _, err = run_cli(
            [
                "validate",
                "--array",
                files["bad_array"],
                "--alphabet-l",
                files["mixed4"],
                "--alphabet-p",
                files["mixed4"],
            ],
            capsys,
        )
        assert code == 1
        assert err.startswith("ValidationError:")


class TestProbeAndPieri:
    def test_probe_writes_jsonl(self, files, capsys):
        out_path = files["dir"] / "probe.jsonl"
        code, out, _ = run_cli(
            [
                "probe",
                "--alphabet-l",
                files["mixed2"],
                "--alphabet-p",
                files["mixed2"],
                "--max-cols",
                "2",
                "--out",
                str(out_path),
            ],
            capsys,
        )
        assert code == 0
        assert out.startswith("arrays: 13\n")
        assert "hypothesis_asymmetric: 0" in out
        records = [json.loads(line) for line in out_path.read_text().splitlines()]
        assert len(records) == 13
        assert all(set(r) == {"top", "bottom", "hypothesis", "symmetric"} for r in records)

    def test_probe_json_summary(self, files, capsys):
        out_path = files["dir"] / "probe2.jsonl"
        code, out, _ = run_cli(
            [
                "probe",
                "--alphabet-l",
                files["mixed2"],
                "--alphabet-p",
                files["mixed2"],
                "--max-cols",
                "2",
                "--out",
                str(out_path),
                "--json",
            ],
            capsys,
        )
        assert code == 0
        blob = json.loads(out)
        assert blob["total"] == 13
        assert sum(blob["counts"].values()) == 13

    def test_probe_long_arrays(self, files, capsys):
        one = files["dir"] / "one.json"
        one.write_text(json.dumps({"letters": ["1"], "parity": [0]}))
        out_path = files["dir"] / "long.jsonl"
        code, out, err = run_cli(
            ["probe", "--alphabet-l", str(one), "--alphabet-p", str(one), "--max-cols", "1100",
             "--out", str(out_path)],
            capsys,
        )
        assert (code, err) == (0, "")
        assert out.startswith("arrays: 1101\n")

    def test_pieri_text(self, files, capsys):
        code, out, _ = run_cli(
            ["pieri", "--shape", "2,1", "--p", "2", "--alphabet", files["mixed4"]], capsys
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "equal: yes"
        assert all(" left " in line and " right " in line for line in lines[1:])

    def test_pieri_json(self, files, capsys):
        code, out, _ = run_cli(
            ["pieri", "--shape", "2,1", "--p", "2", "--mode", "col", "--alphabet", files["mixed4"], "--json"],
            capsys,
        )
        assert code == 0
        blob = json.loads(out)
        assert blob["equal"] is True
        assert blob["mode"] == "col"
        assert blob["shape"] == [2, 1]
        assert blob["p"] == 2
        for row in blob["by_shape"]:
            assert row["left"] == row["right"]


class TestExitCodes:
    def test_unknown_command(self, files, capsys):
        code, _, err = run_cli(["nosuch"], capsys)
        assert code == 2
        assert "No such command" in err

    def test_validate_needs_exactly_one_input(self, files, capsys):
        code, _, err = run_cli(["validate", "--alphabet", files["mixed4"]], capsys)
        assert code == 2
        assert "exactly one" in err
        code, _, _ = run_cli(
            ["validate", "--tableau", files["tableau"], "--array", files["array"], "--alphabet", files["mixed4"]],
            capsys,
        )
        assert code == 2

    def test_missing_file(self, files, capsys):
        code, _, err = run_cli(
            ["tableau-of-word", "--word", "1", "--alphabet", str(files["dir"] / "missing.json")], capsys
        )
        assert code == 2
        assert "does not exist" in err

    def test_malformed_json(self, files, capsys):
        bad = files["dir"] / "oops.json"
        bad.write_text("{oops")
        code, _, err = run_cli(["tableau-of-word", "--word", "1", "--alphabet", str(bad)], capsys)
        assert code == 1
        assert err.startswith("invalid JSON input")

    def test_domain_error_exit_one(self, files, capsys):
        code, _, err = run_cli(
            ["delete", "--index", "5", "--tableau", files["tableau"], "--alphabet", files["mixed4"]], capsys
        )
        assert code == 1
        assert err.startswith("CornerError:")

    def test_foreign_letter_exit_one(self, files, capsys):
        code, _, err = run_cli(["tableau-of-word", "--word", "9", "--alphabet", files["mixed4"]], capsys)
        assert code == 1
        assert err.startswith("ForeignLetterError:")

    @pytest.mark.parametrize(
        "args",
        [
            ["greene", "--word", "1,2", "--k", "0", "--alphabet", "{mixed4}"],
            ["pieri", "--shape", "2,1", "--p", "-1", "--alphabet", "{mixed4}"],
            ["pieri", "--shape", "x", "--p", "1", "--alphabet", "{mixed4}"],
            ["class", "--word", "1", "--limit", "-1", "--alphabet", "{mixed4}"],
            ["probe", "--alphabet-l", "{mixed2}", "--alphabet-p", "{mixed2}", "--max-cols", "-1",
             "--out", "{dir}/records.jsonl"],
        ],
    )
    def test_bad_number_or_shape_is_usage_error(self, files, capsys, args):
        code, _, err = run_cli([a.format(**files) for a in args], capsys)
        assert code == 2
        assert "Traceback" not in err

    @pytest.mark.parametrize("blob", [{"rows": [1, 2]}, {"rows": [["1"]], "shape": 1}])
    def test_malformed_tableau_json_exit_one(self, files, capsys, blob):
        bad = files["dir"] / "rows.json"
        bad.write_text(json.dumps(blob))
        code, _, err = run_cli(["validate", "--tableau", str(bad), "--alphabet", files["mixed4"]], capsys)
        assert code == 1
        assert err.startswith("ShapeError:")

    @pytest.mark.parametrize(
        "text, args, error",
        [
            ('{"top": [["1"]], "bottom": ["1"]}',
             ["validate", "--array", "{bad}", "--alphabet-l", "{mixed2}", "--alphabet-p", "{mixed2}"],
             "ForeignLetterError:"),
            ('{"top": 5, "bottom": 5}',
             ["validate", "--array", "{bad}", "--alphabet-l", "{mixed2}", "--alphabet-p", "{mixed2}"],
             "ValidationError:"),
            ('{"rows": [[["1"]]]}', ["validate", "--tableau", "{bad}", "--alphabet", "{mixed4}"],
             "ForeignLetterError:"),
            ('{"rows": [[["1"]]]}', ["delete", "--index", "1", "--tableau", "{bad}", "--alphabet", "{mixed4}"],
             "ForeignLetterError:"),
            ('{"rows": [[["1"]]]}', ["word-of-tableau", "--tableau", "{bad}", "--alphabet", "{mixed4}"],
             "ForeignLetterError:"),
            ('{"letters": 5, "parity": [0]}', ["tableau-of-word", "--word", "1", "--alphabet", "{bad}"],
             "AlphabetError:"),
            ("[" * 100000 + "]" * 100000, ["tableau-of-word", "--word", "1", "--alphabet", "{bad}"],
             "invalid JSON input"),
        ],
        ids=["array-list-letter", "array-int-rows", "tableau-list-letter-validate",
             "tableau-list-letter-delete", "tableau-list-letter-word", "alphabet-int-letters",
             "nested-100k-deep"],
    )
    def test_malformed_json_content_exit_one(self, files, capsys, text, args, error):
        bad = files["dir"] / "malformed.json"
        bad.write_text(text)
        code, _, err = run_cli([a.format(bad=bad, **files) for a in args], capsys)
        assert code == 1
        assert err.startswith(error)
        assert "Traceback" not in err

    def test_unencodable_letter_exit_one(self, files, capsys):
        # capsys encodes its capture as UTF-8, which a lone surrogate fails.
        alphabet = files["dir"] / "surrogate.json"
        alphabet.write_text(json.dumps({"letters": ["\ud800"], "parity": [0]}))
        tableau = files["dir"] / "surrogate_tableau.json"
        tableau.write_text(json.dumps({"rows": [["\ud800"]]}))
        args = ["word-of-tableau", "--tableau", str(tableau), "--alphabet", str(alphabet)]
        code, out, err = run_cli(args, capsys)
        assert (code, out) == (1, "")
        assert err.startswith("UnicodeEncodeError:") and err.count("\n") == 1
        code, out, _ = run_cli(args + ["--json"], capsys)
        assert code == 0
        assert json.loads(out) == {"word": ["\ud800"]}

    def test_undecodable_file_exit_one(self, files, capsys):
        bad = files["dir"] / "utf16.json"
        bad.write_bytes(json.dumps({"letters": ["1"], "parity": [0]}).encode("utf-16"))
        code, out, err = run_cli(["tableau-of-word", "--word", "1", "--alphabet", str(bad)], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("UnicodeDecodeError:") and err.count("\n") == 1

    def test_usage_mentions_program_name(self, files, capsys):
        code, _, err = run_cli(["validate", "--alphabet", files["mixed4"]], capsys)
        assert code == 2
        assert "superplactic" in err


# Golden transcript: tests/cli_transcript.json holds stdout, stderr and the
# exit code of every README command example, in text and with --json, and of
# the domain errors; the exit code of the usage errors; and each command's
# help and option declarations.  It was written by `_transcript` before the
# command bodies were rewritten, and any change to it is a change of the
# CLI's output.  Regenerate with `PYTHONPATH=src python tests/test_cli.py`
# only when that change is meant.
_GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_transcript.json")

_MIXED4 = {"letters": ["1", "2", "3", "4"], "parity": [0, 0, 1, 1]}
_GOLDEN_FILES = {
    "a.json": _MIXED4,
    "l.json": _MIXED4,
    "p.json": _MIXED4,
    "t.json": {"shape": [3, 1], "rows": [["1", "3", "4"], ["2"]]},
    "u.json": {"shape": [3, 1], "rows": [["1", "2", "3"], ["4"]]},
    "s.json": {"top": ["3", "4", "1", "2"], "bottom": ["1", "2", "3", "4"]},
    "bad_t.json": {"shape": [2], "rows": [["3", "3"]]},
    "bad_s.json": {"top": ["2", "1"], "bottom": ["1", "1"]},
}
_GOLDEN_TEXTS = {"oops.json": "{oops", "deep.json": "[" * 100000 + "]" * 100000}

_A = ["--alphabet", "{dir}/a.json"]
_LP = ["--alphabet-l", "{dir}/l.json", "--alphabet-p", "{dir}/p.json"]
# Run in text and with --json; every output is compared.
_GOLDEN_CASES = [
    ["validate", "--tableau", "{dir}/t.json"] + _A,
    ["validate", "--array", "{dir}/s.json"] + _LP,
    ["insert", "--mode", "row", "--tableau", "{dir}/t.json", "--letters", "1,3"] + _A,
    ["insert", "--mode", "col", "--tableau", "{dir}/t.json", "--letters", "2,1,4"] + _A,
    ["delete", "--mode", "col", "--index", "2", "--tableau", "{dir}/t.json"] + _A,
    ["delete", "--mode", "col", "--index", "3", "--tableau", "{dir}/t.json"] + _A,
    ["delete", "--mode", "row", "--index", "2", "--tableau", "{dir}/t.json"] + _A,
    ["delete", "--index", "5", "--tableau", "{dir}/t.json"] + _A,
    ["tableau-of-word", "--word", "2,1,1"] + _A,
    ["tableau-of-word", "--word", ""] + _A,
    ["word-of-tableau", "--tableau", "{dir}/t.json"] + _A,
    ["normal-form", "--word", "2,1,1"] + _A,
    ["class", "--word", "2,1,1"] + _A,
    ["class", "--word", "2,1,3,1", "--limit", "2", "--max-len", "4"] + _A,
    ["class", "--word", "2,1,1", "--limit", "0"] + _A,
    ["class", "--word", "2,1,1,3", "--max-len", "3"] + _A,
    ["greene", "--word", "1,2,2,3", "--k", "2", "--mode", "row"] + _A,
    ["greene", "--word", "1,2,2,3", "--k", "2", "--mode", "col"] + _A,
    ["greene", "--word", "1,2,2,3", "--k", "2", "--mode", "shape"] + _A,
    ["greene", "--word", "1,2,3,4,1,2,3,4,1,2,3", "--k", "2"] + _A,
    ["rsk", "--array", "{dir}/s.json"] + _LP,
    ["rsk-inverse", "--t", "{dir}/t.json", "--u", "{dir}/u.json"] + _LP,
    ["symmetry", "--array", "{dir}/s.json"] + _LP,
    ["probe", "--max-cols", "2", "--out", "{dir}/records.jsonl"] + _LP,
    ["pieri", "--shape", "2,1", "--p", "2", "--mode", "row"] + _A,
    ["pieri", "--shape", "2,1", "--p", "2", "--mode", "col"] + _A,
    ["pieri", "--shape", "", "--p", "0"] + _A,
    ["pieri", "--shape", "6,5", "--p", "2"] + _A,
    ["validate", "--tableau", "{dir}/bad_t.json"] + _A,
    ["validate", "--array", "{dir}/bad_s.json"] + _LP,
    ["tableau-of-word", "--word", "9"] + _A,
    ["tableau-of-word", "--word", "1", "--alphabet", "{dir}/oops.json"],
    ["tableau-of-word", "--word", "1", "--alphabet", "{dir}/deep.json"],
]
# Only the exit code is compared: click words usage errors differently
# between versions.
_GOLDEN_USAGE_CASES = [
    ["nosuch"],
    ["validate"] + _A,
    ["validate", "--tableau", "{dir}/t.json", "--array", "{dir}/s.json"] + _A,
    ["validate", "--tableau", "{dir}/t.json"],
    ["validate", "--array", "{dir}/s.json", "--alphabet-l", "{dir}/l.json"],
    ["tableau-of-word", "--word", "1", "--alphabet", "{dir}/missing.json"],
    ["tableau-of-word"] + _A,
    ["insert", "--mode", "diag", "--tableau", "{dir}/t.json", "--letters", "1"] + _A,
    ["greene", "--word", "1,2", "--k", "0"] + _A,
    ["class", "--word", "1", "--limit", "-1"] + _A,
    ["pieri", "--shape", "2,1", "--p", "-1"] + _A,
    ["pieri", "--shape", "x", "--p", "1"] + _A,
    ["probe", "--max-cols", "-1", "--out", "{dir}/records.jsonl"] + _LP,
    ["rsk", "--array", "{dir}/s.json", "--bogus"] + _LP,
]


def _declarations():
    """Each command's help and, per option, its names, help and whether it is
    required; `--json` must come last, just before click's `--help`."""
    out = {}
    for name, command in sorted(cli.commands.items()):
        params = command.get_params(click.Context(command))
        assert [p.name for p in params[-2:]] == ["as_json", "help"], name
        out[name] = {
            "help": inspect.cleandoc(command.help or ""),
            "params": [[p.opts + p.secondary_opts, p.help, p.required] for p in params[:-1]],
        }
    return out


def _transcript(tmp):
    """The golden record, with the temporary directory written as {dir}."""
    for name, obj in _GOLDEN_FILES.items():
        with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
    for name, text in _GOLDEN_TEXTS.items():
        with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
            fh.write(text)

    def run(args):
        code, out, err = _run_in_process([a.format(dir=tmp) for a in args])
        return code, out.replace(tmp, "{dir}"), err.replace(tmp, "{dir}")

    records = os.path.join(tmp, "records.jsonl")
    outputs = []
    for args in _GOLDEN_CASES:
        for extra in ([], ["--json"]):
            code, out, err = run(args + extra)
            outputs.append({"args": args + extra, "exit": code, "stdout": out, "stderr": err})
            if os.path.exists(records):
                with open(records, encoding="utf-8") as fh:
                    outputs[-1]["records"] = fh.read()
                os.remove(records)
    usage = [{"args": args, "exit": run(args)[0]} for args in _GOLDEN_USAGE_CASES]
    return {"outputs": outputs, "usage_errors": usage, "commands": _declarations()}


def test_golden_transcript(tmp_path):
    with open(_GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    got = _transcript(str(tmp_path))
    assert got["commands"] == golden["commands"]
    assert got["usage_errors"] == golden["usage_errors"]
    assert len(got["outputs"]) == len(golden["outputs"])
    for have, want in zip(got["outputs"], golden["outputs"]):
        assert have == want


class TestDeterminism:
    def test_same_bytes_on_repeat(self, files, capsys):
        args = [
            "rsk",
            "--array",
            files["array"],
            "--alphabet-l",
            files["split24"],
            "--alphabet-p",
            files["split24"],
            "--json",
        ]
        first = run_cli(args, capsys)
        second = run_cli(args, capsys)
        assert first == second


# Random JSON documents: any JSON value, or one shaped like the expected
# file with random fields.
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(allow_nan=False) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
_letters = st.sampled_from(["1", "2", "3", "4"]) | _json_values
_alphabets = _json_values | st.fixed_dictionaries({
    "letters": st.lists(st.sampled_from(["1", "2", "3", "4"]) | st.text(max_size=2), max_size=4) | _json_values,
    "parity": st.lists(st.sampled_from([0, 1]) | _json_values, max_size=4) | _json_values,
})
_tableaux = _json_values | st.fixed_dictionaries(
    {"rows": st.lists(st.lists(_letters, max_size=3), max_size=3) | _json_values},
    optional={"shape": st.lists(st.integers(-1, 3), max_size=3) | _json_values},
)
_arrays = _json_values | st.fixed_dictionaries({
    "top": st.lists(_letters, max_size=4) | _json_values,
    "bottom": st.lists(_letters, max_size=4) | _json_values,
})


def _run_in_process(args):
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main(args)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 0
    return code, out.getvalue(), err.getvalue()


@settings(deadline=None, max_examples=60)
@given(
    alphabet_l=_alphabets,
    alphabet_p=_alphabets,
    t=_tableaux,
    u=_tableaux,
    array=_arrays,
    word=st.text(alphabet="1234x, ", max_size=6),
    number=st.integers(-1, 3),
    shape=st.text(alphabet="0123,x", max_size=4),
)
def test_random_json_never_gives_a_traceback(alphabet_l, alphabet_p, t, u, array, word, number, shape):
    """Every command on random JSON files exits 0, 1 or 2 with no traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, obj in (("l", alphabet_l), ("p", alphabet_p), ("t", t), ("u", u), ("s", array)):
            paths[name] = os.path.join(tmp, name + ".json")
            with open(paths[name], "w", encoding="utf-8") as fh:
                json.dump(obj, fh)
        n = str(number)
        l, p = ["--alphabet", paths["l"]], ["--alphabet-l", paths["l"], "--alphabet-p", paths["p"]]
        commands = [
            ["validate", "--tableau", paths["t"]] + l,
            ["validate", "--array", paths["s"]] + p,
            ["insert", "--tableau", paths["t"], "--letters", word] + l,
            ["insert", "--mode", "col", "--tableau", paths["t"], "--letters", word] + l,
            ["delete", "--index", n, "--tableau", paths["t"]] + l,
            ["delete", "--mode", "col", "--index", n, "--tableau", paths["t"]] + l,
            ["tableau-of-word", "--word", word] + l,
            ["word-of-tableau", "--tableau", paths["t"]] + l,
            ["normal-form", "--word", word] + l,
            ["class", "--word", word, "--limit", n] + l,
            ["greene", "--word", word, "--k", n] + l,
            ["greene", "--word", word, "--k", n, "--mode", "shape"] + l,
            ["rsk", "--array", paths["s"]] + p,
            ["rsk-inverse", "--t", paths["t"], "--u", paths["u"]] + p,
            ["symmetry", "--array", paths["s"]] + p,
            ["probe", "--max-cols", n, "--out", os.path.join(tmp, "records.jsonl")] + p,
            ["pieri", "--shape", shape, "--p", n] + l,
            ["pieri", "--shape", shape, "--p", n, "--mode", "col"] + l,
        ]
        for args in commands:
            for extra in ([], ["--json"]):
                code, _, err = _run_in_process(args + extra)
                assert code in (0, 1, 2), (args, code, err)
                assert "Traceback" not in err, (args, err)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        record = _transcript(tmp)
    with open(_GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
