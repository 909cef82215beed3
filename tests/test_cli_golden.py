"""The CLI's output, byte for byte, against a recording.

Each family below is a rule for a list of requests: one command on every
form of a few small spaces, each verify command at every size that finishes
in under 1 s, the sporadic tables, the README's budget refusals and input
errors, and the help texts.  A request runs cli.main(argv) in this process,
with METRIC_AFFINE_BUDGET unset unless the request sets it and COLUMNS=80,
and its answer is (stdout, stderr, exit code) with the path of each form
file replaced by a placeholder.  cli_golden.json holds, per family, the
SHA-256 of its answers in order and the answers themselves, zlib-compressed
and base64-coded, all recorded at one commit.

Tier-1 runs every SHARE-th request of each family, the first included.
`pytest -m golden` runs the whole corpus and compares each family's digest.
A mismatch names the family and prints the first request whose answer
differs, with the recorded and the new answer.  After an intended change of
output, record again with

    PYTHONPATH=src python tests/test_cli_golden.py

and name each family whose digest changed in CHANGES.md, with the reason.
The help family holds argparse's own wording, which can differ between
Python versions; the recording was made under Python 3.11.
"""

import base64
import contextlib
import hashlib
import io
import itertools
import json
import os
import zlib
from pathlib import Path
from typing import NamedTuple

import pytest

from metric_affine import cli

RECORDING = Path(__file__).with_name("cli_golden.json")
SHARE = 7           # odd, so the share meets both sides of an alternation
FORM, LIFTED = "<FORM>", "<LIFTED>"     # placeholders of the form files
ORDERS = {"GF(2)": 2, "GF(3)": 3, "GF(4)": 4, "GF(5)": 5, "GF(7)": 7}
FORMATS = {"text": (), "records": ("--format", "records")}
BIG = "10000000"                        # the hard ceiling as --budget


class Request(NamedTuple):
    argv: tuple             # FORM stands for the path of the form file
    form: str = None        # the form file's text; None: no file there
    env: tuple = ()         # (variable, value) pairs set for the request
    then_drop: bool = False  # a lift whose result is dropped again


def _short(field):
    return field.replace("(", "").replace(")", "")


def _form(field, n, upper):
    return json.dumps({"dim": n, "field": field, "upper": list(upper)}) + "\n"


# --- the families ------------------------------------------------------------

# every form of these spaces, by command; "lift-drop" drops each lift again
FORM_SPACES = [("GF(2)", 1), ("GF(2)", 2), ("GF(2)", 3), ("GF(3)", 1),
               ("GF(3)", 2), ("GF(4)", 1), ("GF(4)", 2), ("GF(5)", 1),
               ("GF(5)", 2), ("GF(7)", 1)]
FORM_COMMANDS = {
    "groups": lambda n: ("groups", FORM),
    "lift-drop": lambda n: ("lift", FORM),
    "eval": lambda n: ("eval", FORM, ",".join(["1"] * n)),   # all ones
    "verify-quadric": lambda n: ("verify", "quadric", FORM),
}

# verify commands: dims 0..7 of every field, at the default budget and at
# the ceiling, but for the sizes that take 1 s or more in a fresh process
VERIFY_COMMANDS = ("lemmas", "proposition", "theorem", "projective")
SLOW = {("lemmas", "GF(2)", 5, None), ("lemmas", "GF(2)", 5, BIG),
        ("lemmas", "GF(3)", 4, None), ("lemmas", "GF(3)", 4, BIG),
        ("lemmas", "GF(4)", 3, None), ("lemmas", "GF(4)", 3, BIG),
        ("lemmas", "GF(5)", 3, None), ("lemmas", "GF(5)", 3, BIG),
        ("theorem", "GF(2)", 4, BIG), ("projective", "GF(2)", 4, BIG),
        ("projective", "GF(5)", 2, BIG)}

SEVEN = _form("GF(7)", 2, (1, 0, 1))
PLANE = _form("GF(3)", 2, (1, 0, 1))
LINE = _form("GF(3)", 1, (1,))
RATIONAL = '{"dim": 2, "field": "Q", "upper": ["1/2", 0, 1]}\n'
RATIONAL_LINE = '{"dim": 1, "field": "Q", "upper": ["-7/2"]}\n'

# the README's budget refusals, each from the paragraph that names it
REFUSALS = [
    Request(("--budget", "5", "groups", FORM), SEVEN),
    Request(("groups", FORM), SEVEN, (("METRIC_AFFINE_BUDGET", "5"),)),
    Request(("groups", FORM), _form("GF(5)", 3, (1, 0, 0, 1, 0, 1))),
    Request(("verify", "theorem", "--field", "2", "--dim", "7")),
    Request(("verify", "projective", "--field", "2", "--dim", "7")),
    Request(("verify", "proposition", "--field", "2", "--dim", "6")),
    Request(("--budget", BIG, "verify", "proposition", "--field", "2",
             "--dim", "5")),
    Request(("verify", "proposition", "--field", "3", "--dim", "3")),
    Request(("verify", "lemmas", "--field", "3", "--dim", "5")),
    Request(("verify", "lemmas", "--field", "2", "--dim", "7")),
    Request(("--budget", BIG, "verify", "lemmas", "--field", "7", "--dim",
             "3")),
    Request(("verify", "quadric", FORM), _form("GF(3)", 14, [1] * 105)),
    Request(("verify", "quadric", FORM), _form("GF(3)", 9, [1] * 45)),
]

# the README's input errors: form files, VECTOR spellings, out-of-scope
# forms, flags and the budget variable
SPELLINGS = ["1_0", "+1", "٣", "0x1", "1e3", "1.5", "1/0", "1/-2"]
INPUT_ERRORS = (
    [Request(("lift", FORM)), Request(("lift", FORM), "{not json"),
     Request(("lift", FORM), ""), Request(("lift", FORM), "# only a note\n"),
     Request(("lift", FORM), "[1]\n"), Request(("lift", FORM), '{"dim": 1}'),
     Request(("lift", FORM), '{"dim": 2, "field": "GF(3)", "upper": [1]}')]
    + [Request(("eval", FORM, "1"), text) for text in (
        '{"dim": 1, "field": 3, "upper": [1]}',
        '{"dim": 1, "field": null, "upper": [1]}',
        '{"dim": 1, "field": "6", "upper": [1]}',
        '{"dim": 1, "field": "GF(8)", "upper": [1]}',
        '{"dim": true, "field": "GF(3)", "upper": [1]}',
        '{"dim": -1, "field": "GF(3)", "upper": []}',
        '{"dim": 1.0, "field": "GF(3)", "upper": [1]}',
        '{"dim": 1, "field": "GF(3)", "upper": [1.5]}',
        '{"dim": 1, "field": "GF(3)", "upper": [1.0]}',
        '{"dim": 1, "field": "GF(5)", "upper": ["2"]}',
        '{"dim": 1, "field": "GF(2)", "upper": [true]}',
        '{"dim": 1, "field": "GF(4)", "upper": [false]}',
        '{"dim": 1, "field": "GF(4)", "upper": [2.0]}',
        '{"dim": 1, "field": "GF(4)", "upper": [4]}',
        '{"dim": 1, "field": "GF(4)", "upper": [-1]}',
        '{"dim": 1, "field": "Q", "upper": [true]}')]
    + [Request(("eval", FORM, "1"), '{"dim": 1, "field": "Q", "upper": [%s]}'
               % json.dumps(c)) for c in SPELLINGS + [" 1/2 "]]
    + [Request(("eval", FORM, v), PLANE) for v in (
        "2,,1", "2,1,", ",2,1", "1, ,1", ",", "[2,1)", "(2,1", "2,1)",
        "((2,1))", "(1),(1)", "()", "", "1", "1,1,1")]
    + [Request(("eval", FORM, v), form) for form in (LINE, RATIONAL_LINE)
       for v in SPELLINGS]
    + [Request(("eval", FORM) + extra, PLANE) for extra in (
        (), ("1", "2"), ("1,2", "--format", "records"))]
    + [Request(("groups", FORM), RATIONAL),
       Request(("verify", "quadric", FORM), RATIONAL),
       Request(("verify", "quadric", FORM), _form("GF(2)", 2, (1, 1, 1))),
       Request(("verify", "quadric", FORM), LINE),
       Request(("verify", "quadric", FORM), _form("GF(3)", 2, (1, 0, 0))),
       Request(("lift", FORM), _form("GF(3)", 2, (1, 0, 0))),
       Request(("drop", FORM), PLANE),
       Request(("drop", FORM), _form("GF(3)", 2, (0, 1, 0))),
       Request(("drop", FORM), _form("GF(3)", 0, ())),
       Request(("groups", FORM), PLANE, (("METRIC_AFFINE_BUDGET", "abc"),)),
       Request(("groups", FORM), PLANE, (("METRIC_AFFINE_BUDGET", "1.5"),))]
    + [Request(("verify", cmd) + flags) for cmd in VERIFY_COMMANDS
       for flags in (("--field", "6", "--dim", "1"),
                     ("--field", "Q", "--dim", "1"),
                     ("--field", "3", "--dim", "-1"),
                     ("--field", "3", "--dim", "x"),
                     ("--field", "3"), ("--dim", "1"))]
    + [Request(argv) for argv in (
        (), ("frobnicate",), ("verify",), ("verify", "tables"),
        ("verify", "tables", "--case", "t5"), ("--format", "json", "verify"),
        ("--budget", "abc", "verify"))])

HELP = [("-h",)] + [(cmd, "-h") for cmd in (
    "lift", "drop", "eval", "groups", "verify")] + [
    ("verify", cmd, "-h") for cmd in VERIFY_COMMANDS + ("tables", "quadric")]


def _families():
    """Family name -> its requests, in order.  A name is a path such as
    groups/GF3/dim2/text, which pytest -k takes as it is."""
    out = {}
    for fmt, flags in FORMATS.items():
        for (field, n), (name, argv) in itertools.product(
                FORM_SPACES, FORM_COMMANDS.items()):
            out["%s/%s/dim%d/%s" % (name, _short(field), n, fmt)] = [
                Request(flags + argv(n), _form(field, n, upper),
                        then_drop=name == "lift-drop")
                for upper in itertools.product(range(ORDERS[field]),
                                               repeat=n * (n + 1) // 2)]
        for cmd, field in itertools.product(VERIFY_COMMANDS, ORDERS):
            out["verify-%s/%s/%s" % (cmd, _short(field), fmt)] = [
                Request(flags + (("--budget", budget) if budget else ())
                        + verbose + ("verify", cmd, "--field", field,
                                     "--dim", str(n)))
                for n in range(8) for budget in (None, BIG)
                for verbose in (((), ("-v",)) if cmd == "theorem" else ((),))
                if (cmd, field, n, budget) not in SLOW]
        out["verify-tables/%s" % fmt] = [
            Request(flags + ("verify", "tables", "--case", case))
            for case in sorted(cli._TABLE_CASES)]
        out["budget-refusals/%s" % fmt] = [
            r._replace(argv=flags + r.argv) for r in REFUSALS]
        out["input-errors/%s" % fmt] = [
            r._replace(argv=flags + r.argv) for r in INPUT_ERRORS]
    out["help"] = [Request(argv) for argv in HELP]
    return out


FAMILIES = _families()


# --- running and comparing ---------------------------------------------------

@contextlib.contextmanager
def _environment(pairs):
    """The process environment with METRIC_AFFINE_BUDGET unset, COLUMNS=80
    (argparse wraps help to it) and the pairs set, restored afterwards."""
    saved = {var: os.environ.pop(var, None) for var in
             ("METRIC_AFFINE_BUDGET", "COLUMNS") + tuple(dict(pairs))}
    os.environ.update((("COLUMNS", "80"),) + pairs)
    try:
        yield
    finally:
        for var, value in saved.items():
            os.environ.pop(var, None)
            if value is not None:
                os.environ[var] = value


def _run(argv, env, paths):
    """[stdout, stderr, exit code] of cli.main(argv), with the placeholders
    in argv swapped for the paths, and back in the output."""
    out, err = io.StringIO(), io.StringIO()
    with _environment(env), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        try:
            code = cli.main([paths.get(a, a) for a in argv])
        except SystemExit as e:         # argparse, on -h and usage errors
            code = e.code
    text = [out.getvalue(), err.getvalue()]
    for mark, path in paths.items():
        text = [s.replace(path, mark) for s in text]
    return text + [code]


def _lifted(stdout):
    """The form file that a lift printed last: its text line, or the result
    of its record."""
    last = json.loads(stdout.splitlines()[-1])
    rec = last.get("result", last)
    return _form(rec["field"], rec["dim"], rec["upper"])


def answer(req, tmp):
    """The request's runs, each [stdout, stderr, exit code]: the command,
    and for a lift that succeeds the drop of its result."""
    paths = {FORM: str(tmp / "in.form"), LIFTED: str(tmp / "lifted.form")}
    for path in paths.values():
        Path(path).unlink(missing_ok=True)
    if req.form is not None:
        Path(paths[FORM]).write_text(req.form, encoding="utf-8")
    runs = [_run(req.argv, req.env, paths)]
    if req.then_drop and runs[0][2] == cli.EXIT_PASS:
        Path(paths[LIFTED]).write_text(_lifted(runs[0][0]), encoding="utf-8")
        runs.append(_run(req.argv[:-2] + ("drop", LIFTED), req.env, paths))
    return runs


def digest(answers):
    h = hashlib.sha256()
    for runs in answers:
        h.update(json.dumps(runs).encode() + b"\n")
    return h.hexdigest()


def _pack(answers):
    return base64.b64encode(zlib.compress(
        json.dumps(answers).encode(), 9)).decode()


def _unpack(packed):
    return json.loads(zlib.decompress(base64.b64decode(packed)))


def _show(runs):
    return "\n".join("exit %s\n--- stdout\n%s--- stderr\n%s" % (code, out, err)
                     for out, err, code in runs)


def _mismatch(name, i, want, got):
    req = FAMILIES[name][i]
    return ("family %r, request %d of %d: %s%s%s\n=== recorded\n%s\n=== now\n%s"
            % (name, i + 1, len(FAMILIES[name]), " ".join(req.argv),
               "".join("\n  %s=%s" % pair for pair in req.env),
               "\n  %s: %s" % (FORM, req.form.rstrip())
               if req.form is not None else "", _show(want), _show(got)))


RECORDED = (json.loads(RECORDING.read_text(encoding="utf-8"))["families"]
            if RECORDING.exists() else {})      # absent while first recorded


def test_recording_holds_every_family_once():
    # each family's answers are those its digest was taken of, one per
    # request its rule gives today
    assert sorted(RECORDED) == sorted(FAMILIES)
    for name, rec in RECORDED.items():
        answers = _unpack(rec["answers"])
        assert len(answers) == rec["requests"] == len(FAMILIES[name]), name
        assert digest(answers) == rec["sha256"], name


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_share_of_family_matches_recording(name, tmp_path):
    want = _unpack(RECORDED[name]["answers"])
    for i in range(0, len(FAMILIES[name]), SHARE):
        got = answer(FAMILIES[name][i], tmp_path)
        if got != want[i]:
            pytest.fail(_mismatch(name, i, want[i], got), pytrace=False)


@pytest.mark.golden
def test_corpus_matches_recording(request, tmp_path):
    if "golden" not in request.config.getoption("markexpr"):
        pytest.skip("the whole corpus runs under -m golden")
    failed = []
    for name, requests in FAMILIES.items():
        got = [answer(req, tmp_path) for req in requests]
        if digest(got) != RECORDED[name]["sha256"]:
            want = _unpack(RECORDED[name]["answers"])
            i = next(i for i, runs in enumerate(got) if runs != want[i])
            failed.append(_mismatch(name, i, want[i], got[i]))
    if failed:
        pytest.fail("\n\n".join(failed), pytrace=False)


if __name__ == "__main__":
    import tempfile
    families = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, requests in FAMILIES.items():
            got = [answer(req, Path(tmp)) for req in requests]
            families[name] = {"requests": len(got), "sha256": digest(got),
                              "answers": _pack(got)}
    RECORDING.write_text(json.dumps({"families": families}, indent=1,
                                    sort_keys=True) + "\n", encoding="utf-8")
    print("%d families, %d requests -> %s" % (
        len(families), sum(map(len, FAMILIES.values())), RECORDING))
