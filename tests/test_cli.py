"""End-to-end command-line behaviour, driven through main(argv) in-process."""

import ast
import json
import os

import pytest

from metric_affine import classify, cli, transvect
from metric_affine.budget import InvariantViolation, order_gl
from metric_affine.classify import SUPPORTED_TABLES
from metric_affine.cli import (EXIT_BUDGET, EXIT_FAIL, EXIT_INPUT, EXIT_PASS,
                               _TABLE_CASES, main)
from metric_affine.fields import GF2, GF3
from metric_affine.groups import orthogonal_group
from metric_affine.quadform import QForm

FORM_GF3_LINE = '{"dim": 1, "field": "GF(3)", "upper": [1]}\n'
FORM_GF3_PLANE = '{"dim": 2, "field": "GF(3)", "upper": [1, 0, 1]}\n'
FORM_DEGENERATE = '{"dim": 2, "field": "GF(3)", "upper": [1, 0, 0]}\n'
FORM_RATIONAL = '{"dim": 2, "field": "Q", "upper": ["1/2", 0, 1]}\n'
FORM_GF5_HYPERBOLIC = '{"dim": 2, "field": "GF(5)", "upper": [1, 0, 4]}\n'


@pytest.fixture
def form_file(tmp_path):
    def write(text, name="in.form"):
        p = tmp_path / name
        p.write_text(text, encoding="utf-8")
        return str(p)
    return write


def test_lift_frozen_output(form_file, capsys):
    assert main(["lift", form_file(FORM_GF3_LINE)]) == EXIT_PASS
    assert capsys.readouterr().out == (
        "# input: x1^2 [GF(3), dim 1]\n"
        "# canonical matrix of the lift:\n"
        "# [0 0]\n"
        "# [0 1]\n"
        "# a1^2\n"
        '{"dim": 2, "field": "GF(3)", "upper": [0, 0, 1]}\n')


def test_lift_output_is_itself_a_form_file(form_file, capsys, tmp_path):
    main(["lift", form_file(FORM_GF3_LINE)])
    lifted = tmp_path / "lifted.form"
    lifted.write_text(capsys.readouterr().out, encoding="utf-8")
    # comments pass through the reader, so drop gets back the original
    assert main(["drop", str(lifted)]) == EXIT_PASS
    out = capsys.readouterr().out
    assert out.endswith(FORM_GF3_LINE)
    assert "# input: a1^2 [GF(3), dim 2]" in out


def test_lift_then_drop_round_trips_rational(form_file, capsys, tmp_path):
    main(["lift", form_file(FORM_RATIONAL)])
    lifted = tmp_path / "lifted.form"
    lifted.write_text(capsys.readouterr().out, encoding="utf-8")
    assert main(["drop", str(lifted)]) == EXIT_PASS
    assert capsys.readouterr().out.endswith(FORM_RATIONAL)


def test_lift_degenerate_names_the_radical(form_file, capsys):
    assert main(["lift", form_file(FORM_DEGENERATE)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "degenerate" in err and "(0, 1)" in err


def test_drop_rejects_undroppable(form_file, capsys):
    assert main(["drop", form_file(FORM_GF3_PLANE)]) == EXIT_INPUT
    assert "cannot be dropped" in capsys.readouterr().err


def test_drop_dimension_zero_is_input_error(form_file, capsys):
    form = '{"field": "GF(3)", "dim": 0, "upper": []}\n'
    assert main(["drop", form_file(form)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("input error: 0 cannot be dropped "
                            "(radical-not-distinguished-line)\n")


def test_eval(form_file, capsys):
    assert main(["eval", form_file(FORM_GF3_LINE), "2"]) == EXIT_PASS
    assert capsys.readouterr().out.endswith("Q(2) = 1\n")
    assert main(["eval", form_file(FORM_RATIONAL), "1/3,2"]) == EXIT_PASS
    assert capsys.readouterr().out.endswith("Q(1/3, 2) = 73/18\n")


def test_eval_wrong_arity(form_file, capsys):
    assert main(["eval", form_file(FORM_GF3_PLANE), "1"]) == EXIT_INPUT
    assert "expected 2 coordinates" in capsys.readouterr().err


FORM_GF3_SPACE = '{"dim": 3, "field": "GF(3)", "upper": [1, 0, 0, 1, 0, 1]}\n'
FORM_GF3_POINT = '{"dim": 0, "field": "GF(3)", "upper": []}\n'


@pytest.mark.parametrize("vector", ["1,2", "(1,2)", "[1,2]", " ( 1 , 2 ) ",
                                    "[ 1,2 ]"])
def test_eval_vector_syntax(form_file, capsys, vector):
    # comma-separated coordinates, optionally in one matching pair of
    # brackets, as the README documents
    assert main(["eval", form_file(FORM_GF3_PLANE), vector]) == EXIT_PASS
    assert capsys.readouterr().out == ("# form: x1^2 + x2^2 [GF(3), dim 2]\n"
                                       "Q(1, 2) = 2\n")


@pytest.mark.parametrize("vector", ["", "()", "[]", " ( ) "])
def test_eval_dimension_zero_takes_the_empty_vector(form_file, capsys,
                                                    vector):
    assert main(["eval", form_file(FORM_GF3_POINT), vector]) == EXIT_PASS
    assert capsys.readouterr().out.endswith("Q() = 0\n")


FORM_RATIONAL_LINE = '{"dim": 1, "field": "Q", "upper": ["-7/2"]}\n'
# spellings that int() or Fraction() read but the README does not document;
# the last costs seconds to parse as a Fraction
REFUSED_SPELLINGS = ["1_0", "+1", "\u0663", "1e3", "1.5", "0x1", "1/-2",
                     "1e10000000"]


@pytest.mark.parametrize("form,vector", [
    (FORM_GF3_PLANE, "1,,2"), (FORM_GF3_PLANE, "1,1,"),
    (FORM_GF3_PLANE, ",1,1"), (FORM_GF3_PLANE, "1, ,1"),
    (FORM_GF3_SPACE, "1,,2"), (FORM_GF3_SPACE, "1,1,"),
    (FORM_GF3_SPACE, ",1,1"), (FORM_GF3_PLANE, ","),
    (FORM_GF3_PLANE, "[1,1)"), (FORM_GF3_PLANE, "(1,1]"),
    (FORM_GF3_PLANE, "(1,1"), (FORM_GF3_PLANE, "1,1)"),
    (FORM_GF3_PLANE, "[1,1"), (FORM_GF3_PLANE, "((1,1))"),
    (FORM_GF3_PLANE, "(1),(1)"), (FORM_GF3_PLANE, "()"),
    (FORM_GF3_PLANE, ""), (FORM_RATIONAL, "1/2,,"), (FORM_RATIONAL, "(1/2,1"),
    (FORM_GF3_POINT, ","), (FORM_GF3_POINT, "("), (FORM_GF3_POINT, "[)"),
    (FORM_GF3_POINT, "(())"),
] + [(form, token) for form in (FORM_GF3_LINE, FORM_RATIONAL_LINE)
     for token in REFUSED_SPELLINGS + ["1/0"]])
def test_eval_rejects_malformed_vectors(form_file, capsys, form, vector):
    assert main(["eval", form_file(form), vector]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("form,vector,out", [
    (FORM_GF3_LINE, "-1", "Q(2) = 1"), (FORM_GF3_LINE, " 2 ", "Q(2) = 1"),
    (FORM_RATIONAL_LINE, "1/3", "Q(1/3) = -7/18"),
    (FORM_RATIONAL_LINE, "[-7/2]", "Q(-7/2) = -343/8")],
    ids=["GF(3)--1", "GF(3)- 2 ", "Q-1/3", "Q-[-7/2]"])
def test_eval_takes_the_documented_spellings(form_file, capsys, form, vector,
                                            out):
    # -7/2 in brackets; test_eval_takes_a_leading_minus has it alone
    assert main(["eval", form_file(form), vector]) == EXIT_PASS
    assert capsys.readouterr().out.endswith(out + "\n")


@pytest.mark.parametrize("form,vector,out", [
    (FORM_GF3_PLANE, "-1,2", "# form: x1^2 + x2^2 [GF(3), dim 2]\n"
                             "Q(2, 2) = 2\n"),
    (FORM_RATIONAL_LINE, "-7/2", "# form: -7/2*x1^2 [Q, dim 1]\n"
                                 "Q(-7/2) = -343/8\n")],
    ids=["GF(3)--1,2", "Q--7/2"])
def test_eval_takes_a_leading_minus(form_file, capsys, form, vector, out):
    # the argument after FORMFILE is the VECTOR, even when it starts with a
    # minus; after -- or in brackets it prints the same bytes
    path = form_file(form)
    for args in ([vector], ["--", vector], ["(%s)" % vector]):
        assert main(["eval", path] + args) == EXIT_PASS, args
        assert capsys.readouterr() == (out, ""), args


@pytest.mark.parametrize("args", [[], ["1", "2"], ["-1,2", "-7/2"],
                                  ["1,2", "--format", "records"]])
def test_eval_takes_exactly_one_vector(form_file, capsys, args):
    # every argument after FORMFILE is read as the VECTOR, so a missing or
    # extra one, a global option there among them, is an input error
    assert main(["eval", form_file(FORM_GF3_PLANE)] + args) == EXIT_INPUT
    assert capsys.readouterr() == (
        "", "input error: expected 1 vector, got %d\n" % len(args))


def test_eval_help_names_the_vector(capsys):
    with pytest.raises(SystemExit) as exited:
        main(["eval", "-h"])
    assert exited.value.code == 0
    # the usage line names VECTOR, as it did when it was a plain positional
    out = capsys.readouterr().out
    assert out.startswith("usage: metric-affine eval [-h] form_file vector\n")
    assert "  vector      coordinates, e.g. 1,0,2\n" in out


@pytest.mark.parametrize("command", ["eval", "lift", "drop"])
def test_zero_denominator_in_a_form_file_is_input_error(form_file, capsys,
                                                        command):
    path = form_file('{"dim": 1, "field": "Q", "upper": ["1/0"]}\n')
    argv = [command, path] + (["1"] if command == "eval" else [])
    assert main(argv) == EXIT_INPUT
    assert capsys.readouterr() == ("", "input error: %s: bad coefficient for "
                                   "Q: zero denominator in '1/0'\n" % path)


def test_groups_frozen_output(form_file, capsys):
    assert main(["groups", form_file(FORM_GF3_LINE)]) == EXIT_PASS
    assert capsys.readouterr().out == (
        "# form: x1^2 [GF(3), dim 1]\n"
        "|GL|: 2\n|O|: 2\n|O'|: 2\n"
        "radical dim: 0\n"
        "reflections: 2\n"
        "reflection closure order: 2\n"
        "reflections generate weak group: yes\n"
        "exceptional case: none\n")


# (upper, k, the upper coefficients of Q0 on GF(2)^k, text, record) for two
# forms on GF(2)^5, each Q0 of polar rank k plus zero on a radical of dim
# 5 - k.  GF(2)^5 runs at the hard ceiling: |GL_5(2)| = 9,999,360.
GF2_DIM5 = {
    "x1x2": ((0, 1) + (0,) * 13, 2, (0, 1, 0), (
        "# form: x1*x2 [GF(2), dim 5]\n"
        "|GL|: 9999360\n|O|: 21504\n|O'|: 128\n"
        "radical dim: 3\n"
        "reflections: 8\n"
        "reflection closure order: 16\n"
        "reflections generate weak group: no\n"
        "exceptional case: hyperbolic-plane-plus-radical\n"), (
        '{"closure_order": 16, "exceptional": '
        '"hyperbolic-plane-plus-radical", "form": {"dim": 5, "field": '
        '"GF(2)", "poly": "x1*x2", "upper": [0, 1, 0, 0, 0, 0, 0, 0, 0, 0, '
        '0, 0, 0, 0, 0]}, "generates": false, "gl_order": 9999360, '
        '"o_order": 21504, "ow_order": 128, "radical_dim": 3, "record": '
        '"groups", "reflections": 8}')),
    "x1x2+x3x4": ((0, 1) + (0,) * 8 + (1,) + (0,) * 4, 4,
                  (0, 1, 0, 0, 0, 0, 0, 0, 1, 0), (
        "# form: x1*x2 + x3*x4 [GF(2), dim 5]\n"
        "|GL|: 9999360\n|O|: 1152\n|O'|: 1152\n"
        "radical dim: 1\n"
        "reflections: 12\n"
        "reflection closure order: 576\n"
        "reflections generate weak group: no\n"
        "exceptional case: hyperbolic-pair\n"), (
        '{"closure_order": 576, "exceptional": "hyperbolic-pair", "form": '
        '{"dim": 5, "field": "GF(2)", "poly": "x1*x2 + x3*x4", "upper": '
        '[0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0]}, "generates": false, '
        '"gl_order": 9999360, "o_order": 1152, "ow_order": 1152, '
        '"radical_dim": 1, "record": "groups", "reflections": 12}')),
}


@pytest.mark.parametrize("name", sorted(GF2_DIM5))
def test_groups_at_gf2_dim5(name, form_file, capsys):
    # the orders meet the closed forms |O'| = |O(Q0)| 2^(k r) and
    # |O| = |O'| |GL_r(2)|, r = 5 - k: 128 and 21,504 for x1x2
    upper, k, q0, text, record = GF2_DIM5[name]
    path = form_file(json.dumps({"dim": 5, "field": "GF(2)",
                                 "upper": list(upper)}))
    argv = ["--budget", "10000000", "groups", path]
    assert main(argv) == EXIT_PASS
    assert capsys.readouterr() == (text, "")
    assert main(["--format", "records"] + argv) == EXIT_PASS
    assert capsys.readouterr() == (record + "\n", "")
    rec = json.loads(record)
    o_q0 = orthogonal_group(QForm.from_upper(GF2, k, q0)).order
    assert rec["ow_order"] == o_q0 * 2 ** (k * (5 - k))
    assert rec["o_order"] == rec["ow_order"] * order_gl(5 - k, 2)


def test_groups_rejects_rational_field(form_file, capsys):
    assert main(["groups", form_file(FORM_RATIONAL)]) == EXIT_INPUT
    assert "finite field" in capsys.readouterr().err


def test_bad_form_file_is_input_error(form_file, capsys):
    assert main(["lift", form_file("{not json")]) == EXIT_INPUT
    assert main(["lift", "/nonexistent/path.form"]) == EXIT_INPUT
    assert main(["lift", form_file(
        '{"dim": 2, "field": "GF(3)", "upper": [1]}')]) == EXIT_INPUT
    capsys.readouterr()


@pytest.mark.parametrize("field,name", [('"3"', "GF(3)"), ('"7"', "GF(7)"),
                                        ('"QQ"', "Q"), ('"rational"', "Q")])
def test_form_file_field_shorthands(form_file, capsys, field, name):
    text = '{"dim": 1, "field": %s, "upper": [1]}' % field
    assert main(["eval", form_file(text), "1"]) == EXIT_PASS
    assert capsys.readouterr().out == "# form: x1^2 [%s, dim 1]\nQ(1) = 1\n" % name


@pytest.mark.parametrize("field", ["3", "null", '"6"'])
def test_form_file_bad_field_is_input_error(form_file, capsys, field):
    text = '{"dim": 1, "field": %s, "upper": [1]}' % field
    assert main(["lift", form_file(text)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: ") and "field" in captured.err


@pytest.mark.parametrize("text", [
    '{"dim": true, "field": "GF(3)", "upper": [1]}',
    '{"dim": true, "field": "GF(3)", "upper": [1.5]}',
    '{"dim": 1, "field": "GF(3)", "upper": [1.5]}',
    '{"dim": 1, "field": "GF(3)", "upper": [1.0]}',
    '{"dim": 1, "field": "GF(5)", "upper": ["2"]}',
    '{"dim": 1, "field": "GF(2)", "upper": [true]}',
    '{"dim": 1, "field": "GF(4)", "upper": [false]}',
    '{"dim": 1, "field": "GF(4)", "upper": [2.0]}',
    '{"dim": 1, "field": "Q", "upper": [true]}',
] + ['{"dim": 1, "field": "Q", "upper": [%s]}' % json.dumps(coeff)
     for coeff in REFUSED_SPELLINGS + [" 1/2 ", "1/0"]])
def test_form_file_takes_only_documented_values(form_file, capsys, text):
    # booleans are not dimensions; finite-field coefficients are JSON ints,
    # rational ones are ints or strings spelt as the README gives them
    assert main(["eval", form_file(text), "1"]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("coeff", [2, 5, -1, 8, -4])
def test_prime_field_coefficients_are_read_mod_p(form_file, capsys, coeff):
    # over GF(p) any JSON int is a coefficient, read mod p
    text = '{"dim": 1, "field": "GF(3)", "upper": [%d]}' % coeff
    assert main(["eval", form_file(text), "1"]) == EXIT_PASS
    assert capsys.readouterr().out == "# form: 2*x1^2 [GF(3), dim 1]\nQ(1) = 2\n"


@pytest.mark.parametrize("coeff", [0, 1, 2, 3])
def test_gf4_coefficients_are_the_codes_0_to_3(form_file, capsys, coeff):
    text = '{"dim": 1, "field": "GF(4)", "upper": [%d]}' % coeff
    assert main(["eval", form_file(text), "1"]) == EXIT_PASS
    assert capsys.readouterr().out.endswith("Q(1) = %d\n" % coeff)


@pytest.mark.parametrize("coeff", [4, 5, -1])
def test_gf4_refuses_other_ints(form_file, capsys, coeff):
    path = form_file('{"dim": 1, "field": "GF(4)", "upper": [%d]}' % coeff)
    assert main(["eval", path, "1"]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("input error: %s: bad coefficient for GF(4): "
                            "GF(4) elements are coded 0..3, got %d\n"
                            % (path, coeff))


@pytest.mark.invariant
def test_verify_lemmas(form_file, capsys):
    assert main(["verify", "lemmas", "--field", "GF(2)", "--dim", "2"]) \
        == EXIT_PASS
    out = capsys.readouterr().out
    assert "direction cases: a=6 b=6 c=6 d=6" in out
    assert out.rstrip().endswith("PASS")


# two sizes past the exhaustive tests in tests/test_transvect.py, whose
# tallies the per-pair route there gives too
LEMMA_SWEEPS = {
    ("7", "2"): ("GF(7)", 16464, "a=14112 b=2016 c=0 d=336", 288),
    ("4", "3"): ("GF(4)", 258048, "a=181440 b=60480 c=12096 d=4032", 3024),
}


@pytest.mark.parametrize("field,dim", sorted(LEMMA_SWEEPS))
def test_verify_lemmas_frozen_tallies(capsys, field, dim):
    name, pairs, cases, inside = LEMMA_SWEEPS[field, dim]
    assert main(["verify", "lemmas", "--field", field, "--dim", dim]) \
        == EXIT_PASS
    assert capsys.readouterr().out == (
        "lemma sweep over %s, dim %s\n"
        "pairs (Q, f): %d\n"
        "direction cases: %s\n"
        "pairs with all annihilator transvections weak: %d\n"
        "scaled transvections outside weak group: verified\n"
        "PASS\n" % (name, dim, pairs, cases, inside))


def test_verify_lemmas_leaves_no_record_memoised(capsys, cold_memo):
    # the sweep takes each block's records from lemma_records and memoises
    # none, so it does not hold every record at once; one query afterwards
    # memoises its block in the lemma table, which names the key to miss
    assert main(["verify", "lemmas", "--field", "3", "--dim", "2"]) \
        == EXIT_PASS
    assert "_rank_one_maps" in {key[0] for key in cold_memo}
    assert ("_lemma_table", "GF(3)", 2) not in cold_memo
    transvect.classify_direction(QForm.from_upper(GF3, 2, (1, 0, 1)), (1, 0))
    assert ("_lemma_table", "GF(3)", 2) in cold_memo


def test_verify_proposition(capsys):
    assert main(["verify", "proposition", "--field", "3", "--dim", "1"]) \
        == EXIT_PASS
    out = capsys.readouterr().out
    assert "non-degenerate-polar forms: 2" in out
    assert out.rstrip().endswith("PASS")


def test_verify_theorem_exceptional_note(capsys):
    assert main(["verify", "theorem", "--field", "GF(3)", "--dim", "1"]) \
        == EXIT_PASS
    out = capsys.readouterr().out
    assert "note: sporadic size" in out


def test_verify_theorem_uniqueness_line(capsys):
    assert main(["verify", "theorem", "--field", "GF(4)", "--dim", "1"]) \
        == EXIT_PASS
    out = capsys.readouterr().out
    assert "every solution is a unit scaling of the lift: verified" in out
    assert "solution pairs: motion 0, weak 0" in out


def test_verify_theorem_verbose(capsys):
    # -v adds one line per left form to the text; records do not change
    argv = ["verify", "theorem", "--field", "GF(3)", "--dim", "1"]
    assert main(["-v"] + argv) == EXIT_PASS
    assert capsys.readouterr().out == (
        "# 0: motion 2, weak 0\n"
        "# x1^2: motion 2, weak 2\n"
        "# 2*x1^2: motion 2, weak 2\n"
        "solution sweep over GF(3), dim 1\n"
        "left forms: 3, candidates each: 27\n"
        "non-degenerate-polar left forms: 2\n"
        "forms with solutions: 3\n"
        "solution pairs: motion 6, weak 4\n"
        "note: sporadic size (see the tables); no uniqueness asserted here\n"
        "PASS\n")
    records = []
    for verbose in ([], ["-v"]):
        assert main(["--format", "records"] + verbose + argv) == EXIT_PASS
        records.append(capsys.readouterr().out)
    assert records[0] == records[1]
    assert json.loads(records[0])["pairs_weak"] == 4


# the full text that each case of `verify tables` prints
TABLE_TEXT = {
    "t1": [
        "table of sporadic solution pairs over GF(2), dim 0",
        " Q on V | Qt on F x V*",
        "--------+--------------",
        " 0      | 0",
        "        | a0^2",
        "row pairs (lift/drop): 1",
        "matches embedded fixture: yes",
        "PASS",
        "table of sporadic solution pairs over GF(4), dim 0",
        " Q on V | Qt on F x V*",
        "--------+--------------",
        " 0      | 0",
        "        | a0^2",
        "        | 2*a0^2",
        "        | 3*a0^2",
        "row pairs (lift/drop): 1",
        "matches embedded fixture: yes",
        "PASS",
    ],
    "t2": [
        "table of sporadic solution pairs over GF(2), dim 1",
        " Q on V | Qt on F x V*",
        "--------+--------------",
        "        | a0^2 + a0*a1",
        " 0      |",
        " x1^2   |",
        "row pairs (lift/drop): 0",
        "matches embedded fixture: yes",
        "PASS",
    ],
    "t3": [
        "table of sporadic solution pairs over GF(3), dim 1",
        " Q on V | Qt on F x V*",
        "--------+--------------",
        " x1^2   | a1^2",
        " 2*x1^2 | 2*a1^2",
        " 0      |",
        "row pairs (lift/drop): 2",
        "matches embedded fixture: yes",
        "PASS",
    ],
    "t4": [
        "table of sporadic solution pairs over GF(2), dim 2",
        " Q on V              | Qt on F x V*",
        "---------------------+---------------------",
        " x1^2 + x1*x2 + x2^2 | a1^2 + a1*a2 + a2^2",
        " 0                   |",
        "---------------------+---------------------",
        " x1*x2               | a1*a2",
        " x1^2 + x2^2         |",
        "---------------------+---------------------",
        " x1^2 + x1*x2        | a1*a2 + a2^2",
        " x2^2                |",
        "---------------------+---------------------",
        " x1*x2 + x2^2        | a1^2 + a1*a2",
        " x1^2                |",
        "row pairs (lift/drop): 4",
        "matches embedded fixture: yes",
        "PASS",
    ],
}


@pytest.mark.invariant
@pytest.mark.parametrize("case", sorted(TABLE_TEXT))
def test_verify_tables_frozen_text(case, capsys):
    assert main(["verify", "tables", "--case", case]) == EXIT_PASS
    out, err = capsys.readouterr()
    assert (out, err) == ("".join(ln + "\n" for ln in TABLE_TEXT[case]), "")


def test_table_cases_name_every_table_once():
    named = [key for cases in _TABLE_CASES.values() for key in cases]
    assert sorted(named) == list(SUPPORTED_TABLES)


def test_verify_projective(capsys):
    assert main(["verify", "projective", "--field", "GF(3)", "--dim", "0"]) \
        == EXIT_PASS
    out = capsys.readouterr().out
    assert "excluded pairs hit: 2" in out
    assert "exclusion is genuine (linear groups differ): yes" in out


def test_verify_quadric_ok(form_file, capsys):
    assert main(["verify", "quadric", form_file(FORM_GF5_HYPERBOLIC)]) \
        == EXIT_PASS
    out = capsys.readouterr().out
    assert "status: ok" in out and "quadric points: 2" in out


def test_verify_quadric_empty(form_file, capsys):
    assert main(["verify", "quadric", form_file(FORM_GF3_PLANE)]) == EXIT_PASS
    assert "status: empty-quadric" in capsys.readouterr().out


def test_verify_quadric_out_of_scope(form_file, capsys):
    binary = '{"dim": 2, "field": "GF(2)", "upper": [0, 1, 0]}\n'
    assert main(["verify", "quadric", form_file(binary)]) == EXIT_INPUT
    assert "char" in capsys.readouterr().err


@pytest.mark.parametrize("fmt", ["text", "records"])
@pytest.mark.parametrize("text,status", [
    ('{"dim": 2, "field": "GF(2)", "upper": [0, 1, 0]}\n', "char-2-excluded"),
    (FORM_GF3_LINE, "dim-too-small"),
    (FORM_DEGENERATE, "degenerate-polar")],
    ids=["char-2", "dim-1", "degenerate"])
def test_verify_quadric_out_of_scope_writes_no_stdout(text, status, fmt,
                                                      form_file, capsys):
    # an input error, like every other: no report and no record first
    assert main(["--format", fmt, "verify", "quadric", form_file(text)]) \
        == EXIT_INPUT
    assert tuple(capsys.readouterr()) == (
        "", "input error: quadric duality needs char != 2, dim >= 2 and a "
        "non-degenerate polar form (got status: %s)\n" % status)


def _scaled_maps_weak(real):
    """lemma_records with every scaled transvection reported weak."""
    def wrong(fld, n, budget=None):
        for Q, record in real(fld, n, budget):
            yield Q, record[:1] + tuple((case, inside, False)
                                        for case, inside, _ in record[1:])
    return wrong


def _a1_missing(real):
    """weak_group_index without a1^2, as in tests/test_classify.py."""
    return lambda fld, m, b=None: {
        key: tuple(Qt for Qt in forms if Qt.upper_coeffs() != (0, 0, 1))
        for key, forms in real(fld, m, b).items()}


def _a1_squared_bumped(real):
    """lift_np with the coefficient of a1^2 raised by one."""
    def wrong(field, dim, W):
        ok, up = real(field, dim, W)
        up = up.copy()
        up[:, dim + 1] = (up[:, dim + 1] + 1) % field.order
        return ok, up
    return wrong


def _unforced(Q, mode, budget=None):
    raise InvariantViolation((Q, mode, []))


# each verify command, with one patch that makes its check fail
FAIL_PATHS = {
    "lemmas": (["lemmas", "--field", "3", "--dim", "1"],
               transvect, "lemma_records", _scaled_maps_weak),
    "proposition": (["proposition", "--field", "3", "--dim", "1"],
                    classify, "dyad_satisfies",
                    lambda real: lambda Q, Qt, mode, budget=None: False),
    "tables": (["tables", "--case", "t3"],
               classify, "weak_group_index", _a1_missing),
    "projective": (["projective", "--field", "3", "--dim", "1"],
                   classify, "group_equal", lambda real: lambda g, h: False),
    "quadric": (["quadric", FORM_GF5_HYPERBOLIC],
                classify, "lift_np", _a1_squared_bumped),
    "theorem": (["theorem", "--field", "3", "--dim", "1"],
                classify, "solve_for_qtilde", lambda real: _unforced),
}


@pytest.mark.invariant
@pytest.mark.parametrize("fmt", ["text", "records"])
@pytest.mark.parametrize("command", sorted(FAIL_PATHS))
def test_verify_fail_paths_exit_1_without_pass(command, fmt, form_file,
                                               capsys, cold_memo, monkeypatch):
    argv, module, name, wrong = FAIL_PATHS[command]
    if command == "quadric":
        argv = ["quadric", form_file(argv[1])]
    monkeypatch.setattr(module, name, wrong(getattr(module, name)))
    assert main(["--format", fmt, "verify"] + argv) == EXIT_FAIL
    lines = capsys.readouterr().out.splitlines()
    if fmt == "text":
        assert any(ln.startswith("FAIL: ") for ln in lines)
        assert "PASS" not in lines
    else:
        recs = [json.loads(ln) for ln in lines]
        assert recs
        for rec in recs:
            assert (rec["status"] == "mismatch" if command == "quadric"
                    else rec["ok"] is False)


def test_failing_lemma_record_names_its_pair(capsys, cold_memo, monkeypatch):
    # every pair fails under the patch, so the first one is named: the zero
    # form and the direction (1), as the text FAIL line says
    argv, module, name, wrong = FAIL_PATHS["lemmas"]
    monkeypatch.setattr(module, name, wrong(getattr(module, name)))
    assert main(["--format", "records", "verify"] + argv) == EXIT_FAIL
    assert json.loads(capsys.readouterr().out) == {
        "record": "lemma-sweep", "field": "GF(3)", "dim": 1, "ok": False,
        "form": {"dim": 1, "field": "GF(3)", "poly": "0", "upper": [0]},
        "direction": [1]}


@pytest.mark.invariant
@pytest.mark.parametrize("fmt,out", [
    ("text", "FAIL: verified invariant violated: "
             "((QForm(GF(3), dim=1, 0), 'motion', []),)\n"),
    ("records", '{"detail": "((QForm(GF(3), dim=1, 0), \'motion\', []),)", '
                '"ok": false, "record": "invariant-violation"}\n')],
    ids=["text", "records"])
def test_invariant_violation_is_one_line_in_either_format(fmt, out, capsys,
                                                         monkeypatch):
    monkeypatch.setattr(classify, "solve_for_qtilde", _unforced)
    assert main(["--format", fmt, "verify", "theorem", "--field", "3",
                 "--dim", "1"]) == EXIT_FAIL
    assert tuple(capsys.readouterr()) == (out, "")


# the budget is checked before every memo lookup, so these exits do not
# depend on what earlier tests in the process memoised (tests/test_groups.py
# checks each memoised function for that)

def test_budget_flag_exit(capsys):
    assert main(["--budget", "5", "verify", "proposition",
                 "--field", "GF(7)", "--dim", "1"]) == EXIT_BUDGET
    err = capsys.readouterr().err
    assert "budget exceeded" in err and "METRIC_AFFINE_BUDGET" in err


def test_lemma_budget_bounds_the_map_table(capsys):
    # the lemmas build no GL: the budget bounds the rows of the rank-one map
    # table, (7^3 - 1)(7^3 + 5 (7^2 - 1)) of them over GF(7)^3
    assert main(["verify", "lemmas", "--field", "7", "--dim", "3"]) \
        == EXIT_BUDGET
    assert "need 199386 > budget 25000" in capsys.readouterr().err


@pytest.mark.parametrize("argv,need", [
    (["--budget", "1", "verify", "projective", "--field", "3", "--dim", "1"],
     2),        # |GL_1(3)|: the left motion groups are checked first
    (["--budget", "5", "verify", "projective", "--field", "3", "--dim", "1"],
     48),       # |GL_2(3)|: then the weak groups on F x V*
    (["--budget", "1", "verify", "tables", "--case", "t4"], 168)])
def test_table_and_projective_refusals(argv, need, capsys):
    assert main(argv) == EXIT_BUDGET
    assert ("need %d > budget %s" % (need, argv[1])
            in capsys.readouterr().err)


def _refuse(*_args):
    raise RuntimeError("built before the budget gate")


def _refusal(need, budget=25000):
    return ("budget exceeded: need %d > budget %d; raise --budget or "
            "METRIC_AFFINE_BUDGET\n" % (need, budget))


@pytest.mark.parametrize("fmt", ["text", "records"])
@pytest.mark.parametrize("argv,need,budget", [
    (["verify", "theorem", "--field", "2", "--dim", "7"],
     163849992929280, 25000),   # |GL_7(2)|, met before |GL_8(2)|
    (["verify", "projective", "--field", "3", "--dim", "5"],
     475566474240, 25000),      # |GL_5(3)|, met before |GL_6(3)|
    (["verify", "proposition", "--field", "2", "--dim", "6"],
     163849992929280, 25000),   # |GL_7(2)|, the weak groups on F x V*
    (["verify", "lemmas", "--field", "3", "--dim", "5"],
     78166, 25000),             # the rows of the rank-one map table
    # the 2^28 (2^7 - 1) pairs (Q, f), against the hard ceiling
    (["verify", "lemmas", "--field", "2", "--dim", "7"],
     34091302912, 10000000)],
    ids=["theorem", "projective", "proposition", "lemmas", "lemma-pairs"])
def test_sweeps_meet_the_budget_before_listing_forms(argv, need, budget, fmt,
                                                     capsys, monkeypatch):
    monkeypatch.setattr(cli, "enumerate_forms", _refuse)
    monkeypatch.setattr(classify, "enumerate_forms", _refuse)
    monkeypatch.setattr(transvect, "_rank_one_maps", _refuse)
    monkeypatch.setattr(transvect, "_lemma_block", _refuse)
    assert main(["--format", fmt] + argv) == EXIT_BUDGET
    assert tuple(capsys.readouterr()) == ("", _refusal(need, budget))


def test_lemma_sweep_under_the_pair_ceiling_lists_forms(capsys, monkeypatch):
    # GF(3)^4 has 4,723,920 (Q, f) pairs, under the 10^7 ceiling, and 8,560
    # map rows, under the default budget: the sweep goes on to build the
    # blocks of all 3^10 forms, in order
    starts = []
    monkeypatch.setattr(
        transvect, "_lemma_block",
        lambda fld, n, _maps, start: starts.append((fld.name, n, start)) or ())
    assert main(["verify", "lemmas", "--field", "3", "--dim", "4"]) \
        == EXIT_PASS
    step = starts[1][2]
    assert starts == [("GF(3)", 4, start) for start in range(0, 3 ** 10, step)]


def _form_text(field, dim, coeff):
    return json.dumps({"dim": dim, "field": field,
                       "upper": [coeff] * (dim * (dim + 1) // 2)}) + "\n"


@pytest.mark.parametrize("fmt", ["text", "records"])
@pytest.mark.parametrize("dim,need", [(14, 3 ** 15), (9, 3 ** 10)])
def test_verify_quadric_meets_the_budget_before_its_table(
        dim, need, fmt, form_file, capsys, monkeypatch):
    # the check tabulates F^(n+1): 3^15 = 14,348,907 vectors at GF(3)^14
    monkeypatch.setattr(classify, "_quadric_block", _refuse)
    argv = ["--format", fmt, "verify", "quadric",
            form_file(_form_text("GF(3)", dim, 1))]
    assert main(argv) == EXIT_BUDGET
    assert tuple(capsys.readouterr()) == ("", _refusal(need))


@pytest.mark.parametrize("text,status", [
    (_form_text("GF(2)", 20, 1), "char-2-excluded"),
    (FORM_GF3_LINE, "dim-too-small")], ids=["char-2", "dim-1"])
def test_verify_quadric_out_of_scope_is_refused_before_the_budget(
        text, status, form_file, capsys):
    assert main(["--budget", "1", "verify", "quadric", form_file(text)]) \
        == EXIT_INPUT
    assert "(got status: %s)" % status in capsys.readouterr().err


def test_budget_env_exit(form_file, capsys):
    gf7 = '{"dim": 2, "field": "GF(7)", "upper": [1, 0, 1]}\n'
    os.environ["METRIC_AFFINE_BUDGET"] = "5"
    try:
        assert main(["groups", form_file(gf7)]) == EXIT_BUDGET
    finally:
        del os.environ["METRIC_AFFINE_BUDGET"]
    assert "need 2016 > budget 5" in capsys.readouterr().err


def test_bad_budget_env_is_input_error(capsys, monkeypatch):
    monkeypatch.setenv("METRIC_AFFINE_BUDGET", "abc")
    assert main(["verify", "proposition", "--field", "3", "--dim", "1"]) \
        == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("input error: METRIC_AFFINE_BUDGET must be an "
                            "integer, got 'abc'\n")


def test_records_mode_is_json_lines(form_file, capsys):
    assert main(["--format", "records", "lift", form_file(FORM_GF3_LINE)]) \
        == EXIT_PASS
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    rec = json.loads(lines[0])
    assert rec["record"] == "lift"
    assert rec["result"] == {"dim": 2, "field": "GF(3)", "poly": "a1^2",
                             "upper": [0, 0, 1]}
    # keys are emitted sorted, so the byte stream is canonical
    assert lines[0] == json.dumps(rec, sort_keys=True)


def test_records_mode_verify(capsys):
    assert main(["--format", "records", "verify", "tables", "--case", "t3"]) \
        == EXIT_PASS
    rec = json.loads(capsys.readouterr().out)
    assert rec["ok"] is True and rec["case"] == "t3"


def test_output_is_deterministic(form_file, capsys):
    path = form_file(FORM_GF5_HYPERBOLIC)
    main(["verify", "quadric", path])
    first = capsys.readouterr().out
    main(["verify", "quadric", path])
    assert capsys.readouterr().out == first


def test_cli_imports_no_private_name():
    # the front end reaches the package through its public names only
    with open(cli.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imported = [alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                and (node.level or node.module.startswith("metric_affine"))
                for alias in node.names]
    assert [name for name in imported if name.startswith("_")] == []
    assert {"field_make", "lemma_records"} <= set(imported)


def test_package_modules_import_no_private_name_from_each_other():
    # the modules of the package reach each other through public names;
    # the one exception is transvect's peek at the memo table, the warm
    # lemma read that transvect._answers documents
    package = os.path.dirname(cli.__file__)
    crossed = []
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        crossed += [(name, alias.name) for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom)
                    and (node.level or node.module.startswith("metric_affine"))
                    for alias in node.names if alias.name.startswith("_")]
    assert crossed == [("transvect.py", "_MEMO")]
