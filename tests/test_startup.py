"""What a fresh interpreter loads: the CLI and the scalar algebra start
without numpy, and the package still exports every name it did when it
imported the group engine eagerly.  And the tests marked invariant pass
under python -O.

Each check runs in a child interpreter, since the test process itself has
long since loaded numpy."""

import json
import os
import subprocess
import sys
import textwrap

import pytest

TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(TESTS), "src")

# every name the package exports, with the module that defines it
EXPORTS = {
    "fields": "Field GF2 GF3 GF4 GF5 GF7 QQ field_make",
    "linalg": "Mat Singular annihilator kernel_basis mat_invert outer pairing "
              "rank rref span_contains unit_vector vec",
    "quadform": "NotReflectable QForm all_vectors enumerate_forms "
                "form_from_text form_to_text is_isometry is_nondegenerate "
                "polar poly_str qf_eval qf_proportional qf_pullback qf_rank "
                "qf_scale radical_basis reflection",
    "budget": "BudgetExceeded DEFAULT_BUDGET HARD_BUDGET_CEILING "
              "InvariantViolation group_budget order_gl",
    "homog": "AffineMap DegeneratePolarForm NotDroppable RoundtripReport "
             "affine_reflection drop dual_matrix dual_matrix_preimage lift "
             "motion_group_dual point_matrix reflection_correspondence "
             "roundtrip_checks",
    "groups": "GroupSet ReflectionStatus closure enumerate_gl group_equal "
              "is_subgroup orthogonal_group reflection_generation_status "
              "weak_orthogonal_group",
    "transvect": "DeltaMap DirectionCase KIND_DILATATION KIND_IDENTITY "
                 "KIND_TRANSVECTION NotInvertible "
                 "annihilator_transvections_in_weak classify_direction "
                 "delta_group delta_make "
                 "scaled_transvection_never_weak",
    "classify": "DyadReport MODE_MOTION MODE_WEAK MainPropReport "
                "ProjectiveReport QuadricReport SUPPORTED_TABLES TableReport "
                "dyad_report dyad_satisfies projective_reduce "
                "quadric_duality_check quadric_points reproduce_table "
                "solve_for_qtilde verify_main_prop verify_projective_theorem",
}

FORMS = {
    "gf3": '{"dim": 2, "field": "GF(3)", "upper": [1, 0, 1]}\n',
    "gf3-lifted": '{"dim": 3, "field": "GF(3)", "upper": [0, 0, 0, 1, 0, 1]}\n',
    "gf4": '{"dim": 2, "field": "GF(4)", "upper": [2, 1, 3]}\n',
    "gf4-lifted": '{"dim": 3, "field": "GF(4)", "upper": [0, 0, 0, 3, 1, 2]}\n',
    "q": '{"dim": 2, "field": "Q", "upper": ["1/2", 0, 1]}\n',
    "q-lifted": '{"dim": 3, "field": "Q", "upper": [0, 0, 0, "1/2", 0, "1/4"]}\n',
}


def _run_child(argv, timeout=120, env=None):
    """Run a fresh interpreter with these arguments and this checkout's
    package on its path; env sets variables over this process's
    environment, and a None value unsets one."""
    env = {var: value for var, value in {**os.environ, **(env or {})}.items()
           if value is not None}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable] + argv, capture_output=True,
                          text=True, env=env, timeout=timeout)


def _child(code, *args):
    """Run code in a fresh interpreter; returns its stdout."""
    done = _run_child(["-c", textwrap.dedent(code)] + list(args))
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_invariant_tests_pass_under_python_O():
    # python -O strips assert statements; each test marked invariant checks
    # a verification that raises explicitly, so it must pass under -O too.
    # pytest exits 5 when it selects no test, so an empty selection fails
    done = _run_child(["-O", "-m", "pytest", "-m", "invariant", "-q",
                       "-p", "no:cacheprovider", TESTS], timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr


def test_cli_import_leaves_numpy_out():
    out = _child("""
        import sys
        import metric_affine.cli
        print(sorted(m for m in ("numpy", "dataclasses",
                                 "metric_affine.homog",
                                 "metric_affine.groups",
                                 "metric_affine.transvect",
                                 "metric_affine.classify")
                     if m in sys.modules))
    """)
    assert out == "[]\n"


_RUN_COMMAND = """
    import contextlib, io, json, sys
    from metric_affine.cli import main
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(sys.argv[1:])
    print(json.dumps({"code": code, "numpy": "numpy" in sys.modules,
                      "loaded": sorted(m.split(".")[1] for m in sys.modules
                                       if m in ("metric_affine.homog",
                                                "metric_affine.groups",
                                                "metric_affine.transvect",
                                                "metric_affine.classify")),
                      "last": out.getvalue().splitlines()[-1:]}))
"""


def _run(tmp_path, argv, form, *extra):
    path = tmp_path / (form + ".form")
    path.write_text(FORMS[form], encoding="utf-8")
    return json.loads(_child(_RUN_COMMAND, *argv, str(path), *extra))


# eval loads no homog; lift and drop load it, on first use
@pytest.mark.parametrize("argv,form,extra,code,loaded,last", [
    (["eval"], "gf3", ["1,2"], 0, [], "Q(1, 2) = 2"),
    (["eval"], "gf4", ["1,2"], 0, [], "Q(1, 2) = 2"),
    (["eval"], "q", ["1,2"], 0, [], "Q(1, 2) = 9/2"),
    (["lift"], "gf3", [], 0, ["homog"], FORMS["gf3-lifted"].rstrip()),
    (["lift"], "gf4", [], 0, ["homog"], FORMS["gf4-lifted"].rstrip()),
    (["lift"], "q", [], 0, ["homog"], FORMS["q-lifted"].rstrip()),
    (["drop"], "gf3-lifted", [], 0, ["homog"], FORMS["gf3"].rstrip()),
    (["drop"], "gf4-lifted", [], 0, ["homog"], FORMS["gf4"].rstrip()),
    (["drop"], "q-lifted", [], 0, ["homog"], FORMS["q"].rstrip()),
    (["--format", "records", "drop"], "q-lifted", [], 0, ["homog"], None),
    (["groups"], "q", [], 2, [], None),             # over Q: an input error
    (["verify", "quadric"], "q", [], 2, [], None),  # over Q: an input error
])
def test_scalar_commands_run_without_numpy(tmp_path, argv, form, extra, code,
                                           loaded, last):
    got = _run(tmp_path, argv, form, *extra)
    assert (got["code"], got["numpy"], got["loaded"]) == (code, False, loaded)
    if last is not None:
        assert got["last"] == [last]


@pytest.mark.parametrize("argv,form,loaded,last", [
    (["groups"], "gf3", ["groups"], "exceptional case: none"),
    (["verify", "quadric"], "gf3", ["classify", "groups", "homog"], "PASS"),
])
def test_group_commands_load_what_they_use(tmp_path, argv, form, loaded,
                                           last):
    # the check above would see numpy if a command loaded it
    got = _run(tmp_path, argv, form)
    assert got == {"code": 0, "numpy": True, "loaded": loaded,
                   "last": [last]}


@pytest.mark.parametrize("value,seen", [(None, "1"), ("2", "2")],
                         ids=["unset", "set"])
def test_cli_pins_openblas_to_one_thread_unless_set(tmp_path, value, seen):
    # main sets the variable before a command loads numpy, and a value the
    # user set wins
    path = tmp_path / "gf3.form"
    path.write_text(FORMS["gf3"], encoding="utf-8")
    done = _run_child(["-c", textwrap.dedent("""
        import contextlib, io, json, os, sys
        from metric_affine.cli import main
        before = "numpy" in sys.modules
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["groups", sys.argv[1]])
        print(json.dumps([code, before, "numpy" in sys.modules,
                          os.environ.get("OPENBLAS_NUM_THREADS")]))
    """), str(path)], env={"OPENBLAS_NUM_THREADS": value})
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [0, False, True, seen]


def test_lemma_sweep_loads_no_classify():
    got = json.loads(_child(_RUN_COMMAND, "verify", "lemmas", "--field", "3",
                            "--dim", "1"))
    assert got == {"code": 0, "numpy": True,
                   "loaded": ["groups", "transvect"], "last": ["PASS"]}


def test_package_exports_every_name():
    out = json.loads(_child("""
        import importlib, json, sys
        import metric_affine
        exports = json.loads(sys.argv[1])
        listed = sorted(metric_affine.__all__)
        in_dir = set(dir(metric_affine))
        numpy_before = "numpy" in sys.modules
        # the engine's modules are package attributes, as when they were
        # imported eagerly
        engine = [getattr(metric_affine, module)
                  for module in ("groups", "transvect", "classify")]
        wrong = [module.__name__ for module in engine
                 if module is not sys.modules[module.__name__]]
        wrong += [name for module, names in exports.items()
                 for name in names.split()
                 if getattr(metric_affine, name) is not getattr(
                     importlib.import_module("metric_affine." + module),
                     name)]
        star = {}
        exec("from metric_affine import *", star)
        print(json.dumps({"all": listed, "dir": sorted(in_dir),
                          "numpy_before": numpy_before, "wrong": wrong,
                          "star": sorted(k for k in star if k[0] != "_")}))
    """, json.dumps(EXPORTS)))
    names = sorted(n for names in EXPORTS.values() for n in names.split())
    assert len(names) == 93 and out["wrong"] == []
    assert out["all"] == names and out["star"] == names
    assert set(names) <= set(out["dir"])
    # listing the names loads nothing
    assert out["numpy_before"] is False
