from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import spencerkit
from spencerkit import charts as charts_module
from spencerkit import cli, crsolve, defaults
from spencerkit import scenario as scenario_module
from spencerkit.errors import NumericalError, ScenarioError
from spencerkit.scenario import (
    TASKS,
    builtin_scenarios,
    emit_json,
    load_scenario,
    parse_scenario,
    run_scenario,
)

from conftest import cli_env, minimal_scenario


def run_cli(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "spencerkit", *argv],
        capture_output=True, text=True, timeout=300, env=cli_env())
    return proc.returncode, proc.stdout, proc.stderr


def test_parse_minimal_scenario():
    scenario = parse_scenario(minimal_scenario())
    assert scenario.name == "mini"
    assert scenario.n == 1
    assert len(scenario.tasks) == 1


def test_parse_rejects_bad_polynomial_with_offset():
    data = minimal_scenario(functions={"z": "x1 + $"})
    with pytest.raises(ScenarioError) as err:
        parse_scenario(data)
    assert "offset" in str(err.value)


def test_parse_rejects_unknown_references():
    data = minimal_scenario()
    data["tasks"] = [{"task": "cr_check", "function": "nope"}]
    with pytest.raises(ScenarioError):
        parse_scenario(data)
    data = minimal_scenario()
    data["tasks"] = [{"task": "chart", "chart": "missing"}]
    with pytest.raises(ScenarioError):
        parse_scenario(data)
    data = minimal_scenario()
    data["tasks"] = [{"task": "bogus_kind"}]
    with pytest.raises(ScenarioError):
        parse_scenario(data)
    data = minimal_scenario()
    data["tasks"] = [{"task": "cr_check", "function": "z", "expect": "maybe"}]
    with pytest.raises(ScenarioError):
        parse_scenario(data)


def test_parse_rejects_bad_tolerances_and_shapes():
    with pytest.raises(ScenarioError):
        parse_scenario(minimal_scenario(tolerances={"tol_nope": 1e-9}))
    with pytest.raises(ScenarioError):
        parse_scenario(minimal_scenario(tolerances={"tol_holo": 1e-9}))
    with pytest.raises(ScenarioError):
        parse_scenario(minimal_scenario(tolerances={"tol_cr": -1.0}))
    with pytest.raises(ScenarioError):
        parse_scenario(minimal_scenario(tasks=[]))
    with pytest.raises(ScenarioError):
        parse_scenario(minimal_scenario(box={"lo": [0.0], "hi": [1.0]}))
    bad_j = minimal_scenario(J=[["0", "-1"], ["1", "x9"]])
    with pytest.raises(ScenarioError):
        parse_scenario(bad_j)


def test_load_scenario_round_trip(scenario_file):
    path = scenario_file(minimal_scenario())
    scenario = load_scenario(path)
    result = run_scenario(scenario)
    assert result.overall == "pass"
    assert result.reports[0].task == "cr_check"


def test_builtin_dictionaries_parse_and_are_fresh():
    catalog = builtin_scenarios()
    assert sorted(catalog) == ["std_c1", "std_c2", "twisted_r4"]
    for data in catalog.values():
        parse_scenario(data)
    catalog["std_c1"]["tasks"].clear()
    assert builtin_scenarios()["std_c1"]["tasks"]


def test_run_scenario_task_filter_and_overrides():
    scenario = parse_scenario(builtin_scenarios()["std_c2"])
    result = run_scenario(scenario, task_filter="solve_ah_linear")
    assert len(result.reports) == 1
    assert result.overall == "pass"
    with pytest.raises(ScenarioError):
        run_scenario(scenario, task_filter="not_there")
    with pytest.raises(ScenarioError):
        run_scenario(scenario, tol_overrides={"tol_wrong": 1.0})
    tightened = run_scenario(scenario, task_filter="factorize",
                             tol_overrides={"tol_fit": 1e-17})
    assert tightened.overall == "fail"


def test_expect_fail_flips_status():
    data = minimal_scenario()
    data["functions"]["zbar"] = "x1 - (0+1i)*x2"
    data["tasks"] = [
        {"task": "cr_check", "function": "zbar", "expect": "fail"},
        {"task": "cr_check", "function": "z", "expect": "fail",
         "label": "should_have_failed"},
    ]
    result = run_scenario(parse_scenario(data))
    flipped, wrong = result.reports
    assert flipped.status == "pass"
    assert "expected failure observed" in flipped.notes
    assert wrong.status == "fail"
    assert "expected a failure but the check passed" in wrong.notes


def test_emit_json_is_canonical_and_parses():
    scenario = parse_scenario(builtin_scenarios()["twisted_r4"])
    result = run_scenario(scenario)
    blob = emit_json(result)
    assert blob.endswith("}\n")
    parsed = json.loads(blob)
    assert parsed["scenario"] == "twisted_r4"
    assert parsed["overall"] == "pass"
    assert len(parsed["tasks"]) == 10
    for task in parsed["tasks"]:
        keys = list(task["metrics"])
        assert keys == sorted(keys)
        assert "duration" not in task
    blob2 = emit_json(run_scenario(scenario))
    assert blob == blob2
    assert blob == json.dumps(json.loads(blob), indent=2,
                              ensure_ascii=False) + "\n"


def test_cli_version_and_help():
    code, out, _ = run_cli("version")
    assert code == 0
    from spencerkit import __version__
    assert out.strip() == __version__


def test_cli_run_exit_codes(scenario_file):
    path = scenario_file(minimal_scenario())
    code, out, err = run_cli("run", path)
    assert code == 0
    assert json.loads(out)["overall"] == "pass"

    failing = minimal_scenario()
    failing["functions"]["zbar"] = "x1 - (0+1i)*x2"
    failing["tasks"] = [{"task": "cr_check", "function": "zbar"}]
    path = scenario_file(failing, name="failing.json")
    code, out, err = run_cli("run", path)
    assert code == 1
    assert json.loads(out)["overall"] == "fail"


def test_cli_rejects_bad_inputs(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    code, out, err = run_cli("run", str(bad))
    assert code == 2
    assert "error:" in err

    code, out, err = run_cli("run", str(tmp_path / "missing.json"))
    assert code == 2

    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"name": "caf\xe9"}')
    code, out, err = run_cli("run", str(latin1))
    assert code == 2
    assert "not UTF-8" in err

    code, out, err = run_cli("builtin", "not_a_builtin")
    assert code == 2
    assert "available" in err

    code, out, err = run_cli("builtin", "std_c2", "--tol", "nope=1")
    assert code == 2

    code, out, err = run_cli("builtin", "std_c2", "--tol", "tol_fit")
    assert code == 2

    # The first override alone fails the zbar task; a second one for the
    # same name must not silently replace it.
    zbar = tmp_path / "zbar.json"
    zbar.write_text(json.dumps(minimal_scenario(
        functions={"zbar": "x1 - (0+1i)*x2"},
        tasks=[{"task": "cr_check", "function": "zbar"}])))
    code, out, err = run_cli("run", str(zbar), "--tol", "tol_cr=1e-10")
    assert code == 1
    code, out, err = run_cli("run", str(zbar), "--tol", "tol_cr=1e-10",
                             "--tol", "tol_cr=10")
    assert code == 2
    assert err == "error: --tol names 'tol_cr' more than once\n"

    code, out, err = run_cli("builtin", "std_c2", "--grid", "0")
    assert code == 2
    assert "at least 2 points" in err

    code, out, err = run_cli("builtin", "std_c2", "--task", "solve_ah_linear",
                             "--degree", "0")
    assert code == 2
    assert "solver degree 0" in err

    code, out, err = run_cli("builtin", "std_c2", "--threads", "2")
    assert code == 2
    assert "unrecognized arguments: --threads" in err


def test_readme_flag_table_matches_the_parser():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("### CLI flags", 1)[1].split("\n\n")[1]
    documented = set(re.findall(r"^\| `(--[a-z-]+)", table, flags=re.M))
    commands = next(action for action in cli.build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction)).choices
    for command in ("run", "builtin"):
        flags = {flag for action in commands[command]._actions
                 for flag in action.option_strings} - {"-h", "--help"}
        assert flags == documented, command


def test_readme_named_tolerances_match_the_registry():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    paragraph = readme.split("## Named tolerances", 1)[1].split("\n\n")[1]
    documented = {name: float(value) for name, value in
                  re.findall(r"`(\w+)` \(([0-9.e+-]+)\)", paragraph)}
    assert documented == defaults.DEFAULT_TOLERANCES


def test_readme_library_quick_start_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Quick start (library)", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"^```python\n(.*?)^```", section, flags=re.M | re.S)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)


def test_package_exports_resolve_once():
    names = spencerkit.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(spencerkit, n)] == []


def test_check_failures_share_one_base_and_input_errors_do_not():
    from spencerkit import errors
    failures = ("ChartError", "IndependenceError", "FitError", "OverlapError",
                "CompositionError", "InversionError", "DomainError",
                "DegenerateStructureError")
    for name in failures:
        assert issubclass(getattr(errors, name), spencerkit.CheckFailure), name
    for name in ("NumericalError", "ScenarioError", "ConfigurationError",
                 "PolynomialParseError"):
        assert not issubclass(getattr(errors, name), errors.CheckFailure), name
    # No other class is a check failure.
    kinds = {cls.__name__ for cls in vars(errors).values()
             if isinstance(cls, type) and issubclass(cls, errors.CheckFailure)}
    assert kinds == {"CheckFailure", *failures}


def test_cli_task_filter_and_text_format():
    code, out, err = run_cli("builtin", "std_c2", "--task", "chart",
                             "--format", "text")
    assert code == 0
    assert out.startswith("scenario std_c2: pass (1 tasks")
    assert "certificate" in out


def test_cli_tolerance_override_flips_exit_code():
    code, _, _ = run_cli("builtin", "std_c2", "--task", "factorize",
                         "--tol", "tol_fit=1e-17")
    assert code == 1


def test_cli_exit_three_on_numerical_error(monkeypatch, scenario_file, capsys):
    def blow_up(scenario, spec, tols):
        raise NumericalError("synthetic breakdown")

    monkeypatch.setitem(TASKS, "cr_check", (blow_up, TASKS["cr_check"][1]))
    path = scenario_file(minimal_scenario())
    code = cli.main(["run", path])
    assert code == 3
    assert "numerical error" in capsys.readouterr().err


@pytest.mark.parametrize("tolerances", [
    {"tol_cr": "abc"}, {"tol_cr": float("nan")}, {"tol_cr": float("inf")},
    {"tol_cr": True}, ["tol_cr", 1e-9],
])
def test_parse_rejects_non_numeric_and_non_finite_tolerances(tolerances):
    with pytest.raises(ScenarioError):
        parse_scenario(minimal_scenario(tolerances=tolerances))


@pytest.mark.parametrize("override", [
    "tol_cr=inf", "tol_cr=-1", "tol_cr=nan", "svd_rel_tol=0",
])
def test_cli_tol_override_must_be_finite_and_positive(scenario_file, capsys,
                                                       override):
    path = scenario_file(minimal_scenario())
    assert cli.main(["run", path, "--tol", override]) == 2
    assert "finite positive" in capsys.readouterr().err


@pytest.mark.parametrize("overrides", [
    {"tasks": [{"task": "solve_ah", "degree": 2, "expect_dims": 5}]},
    {"tasks": [{"task": "solve_ah", "degree": "x"}]},
    # The solve samples nothing, so solve_ah takes no grid.
    {"tasks": [{"task": "solve_ah", "degree": 2, "grid": 5}]},
    {"tasks": [{"task": "cr_check", "function": "z", "grid": 5.0}]},
    {"tasks": {"task": "cr_check", "function": "z"}},
    {"tasks": ["cr_check"]},
    {"tasks": [{"task": "transition", "charts": "c"}]},
    {"tasks": [{"task": "ah_map", "map": "m", "family": "f"}]},
    {"n": True},
    {"familes": {}},
    {"J": 5},
    {"J": [1, 2]},
    {"functions": ["x1"]},
    {"maps": {"m": 5}},
    {"maps": {"m": {"components": ["x1", "x2"], "inverse": 5}}},
    {"maps": {"m": {"components": ["x1", "x2"],
                    "inverse": {"components": ["x1", "x2"], "inverse": {}}}}},
    {"maps": {"m": {"components": ["x1", "x2"],
                    "domian": {"lo": [0.0, 0.0], "hi": [0.5, 0.5]}}}},
    {"maps": {"m": {"components": ["x1", "x2"],
                    "domain": {"lo": [0.0, 0.0], "hi": [0.5, 0.5], "h": 1}}}},
    {"charts": {"c": 5}},
    {"charts": {"c": {"functions": "z"}}},
    {"charts": {"c": {"functions": [["z"]]}}},
    {"charts": {"c": {"functions": ["z"],
                      "bx": {"lo": [0.0, 0.0], "hi": [0.5, 0.5]}}}},
    {"name": "bad\ud800name"},
    {"tasks": [{"task": "cr_check", "function": "z", "label": "\ud800"}]},
    {"name": 5},
    {"tasks": [{"task": "check_acs", "label": None}]},
    {"tasks": [{"task": "check_acs", "label": 5}]},
    {"tasks": [{"task": "check_acs", "label": ["a"]}]},
    # No result meets these expectations, so expect: fail would pass.
    {"tasks": [{"task": "spencer_type", "degree": 2, "expect_m": 2,
                "expect": "fail"}]},
    {"tasks": [{"task": "spencer_type", "degree": 2, "expect_m": -1,
                "expect": "fail"}]},
    {"tasks": [{"task": "solve_ah", "degree": 2, "expect_dim": -1,
                "expect": "fail"}]},
    # A chart that cannot be built would make expect: fail pass vacuously.
    {"charts": {"c": {"functions": []}},
     "tasks": [{"task": "chart", "chart": "c", "expect": "fail"}]},
    {"charts": {"c": {"functions": ["z", "z"]}},
     "tasks": [{"task": "factorize", "chart": "c", "function": "z",
                "expect": "fail"}]},
])
def test_cli_rejects_malformed_scenarios_with_exit_two(scenario_file, capsys,
                                                        overrides):
    data = minimal_scenario(
        maps={"m": {"components": ["x1", "x2"]}},
        families={"f": {"members": ["m"]}},
        charts={"c": {"functions": ["z"]}})
    data.update(overrides)
    assert cli.main(["run", scenario_file(data)]) == 2
    assert "error:" in capsys.readouterr().err


LEFT = {"lo": [-1.0, -1.0], "hi": [-0.5, 1.0]}
RIGHT = {"lo": [0.5, -1.0], "hi": [1.0, 1.0]}


@pytest.mark.parametrize("charts, tasks, message", [
    ({"c": {"functions": ["z"], "box": {"lo": [0, 0], "hi": [2, 2]}}},
     [{"task": "chart", "chart": "c", "expect": "fail"},
      {"task": "factorize", "chart": "c", "function": "z", "expect": "fail"}],
     "chart 'c': box is not inside the scenario box"),
    ({"a": {"functions": ["z"], "box": LEFT},
      "b": {"functions": ["z"], "box": RIGHT}},
     [{"task": "transition", "charts": ["a", "b"], "expect": "fail"}],
     "task 0: charts ['a', 'b'] have no common interior"),
    # a and c overlap, b meets neither.
    ({"a": {"functions": ["z"], "box": LEFT},
      "b": {"functions": ["z"], "box": RIGHT},
      "c": {"functions": ["z"]}},
     [{"task": "transition", "charts": ["a", "c"]},
      {"task": "cocycle", "charts": ["a", "b", "c"], "expect": "fail"}],
     "task 1: charts ['a', 'b', 'c'] have no common interior"),
    # Boxes that share only a face have no common interior either.
    ({"a": {"functions": ["z"], "box": {"lo": [-1, -1], "hi": [0, 1]}},
      "b": {"functions": ["z"], "box": {"lo": [0, -1], "hi": [1, 1]}}},
     [{"task": "transition", "charts": ["b", "a"], "expect": "fail"}],
     "task 0: charts ['b', 'a'] have no common interior"),
], ids=["box_outside", "transition_apart", "cocycle_apart", "faces_touch"])
def test_cli_refuses_charts_that_no_structure_can_satisfy(
        scenario_file, capsys, charts, tasks, message):
    # Each task failed with a ChartError or OverlapError whatever J was, so
    # expect: fail passed and the run exited 0.
    data = minimal_scenario(charts=charts, tasks=tasks)
    assert cli.main(["run", scenario_file(data)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("overrides", [
    {"box": {"lo": [float("nan"), -1.0], "hi": [1.0, 1.0]}},
    {"box": {"lo": [-1.0, -1.0], "hi": [1.0, float("inf")]}},
    {"maps": {"m": {"components": ["x1", "x2"],
                    "domain": {"lo": [-0.5, float("nan")], "hi": [0.5, 0.5]}}}},
    {"charts": {"c": {"functions": ["z"],
                      "box": {"lo": [-0.5, -0.5], "hi": [float("nan"), 0.5]}}}},
])
def test_cli_rejects_non_finite_box_bounds(scenario_file, capsys, overrides):
    # NaN fails no ordering test, so without the check every lattice point
    # would carry a NaN coordinate and the checks would pass vacuously.
    data = minimal_scenario(tasks=[{"task": "check_acs"},
                                   {"task": "cr_check", "function": "z"}])
    data.update(overrides)
    assert cli.main(["run", scenario_file(data)]) == 2
    assert "box bounds must be finite" in capsys.readouterr().err


def test_cli_rejects_overflowing_json_bound_and_literal(tmp_path, capsys):
    # JSON numbers beyond the float range parse to infinity.
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(minimal_scenario()).replace("-1.0", "-1e999", 1))
    assert cli.main(["run", str(path)]) == 2
    assert "box bounds must be finite" in capsys.readouterr().err
    for text in ("1e999*x1", "(1e999+0i)"):
        path.write_text(json.dumps(minimal_scenario(functions={"z": text})))
        assert cli.main(["run", str(path)]) == 2
        assert "is not finite (at offset 0)" in capsys.readouterr().err


@pytest.mark.parametrize("repeated, key", [
    ('"tolerances": {"tol_cr": 1e-10, "tol_cr": 10}', "tol_cr"),
    ('"functions": {"z": "x1 - (0+1i)*x2"}', "functions"),
])
def test_cli_refuses_a_repeated_json_key(tmp_path, capsys, repeated, key):
    # Plain json.load keeps the last copy of a key, so the second copy
    # would silently replace the first; json.dumps cannot write one.
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(minimal_scenario())[:-1] + ", " + repeated + "}")
    assert cli.main(["run", str(path)]) == 2
    assert f"repeats the key {key!r}" in capsys.readouterr().err


T_WITH_INVERSE = {"components": ["x1 + 0.1", "x2"],
                  "domain": {"lo": [-0.5, -0.5], "hi": [0.5, 0.5]},
                  "inverse": {"components": ["x1 - 0.1", "x2"],
                              "domain": {"lo": [-0.4, -0.5], "hi": [0.6, 0.5]}}}
T_INV = {"components": ["x1 + 0.5", "x2"]}


def test_cli_refuses_a_map_declared_before_an_inverse_of_its_name(
        scenario_file, capsys):
    # Registering t's inverse as t_inv would replace the declared t_inv.
    data = minimal_scenario(maps={"t_inv": T_INV, "t": T_WITH_INVERSE})
    with pytest.raises(ScenarioError, match="its inverse is named 't_inv'"):
        parse_scenario(data)
    assert cli.main(["run", scenario_file(data)]) == 2
    assert "a map already declared" in capsys.readouterr().err


def test_cli_refuses_a_map_declared_after_an_inverse_of_its_name(
        scenario_file, capsys):
    # The declared t_inv would replace t's inverse in the map table.
    data = minimal_scenario(maps={"t": T_WITH_INVERSE, "t_inv": T_INV})
    with pytest.raises(ScenarioError, match="map 't_inv' is also the declared "
                                            "inverse of map 't'"):
        parse_scenario(data)
    assert cli.main(["run", scenario_file(data)]) == 2
    assert "error: map 't_inv'" in capsys.readouterr().err


def test_cli_refuses_a_negative_fit_degree(scenario_file, capsys):
    data = minimal_scenario(
        charts={"c": {"functions": ["z"]}},
        tasks=[{"task": "factorize", "chart": "c", "function": "z",
                "fit_degree": -1}])
    assert cli.main(["run", scenario_file(data)]) == 2
    assert capsys.readouterr().err == (
        "error: fit_degree must be nonnegative, got -1\n")


TWISTED_R4 = builtin_scenarios()["twisted_r4"]


def _factorize_conjugate(data, **task):
    """``data`` with a chart on its one function and a task factorizing the
    conjugate of that function through it."""
    (name, text), = data["functions"].items()
    return dict(data, functions={name: text,
                                 "bar": text.replace("+ (0+1i)", "- (0+1i)")},
                charts={"c": {"functions": [name]}},
                tasks=[dict(task="factorize", chart="c", function="bar",
                            **task)])


TWISTED_W = minimal_scenario(n=2, box=TWISTED_R4["box"], J=TWISTED_R4["J"],
                             functions={"w": "x3 + (0+1i)*x4"})


@pytest.mark.parametrize("data, task, message", [
    (minimal_scenario(), {"grid": 2, "fit_degree": 3},
     "fit_degree 3 gives 4 monomials for 4 distinct chart values"),
    (minimal_scenario(), {"grid": 5, "fit_degree": 24},
     "fit_degree 24 gives 25 monomials for 25 distinct chart values"),
    # 625 lattice points, but only 25 distinct values of w = x3 + i x4.
    (TWISTED_W, {"fit_degree": 24},
     "fit_degree 24 gives 25 monomials for 25 distinct chart values"),
], ids=["unit_grid2", "unit_grid5", "twisted_w"])
def test_cli_refuses_a_fit_that_can_interpolate(scenario_file, capsys, data,
                                                task, message):
    # Each of these fits of a conjugate passed, with fit_residual below 1e-11.
    assert cli.main(["run", scenario_file(_factorize_conjugate(data, **task))]) == 2
    assert capsys.readouterr().err == (
        f"error: {message}; the fit could interpolate\n")


def test_a_fit_with_fewer_monomials_than_chart_values_runs():
    data = _factorize_conjugate(TWISTED_W, fit_degree=20)
    result = run_scenario(parse_scenario(data))
    assert result.reports[0].status == "fail"
    assert result.reports[0].metrics["fit_residual"] > 0.3


STD_C3 = minimal_scenario(
    n=3, box={"lo": [-1.0] * 6, "hi": [1.0] * 6},
    functions={"z1": "x1 + (0+1i)*x2", "z2": "x3 + (0+1i)*x4",
               "z3": "x5 + (0+1i)*x6", "h": "x1"},
    charts={"c": {"functions": ["z1", "z2", "z3"]}})


@pytest.mark.parametrize("fit_degree, message", [
    # 12,341 monomials, fewer than the 15,625 distinct chart values: only
    # the cap refuses the 2.9 GiB complex matrix.
    pytest.param(40, "the 15625 x 12341 fit matrix of fit_degree 40 has "
                 f"192828125 entries, above the cap of {defaults.ENTRY_CAP}",
                 id="40-fit_degree 40 gives a fit matrix over the cap"),
    # C(1003, 3) monomials, counted without enumerating them.
    (1000, "fit_degree 1000 gives 167668501 monomials for 15625 distinct "
           "chart values; the fit could interpolate"),
])
def test_cli_refuses_an_oversized_fit_before_building_it(
        scenario_file, capsys, monkeypatch, fit_degree, message):
    def unreachable(w, fit_degree):
        raise AssertionError("the fit matrix was built")

    monkeypatch.setattr(charts_module, "_vandermonde", unreachable)
    data = dict(STD_C3, tasks=[{"task": "factorize", "chart": "c",
                                "function": "h", "fit_degree": fit_degree}])
    assert cli.main(["run", scenario_file(data)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_cli_refuses_transitions_and_cocycles_that_can_interpolate(
        scenario_file, capsys):
    data = minimal_scenario(
        charts={"a": {"functions": ["z"]}, "b": {"functions": ["z"]}})
    for task in ({"task": "transition", "charts": ["a", "b"]},
                 {"task": "cocycle", "charts": ["a", "b", "a"]}):
        data["tasks"] = [dict(task, grid=2, fit_degree=3)]
        assert cli.main(["run", scenario_file(data)]) == 2
        assert "the fit could interpolate" in capsys.readouterr().err


UNIT = {"lo": [-1.0, -1.0], "hi": [1.0, 1.0]}


@pytest.mark.parametrize("family", [
    {"members": ["m"], "restriction_target": []},
    {"members": ["m"], "depth": "x"},
    {"members": ["m"], "depth": 2.0},
    {"members": ["m"], "depth": True},
    {"members": ["m"], "depth": -1},
    {"members": ["m"], "dedup_tol": "abc"},
    {"members": ["m"], "dedup_tol": True},
    {"members": ["m"], "dedup_tol": float("inf")},
    {"members": ["m"], "dedup_tol": 0},
    ["m"],
    {"members": 5},
    {"members": [["m"]]},
    {"members": ["m"], "restriction_targets": 5},
    {"members": ["m"], "glue_tests": 5},
    {"members": ["m"], "glue_tests": [5]},
    {"members": ["m"], "glue_tests": [{"members": ["m"], "boxes": [UNIT],
                                       "target": UNIT, "box": UNIT}]},
    {"members": []},
    {"members": ["wide"]},
    {"members": ["m", "wide"]},
    {"members": ["m"], "restriction_targets": []},
])
def test_cli_rejects_malformed_families_with_exit_two(scenario_file, capsys,
                                                      family):
    # The scenario box is UNIT; "wide" is defined on [-2, 2]^2.
    data = minimal_scenario(
        maps={"m": {"components": ["x1", "x2"]},
              "wide": {"components": ["x1", "x2"],
                       "domain": {"lo": [-2.0, -2.0], "hi": [2.0, 2.0]}}},
        families={"f": family},
        tasks=[{"task": "axioms", "family": "f"}])
    assert cli.main(["run", scenario_file(data)]) == 2
    assert "family 'f'" in capsys.readouterr().err


def test_tol_invert_reaches_the_round_trip_check(scenario_file, capsys):
    # The declared inverse misses the inverse of t by up to 9e-7 inside its
    # domain and not at all on its edges, so each map's image stays in the
    # other's domain.  dedup_tol lets the identities cover t>>t_inv and
    # t_inv>>t, which miss the identity by as much.
    data = minimal_scenario(
        maps={"t": {"components": ["x1 + 0.8", "x2"],
                    "domain": {"lo": [-1.0, -1.0], "hi": [-0.7, 1.0]},
                    "inverse": {
                        "components": ["0.999996*x1 - 0.7999992 - 4e-5*x1^2",
                                       "x2"],
                        "domain": {"lo": [-0.2, -1.0], "hi": [0.1, 1.0]}}}},
        families={"f": {"members": ["t", "t_inv"], "depth": 0,
                        "dedup_tol": 1e-5}},
        tasks=[{"task": "axioms", "family": "f"}])
    path = scenario_file(data)
    assert cli.main(["run", path]) == 1
    assert "defect 9.000e-07 > 1e-09" in capsys.readouterr().out
    assert cli.main(["run", path, "--tol", "tol_invert=1e-6"]) == 0


def test_tol_det_reaches_the_family_closure(scenario_file, capsys):
    # c scales by 0.002: |det| is 4e-6 on c and 1.6e-11 on c>>c.
    data = minimal_scenario(
        maps={"c": {"components": ["0.002*x1", "0.002*x2"]}},
        families={"f": {"members": ["c"], "depth": 1}},
        tasks=[{"task": "axioms", "family": "f"}])
    path = scenario_file(data)
    assert cli.main(["run", path]) == 1
    out = capsys.readouterr().out
    assert "(c>>c) has |det| = 1.600e-11 <= 1e-06" in out
    assert json.loads(out)["tasks"][0]["metrics"]["members"] == 4.0
    assert cli.main(["run", path, "--tol", "tol_det=1e-3"]) == 1
    out = capsys.readouterr().out
    assert "c has |det| = 4.000e-06 <= 0.001" in out
    assert json.loads(out)["tasks"][0]["metrics"]["members"] == 3.0


def test_cli_axioms_fail_on_a_glue_test_that_leaves_a_gap(scenario_file,
                                                          capsys):
    # std_c1's fam passes every axiom with its own glue test; with pieces
    # that leave the column x1 = 0.325 of the target's lattice uncovered,
    # gluing alone fails.
    data = builtin_scenarios()["std_c1"]
    glue, = data["families"]["fam"]["glue_tests"]
    glue["boxes"] = [{"lo": [0.2, 0.2], "hi": [0.3, 0.45]},
                     {"lo": [0.35, 0.2], "hi": [0.45, 0.45]}]
    data["tasks"] = [{"task": "axioms", "family": "fam", "expect": "fail"}]
    assert cli.main(["run", scenario_file(data)]) == 0
    report, = json.loads(capsys.readouterr().out)["tasks"]
    assert {k: v for k, v in report["metrics"].items()
            if k.endswith("_failures")} == {
        "axiom1_composition_failures": 0.0, "axiom2_inversion_failures": 0.0,
        "axiom3_identity_failures": 0.0, "axiom4_restriction_failures": 0.0,
        "axiom5_gluing_failures": 1.0}
    assert report["notes"] == [
        "axiom5_gluing: not represented: 5 target lattice points not covered "
        "by any glue piece", "expected failure observed"]


def test_ah_map_family_names_failed_and_unchecked_members():
    # conj is not almost holomorphic; far maps its whole lattice outside
    # the box, so it is not checked, but it is counted.
    data = minimal_scenario(
        maps={"conj": {"components": ["x1", "-x2"]},
              "far": {"components": ["x1 + 3", "x2"],
                      "domain": {"lo": [-1.0, -1.0], "hi": [-0.9, 1.0]}}},
        families={"f": {"members": ["conj", "far"], "depth": 0}},
        tasks=[{"task": "ah_map", "family": "f"}])
    report, = run_scenario(parse_scenario(data)).reports
    assert report.status == "fail"
    assert report.metrics["members"] == 3.0     # and the identity on the box
    assert report.notes == [
        "checked 2 of 3 members", "failed: conj",
        "failed: far: no lattice point of far stays inside both structure "
        "boxes"]
    assert report.metrics["ah_map_residual"] == 2.0


def test_cli_fit_condition_cap_refuses_a_chart_on_a_tiny_box(
        monkeypatch, scenario_file, capsys):
    # On a box of side 1e-3 the chart values are nearly equal, so the
    # Vandermonde matrix of degree 4 is too ill-conditioned; that of degree
    # 2 has a condition number of about 8.2e6.
    data = minimal_scenario(
        functions={"z": "x1 + (0+1i)*x2",
                   "zsq": "x1^2 - x2^2 + (0+2i)*x1*x2"},
        charts={"c": {"functions": ["z"],
                      "box": {"lo": [0.5, 0.5], "hi": [0.501, 0.501]}}},
        tasks=[{"task": "factorize", "chart": "c", "function": "zsq"},
               {"task": "factorize", "chart": "c", "function": "zsq",
                "fit_degree": 2}])
    path = scenario_file(data)
    assert cli.main(["run", path]) == 1
    refused, fitted = json.loads(capsys.readouterr().out)["tasks"]
    assert (refused["status"], refused["metrics"]) == ("fail", {})
    assert refused["notes"] == [
        "FitError: chart Vandermonde system is too ill-conditioned to fit "
        "(condition number above 1e+12)"]
    assert fitted["status"] == "pass"
    assert 8.1e6 < fitted["metrics"]["cond"] < 8.3e6
    monkeypatch.setattr(defaults, "FIT_COND_CAP", 1e6)
    assert cli.main(["run", path, "--task", "factorize"]) == 1
    assert [task["notes"] for task in json.loads(
        capsys.readouterr().out)["tasks"]] == [[
            "FitError: chart Vandermonde system is too ill-conditioned to "
            "fit (condition number above 1e+06)"]] * 2


def test_holomorphic_transition_passes_on_its_fit_alone():
    # c_b -> c_c is w -> 2 q^-1(w) with q the z_quad polynomial: holomorphic,
    # and its truncated degree-6 fit is within tol_fit.  Conjugate
    # monomials fitted to that truncation error read about 1.5e-05.
    data = builtin_scenarios()["std_c1"]
    data["tasks"] = [{"task": "transition", "charts": ["c_b", "c_c"],
                      "grid": 9, "fit_degree": 6}]
    result = run_scenario(parse_scenario(data))
    [report] = result.reports
    assert report.status == "pass"
    assert report.metrics["fit_residual"] == pytest.approx(1.62e-10, rel=0.01)
    assert set(report.metrics) == {"fit_residual", "jacobian_min_det", "cond"}


def test_builtins_read_every_named_tolerance(monkeypatch):
    read = set()

    class RecordingTolerances(dict):
        def __getitem__(self, name):
            read.add(name)
            return super().__getitem__(name)

    original = scenario_module._with_tolerances
    monkeypatch.setattr(scenario_module, "_with_tolerances",
                        lambda *args: RecordingTolerances(original(*args)))
    for data in builtin_scenarios().values():
        run_scenario(parse_scenario(data))
    assert read == set(defaults.DEFAULT_TOLERANCES)


def test_cli_refuses_nan_dedup_tol_before_any_closure(scenario_file, capsys):
    # With NaN, no candidate is ever covered and the closure grows toward
    # MAX_FAMILY_SIZE; parsing must stop it first.
    data = minimal_scenario(
        maps={"m": {"components": ["x1", "x2"]}},
        families={"f": {"members": ["m"], "dedup_tol": float("nan")}},
        tasks=[{"task": "axioms", "family": "f"}])
    start = time.perf_counter()
    assert cli.main(["run", scenario_file(data)]) == 2
    assert time.perf_counter() - start < 1.0
    assert "dedup_tol" in capsys.readouterr().err


def test_cli_exit_three_on_non_finite_metric(scenario_file, capsys):
    # J is finite, but the gradient of 5e307*x1^3 overflows at x1 = 1.2:
    # only the report's own check catches the NaN CR residual.
    data = minimal_scenario(
        box={"lo": [0.0, 0.0], "hi": [1.2, 1.0]},
        functions={"z": "x1 + (0+1i)*x2 + 5e307*x1^3"},
        tasks=[{"task": "cr_check", "function": "z"}])
    with np.errstate(over="ignore", invalid="ignore"):
        code = cli.main(["run", scenario_file(data)])
    captured = capsys.readouterr()
    assert code == 3
    assert "cr_check: metrics are not all finite" in captured.err
    assert captured.out == ""


def test_cli_exit_three_on_non_finite_j_in_integrability(scenario_file, capsys):
    # J_01 overflows to -inf at x2 = -100 while its partial stays finite.
    # No nonzero product of the Nijenhuis sums meets the infinite entry, so
    # the sparse contraction would read a finite 6.000000000000001e+307 and
    # the run would exit 1; eval_j refuses J first.
    data = {"name": "overflow_j", "n": 1,
            "box": {"lo": [-100, -100], "hi": [100, 100]},
            "J": [["0", "-1 - 1e297*x2^6"], ["1", "0"]],
            "tasks": [{"task": "integrability"}]}
    with np.errstate(over="ignore", invalid="ignore"):
        code = cli.main(["run", scenario_file(data)])
    captured = capsys.readouterr()
    assert code == 3
    assert "J is not finite at point (-100.0, -100.0)" in captured.err
    assert captured.out == ""


def test_cli_exit_three_on_an_overflowing_nijenhuis_product(scenario_file, capsys):
    # J and every partial are finite, but J_01 * d_1 J_01 overflows to inf
    # at x1 = +-2, and N[0, 1, 1] = h - h is NaN there.  A maximum that
    # dropped that component, or the NaN, would read a finite residual,
    # and "expect": "fail" would pass.
    data = {"name": "overflow_products", "n": 1,
            "box": {"lo": [-2, -2], "hi": [2, 2]},
            "J": [["0", "-1 - 1e200*x1"], ["1", "0"]],
            "tasks": [{"task": "integrability", "expect": "fail"}]}
    with np.errstate(over="ignore", invalid="ignore"):
        code = cli.main(["run", scenario_file(data)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err == (
        "numerical error: integrability: metrics are not all finite: "
        "{'integrability_residual': nan, 'grid_points': 25.0}\n")
    assert captured.out == ""


def test_cli_exit_three_on_non_finite_j_in_check_acs(scenario_file, capsys):
    # J_01 overflows to inf at x2 = +-1e5.  Every product of J^2 that meets
    # it has a zero polynomial as its other factor, so the sparse
    # contraction would skip it as 0 * inf and read a finite 1.0, and the
    # run would exit 1; J's reader (jfield.j_entries) refuses J first.
    data = {"name": "overflow_acs", "n": 1,
            "box": {"lo": [-1, -1e5], "hi": [1, 1e5]},
            "J": [["0", "1e300*x2^2"], ["0", "0"]],
            "tasks": [{"task": "check_acs"}]}
    with np.errstate(over="ignore", invalid="ignore"):
        code = cli.main(["run", scenario_file(data)])
    captured = capsys.readouterr()
    assert code == 3
    assert "J is not finite at point (-1.0, -100000.0)" in captured.err
    assert captured.out == ""


def test_cli_exit_three_on_non_finite_j_in_a_chart_that_does_not_certify(
        scenario_file, capsys):
    # The structure of the check_acs case above: z's CR defect is -i in its
    # first component, so the chart takes the sampled gate, and eval_j
    # refuses J at the first lattice point.
    data = minimal_scenario(
        box={"lo": [-1, -1e5], "hi": [1, 1e5]},
        J=[["0", "1e300*x2^2"], ["0", "0"]],
        charts={"c": {"functions": ["z"]}},
        tasks=[{"task": "chart", "chart": "c"}])
    with np.errstate(over="ignore", invalid="ignore"):
        code = cli.main(["run", scenario_file(data)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err == ("numerical error: J is not finite at point "
                            "(-1.0, -100000.0)\n")
    assert captured.out == ""


@pytest.mark.parametrize("task", [
    {"task": "cr_check", "function": "z"},
    {"task": "chart", "chart": "c"},
    {"task": "factorize", "chart": "c", "function": "z"},
    {"task": "ah_map", "map": "m"},
])
def test_cli_exit_three_on_non_finite_j_in_every_task_that_reads_it(
        scenario_file, capsys, task):
    # J^2 = -I holds symbolically, but x1^6 overflows to inf at x1 = -1e60,
    # the first lattice point.
    data = minimal_scenario(
        box={"lo": [-1e60, -1.0], "hi": [1e60, 1.0]},
        J=[["x1^3", "-1"], ["1 + x1^6", "-x1^3"]],
        charts={"c": {"functions": ["z"]}},
        maps={"m": {"components": ["x1", "x2"]}},
        tasks=[task])
    with np.errstate(over="ignore", invalid="ignore"):
        code = cli.main(["run", scenario_file(data)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err == \
        "numerical error: J is not finite at point (-1e+60, -1.0)\n"
    assert captured.out == ""


def _cap_case(cap, message, builtin, task):
    return pytest.param(cap, message, builtin, task, id=f"{cap}-{message}")


@pytest.mark.parametrize("cap, message, builtin, task", [
    # 7^4 points x 4 coordinates.
    _cap_case(9603, "the lattice of 2401 points in R^4 has 9604 entries",
              "std_c2", "check_acs"),
    # 7^4 points x 4^2 entries of the dense J split_type takes.
    _cap_case(38415, "J at 2401 points of a structure with n = 2 has 38416 "
              "entries", "std_c2", "split_type"),
    # 7^4 points x (4 coordinates + 2 non-constant entries of J).
    _cap_case(14405, "the J^2 = -I check at 2401 points of a structure with "
              "n = 2 has 14406 entries", "twisted_r4", "check_acs"),
])
def test_cli_exit_two_on_a_lattice_or_j_over_the_cap(
        capsys, monkeypatch, cap, message, builtin, task):
    argv = ["builtin", builtin, "--grid", "7", "--task", task]
    monkeypatch.setattr(defaults, "ENTRY_CAP", cap)
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == \
        f"error: {message}, above the cap of {cap}\n"
    # At the cap the task runs: check_acs holds no dense J.
    if task == "check_acs":
        monkeypatch.setattr(defaults, "ENTRY_CAP", cap + 1)
        assert cli.main(argv) == 0


def _twisted_rows(n):
    """The flat J on R^{2n} with twisted_r4's twist in its first block:
    J[1][3] = -x1 and J[2][4] = x1, counted from 1."""
    rows = [["0"] * (2 * n) for _ in range(2 * n)]
    for j in range(n):
        rows[2 * j][2 * j + 1], rows[2 * j + 1][2 * j] = "-1", "1"
    rows[0][2], rows[1][3] = "-x1", "x1"
    return rows


def _refuse_every_j_reader(monkeypatch):
    def refuse(*args):
        raise AssertionError("J was evaluated")

    monkeypatch.setattr(crsolve, "eval_j", refuse)
    monkeypatch.setattr(spencerkit.jfield, "eval_j", refuse)
    monkeypatch.setattr(spencerkit.poly.Polynomial, "evaluate", refuse)


def test_cli_exit_two_on_a_nijenhuis_tensor_over_the_cap(
        scenario_file, capsys, monkeypatch):
    # The twisted J holds 8 (P,) arrays.  The refusal comes before any task
    # samples, so the check_acs task ahead of it evaluates no J either.
    monkeypatch.setattr(defaults, "ENTRY_CAP", 3 ** 4 * 8 - 1)
    _refuse_every_j_reader(monkeypatch)
    data = minimal_scenario(n=2, box={"lo": [-1.0] * 4, "hi": [1.0] * 4},
                            functions={}, J=_twisted_rows(2),
                            tasks=[{"task": "check_acs", "grid": 3},
                                   {"task": "integrability", "grid": 3}])
    assert cli.main(["run", scenario_file(data)]) == 2
    assert "has 648 entries, above the cap of 647" in capsys.readouterr().err


def test_cli_exit_two_on_the_n4_nijenhuis_tensor_at_grid_5(
        scenario_file, capsys, monkeypatch):
    # 5^8 points x 8 arrays, refused at once under a lowered cap.
    monkeypatch.setattr(defaults, "ENTRY_CAP", 5 ** 8 * 8 - 1)
    _refuse_every_j_reader(monkeypatch)
    data = minimal_scenario(n=4, box={"lo": [-0.5] * 8, "hi": [0.5] * 8},
                            functions={}, J=_twisted_rows(4),
                            tasks=[{"task": "integrability"}])
    start = time.perf_counter()
    assert cli.main(["run", scenario_file(data)]) == 2
    assert time.perf_counter() - start < 1.0
    assert "has 3125000 entries" in capsys.readouterr().err


@pytest.mark.parametrize("twisted, code, residual", [(False, 0, 0.0),
                                                     (True, 1, 1.0)])
def test_cli_runs_n4_integrability_at_the_default_grid(
        scenario_file, capsys, twisted, code, residual):
    # 5^8 = 390,625 points; the flat J holds no array, the twisted one 8.
    data = minimal_scenario(n=4, box={"lo": [-0.5] * 8, "hi": [0.5] * 8},
                            functions={}, tasks=[{"task": "integrability"}])
    if twisted:
        data["J"] = _twisted_rows(4)
    start = time.perf_counter()
    assert cli.main(["run", scenario_file(data)]) == code
    assert time.perf_counter() - start < 1.0
    report, = json.loads(capsys.readouterr().out)["tasks"]
    assert report["metrics"] == {"grid_points": 390625.0,
                                 "integrability_residual": residual}


@pytest.mark.parametrize("twisted", [False, True])
def test_n4_check_acs_at_the_default_grid_holds_no_dense_j(
        monkeypatch, twisted):
    # 5^8 = 390,625 points: the lattice takes 25 MB and each non-constant
    # entry of J 3.1 MB, where a dense J would take 200 MB.
    data = minimal_scenario(n=4, box={"lo": [-0.5] * 8, "hi": [0.5] * 8},
                            functions={}, tasks=[{"task": "check_acs"}])
    if twisted:
        data["J"] = _twisted_rows(4)
    scenario = parse_scenario(data)

    def refuse(*args):
        raise AssertionError("eval_j was called")

    monkeypatch.setattr(spencerkit.jfield, "eval_j", refuse)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        result = run_scenario(scenario)
        seconds = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    report, = result.reports
    assert report.passed
    assert report.metrics == {"acs_residual": 0.0, "grid_points": 390625.0}
    assert seconds < 1.0
    assert peak < 50 * 2 ** 20


@pytest.mark.parametrize("twisted", [False, True])
def test_n4_split_type_at_the_default_grid_decomposes_each_distinct_j_once(
        twisted):
    # 5^8 = 390,625 points: J takes 200 MB, and the SVD of J - iI runs at
    # the points J's entries tell apart, 1 for the flat J and 5 (the
    # values of x1) for the twisted one, where an SVD at every point took
    # 3 s and held 400 MB of complex matrices besides J.
    data = minimal_scenario(n=4, box={"lo": [-0.5] * 8, "hi": [0.5] * 8},
                            functions={}, tasks=[{"task": "split_type"}])
    if twisted:
        data["J"] = _twisted_rows(4)
    structure = parse_scenario(data).structure
    pts = structure.box.lattice(defaults.GRID_PER_AXIS)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        result = spencerkit.split_type(structure, pts)
        seconds = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.dims == (4, 4)
    assert result.eigen_residual == 0.0
    assert seconds < 1.5
    assert peak < 1.2 * result.j.nbytes


def test_cli_exit_three_on_non_finite_j_in_split_type(scenario_file, capsys):
    # J^2 = -I holds symbolically, but x1^6 overflows to inf at x1 = -1e60.
    # The SVD of J - iI there has NaN singular values, which count as zero:
    # the task would report a degenerate splitting, and "expect": "fail"
    # would turn that into a pass.
    data = {"name": "overflow", "n": 1,
            "box": {"lo": [-1e60, -1.0], "hi": [1e60, 1.0]},
            "J": [["x1^3", "-1"], ["1 + x1^6", "-x1^3"]],
            "tasks": [{"task": "split_type", "expect": "fail"}]}
    with np.errstate(over="ignore", invalid="ignore"):
        code = cli.main(["run", scenario_file(data)])
    captured = capsys.readouterr()
    assert code == 3
    assert "J is not finite at point (-1e+60, -1.0)" in captured.err
    assert captured.out == ""


def test_cli_exit_three_on_non_finite_chart_residual(scenario_file, capsys):
    # The gradient of 5e307*x1^3 overflows at x1 = 1.2: the CR residual is
    # not finite, and no comparison with tol_cr can judge it.
    data = minimal_scenario(
        box={"lo": [0.0, 0.0], "hi": [1.2, 1.0]},
        functions={"z": "x1 + (0+1i)*x2 + 5e307*x1^3"},
        charts={"c": {"functions": ["z"]}},
        tasks=[{"task": "chart", "chart": "c"}])
    with np.errstate(over="ignore", invalid="ignore"):
        code = cli.main(["run", scenario_file(data)])
    captured = capsys.readouterr()
    assert code == 3
    assert "field 0 has a non-finite CR residual" in captured.err
    assert captured.out == ""


# J is the pullback of the flat structure by the shear
# (x1, x2, x3 + 0.3*x1^2, x4 + 0.2*x1*x2), so w1 and w2 are holomorphic
# coordinates; v2 = w2 + 0.5*w1^2, and chart "bad" is not holomorphic.
SHEARED_N2 = {
    "name": "sheared_n2",
    "n": 2,
    "box": {"lo": [-0.5] * 4, "hi": [0.5] * 4},
    "J": [["0", "-1", "0", "0"], ["1", "0", "0", "0"],
          ["-0.2*x2", "0.4*x1", "0", "-1"], ["0.4*x1", "0.2*x2", "1", "0"]],
    "functions": {
        "w1": "x1 + (0+1i)*x2",
        "w2": "x3 + 0.3*x1^2 + (0+1i)*x4 + (0+0.2i)*x1*x2",
        "v2": "x3 + 0.8*x1^2 - 0.5*x2^2 + (0+1i)*x4 + (0+1.2i)*x1*x2",
        "w1_bar": "x1 - (0+1i)*x2",
    },
    "charts": {"ca": {"functions": ["w1", "w2"]},
               "cb": {"functions": ["w1", "v2"]},
               "bad": {"functions": ["w1", "w1_bar"]}},
    "tasks": [
        {"task": "chart", "chart": "ca"},
        {"task": "chart", "chart": "ca", "grid": 4, "label": "chart_coarse"},
        {"task": "factorize", "chart": "ca", "function": "v2",
         "fit_degree": 2},
        {"task": "transition", "charts": ["ca", "cb"], "fit_degree": 2},
        {"task": "chart", "chart": "bad", "expect": "fail",
         "label": "chart_bad"},
        {"task": "factorize", "chart": "bad", "function": "w1",
         "expect": "fail", "label": "factorize_bad"},
    ],
}


GRID = defaults.GRID_PER_AXIS


def _count_chart_builds(monkeypatch):
    """(label, grid_k) of every chart build from now on."""
    builds = []
    build = scenario_module.build_spencer_chart

    def counting(*args, **kwargs):
        builds.append((kwargs["label"], kwargs["grid_k"]))
        return build(*args, **kwargs)

    monkeypatch.setattr(scenario_module, "build_spencer_chart", counting)
    return builds


@pytest.mark.parametrize("data, charts", [
    (builtin_scenarios()["std_c2"], [("cc", GRID), ("cc_mix", GRID)]),
    (SHEARED_N2, [("ca", GRID), ("ca", 4), ("cb", GRID), ("bad", GRID)]),
], ids=["std_c2", "sheared_n2"])
def test_each_chart_is_built_once_per_run(monkeypatch, data, charts):
    builds = _count_chart_builds(monkeypatch)
    scenario = parse_scenario(data)
    first = run_scenario(scenario)
    assert first.overall == "pass"
    assert builds == charts
    builds.clear()
    assert emit_json(run_scenario(scenario)) == emit_json(first)
    assert builds == charts


def test_a_failed_chart_gives_every_task_naming_it_the_same_note(
        monkeypatch):
    builds = _count_chart_builds(monkeypatch)
    result = run_scenario(parse_scenario(SHEARED_N2))
    chart, factorize = result.reports[-2:]
    assert chart.notes[0] == factorize.notes[0] == (
        "ChartError: field 1 is not almost holomorphic on the chart box: "
        "residual 2.000e+00 > 1e-10")
    assert builds.count(("bad", GRID)) == 1


def test_tol_det_reaches_the_shared_chart(capsys):
    # cc has certificate 1.0, so tol_det = 2 fails its build, and every
    # task that names it reports that one failure.
    assert cli.main(["builtin", "std_c2", "--tol", "tol_det=2"]) == 1
    tasks = {t["task"]: t for t in json.loads(capsys.readouterr().out)["tasks"]}
    note = ("ChartError: completed chart Jacobian degenerates: "
            "min |det| = 1.000e+00 <= 2")
    for label in ("chart", "factorize", "transition"):
        assert tasks[label]["status"] == "fail"
        assert tasks[label]["notes"] == [note]
    assert tasks["solve_ah_linear"]["status"] == "pass"


def test_degenerate_point_note_prints_plain_floats(scenario_file, capsys):
    data = minimal_scenario(J=[["0", "-1"], ["x1", "0"]],
                            tasks=[{"task": "split_type"}])
    assert cli.main(["run", scenario_file(data)]) == 1
    task = json.loads(capsys.readouterr().out)["tasks"][0]
    assert task["notes"] == [
        "DegenerateStructureError: eigenspace dimensions (0, 0) != (1, 1) "
        "at point (-1.0, -1.0)"]


def test_cli_json_byte_identity_across_processes(scenario_file):
    data = builtin_scenarios()["twisted_r4"]
    path = scenario_file(data, name="twisted.json")
    code1, out1, _ = run_cli("run", path)
    code2, out2, _ = run_cli("run", path)
    assert code1 == code2 == 0
    assert out1 == out2


@pytest.mark.parametrize("name", ["twisted_r4", "std_c1", "std_c2"])
def test_builtin_report_bytes_do_not_depend_on_blas_threads(name):
    outputs = []
    for threads in ("1", "2"):
        env = dict(cli_env(), OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-m", "spencerkit", "builtin", name],
            capture_output=True, timeout=300, env=env)
        assert proc.returncode == 0, proc.stderr.decode()
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


def test_overflowing_family_member_keeps_its_verdicts(scenario_file, capsys):
    # big overflows on most of its lattice; the real-arithmetic evaluation
    # of polynomial maps must keep the verdicts and the notes of the
    # complex one.
    data = minimal_scenario(
        box={"lo": [-10.0, -10.0], "hi": [10.0, 10.0]},
        maps={"big": {"components": ["1e308*x1^6 + x1", "x2"]}},
        families={"f": {"members": ["big"], "depth": 1}},
        tasks=[{"task": "axioms", "family": "f"}])
    with warnings.catch_warnings():
        # A floating-point warning that left the CLI would end the run.
        warnings.simplefilter("error")
        code = cli.main(["run", scenario_file(data)])
    assert code == 1
    out, err = capsys.readouterr()
    assert err == ""
    task = json.loads(out)["tasks"][0]
    assert task["metrics"] == {
        "axiom1_composition_failures": 2.0, "axiom2_inversion_failures": 2.0,
        "axiom3_identity_failures": 0.0, "axiom4_restriction_failures": 4.0,
        "axiom5_gluing_failures": 0.0, "members": 3.0}
    ident = "id[-10,10]x[-10,10]"
    assert task["notes"][2:4] == [
        "axiom2_inversion: not represented: big: image of big is not finite "
        "on its lattice",
        f"axiom2_inversion: not represented: ({ident}>>big): image of "
        f"({ident}>>big) is not finite on its lattice"]


def test_overflowing_symbolic_composite_is_kept_as_a_chain(scenario_file, capsys):
    # big composed with t has coefficients that overflow; the composite
    # must stay numeric instead of ending the run with exit 3.
    data = minimal_scenario(
        box={"lo": [-10.0, -10.0], "hi": [10.0, 10.0]},
        maps={"big": {"components": ["1e308*x1^6 + x1", "x2"]},
              "t": {"components": ["x1 + 0.5", "x2"],
                    "domain": {"lo": [-10.0, -10.0], "hi": [9.0, 10.0]}}},
        families={"f": {"members": ["big", "t"], "depth": 1}},
        tasks=[{"task": "axioms", "family": "f"}])
    with warnings.catch_warnings():
        # A floating-point warning that left the CLI would end the run.
        warnings.simplefilter("error")
        code = cli.main(["run", scenario_file(data)])
    assert code == 1
    out, err = capsys.readouterr()
    assert err == ""
    task = json.loads(out)["tasks"][0]
    assert task["metrics"] == {
        "axiom1_composition_failures": 16.0, "axiom2_inversion_failures": 4.0,
        "axiom3_identity_failures": 0.0, "axiom4_restriction_failures": 6.0,
        "axiom5_gluing_failures": 0.0, "members": 7.0}
    assert ("axiom2_inversion: not represented: (t>>big): image of (t>>big) "
            "is not finite on its lattice") in task["notes"]


def test_spencer_type_reuses_the_solve_of_a_solve_ah_task(monkeypatch):
    solves = []
    solve = crsolve.solve_ah_polynomials

    def counting(structure, degree, **kwargs):
        solves.append(degree)
        return solve(structure, degree, **kwargs)

    monkeypatch.setattr(crsolve, "solve_ah_polynomials", counting)
    monkeypatch.setattr(scenario_module, "solve_ah_polynomials", counting)
    data = minimal_scenario(tasks=[
        {"task": "solve_ah", "degree": 2, "expect_dim": 2},
        {"task": "spencer_type", "degree": 2, "expect_m": 1},
        {"task": "spencer_type", "degree": 2, "label": "again"},
        {"task": "spencer_type", "degree": 1, "expect_m": 1}])
    result = run_scenario(parse_scenario(data))
    assert result.overall == "pass"
    # One solve per degree, whichever task asks for it first.
    assert solves == [2, 1]
    assert result.reports[-1].notes[0] == "solution space dimension 1 at degree 1"


def test_spencer_type_refuses_a_grid_key(scenario_file, capsys):
    # The type estimate samples no lattice, so a grid would set nothing.
    data = minimal_scenario(tasks=[
        {"task": "spencer_type", "degree": 2, "grid": 4, "expect_m": 1}])
    assert cli.main(["run", scenario_file(data)]) == 2
    assert capsys.readouterr().err == (
        "error: task 0 (spencer_type) takes none of ['grid']; its keys are "
        "['task', 'label', 'expect', 'degree', 'expect_m']\n")


@pytest.mark.parametrize("name", ["std_c1", "std_c2", "twisted_r4"])
@pytest.mark.parametrize("grid", ["7", "1"])
def test_grid_flag_does_not_reach_spencer_type(capsys, name, grid):
    # A --grid below 2 exits 2 only when it reaches a task.
    assert cli.main(["builtin", name, "--task", "spencer_type"]) == 0
    plain = capsys.readouterr()
    assert cli.main(["builtin", name, "--task", "spencer_type",
                     "--grid", grid]) == 0
    assert capsys.readouterr() == plain


def test_small_twist_keeps_type_one(scenario_file, capsys):
    # twisted_r4 with its twist scaled by 1e-6: the singular-value gap of the
    # CR system is about 1.4e-7, and a nullspace basis reduced with pivots
    # below its noise counted z1 as a second coordinate (m = 2, exit 1).
    data = {"name": "twist_eps", "n": 2, "box": TWISTED_R4["box"],
            "J": [["0", "-1", "-1e-6*x1", "0"], ["1", "0", "0", "1e-6*x1"],
                  ["0", "0", "0", "-1"], ["0", "0", "1", "0"]],
            "tasks": [{"task": "solve_ah", "degree": 2, "expect_dim": 2},
                      {"task": "spencer_type", "degree": 2, "expect_m": 1}]}
    assert cli.main(["run", scenario_file(data)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [t["metrics"].get("m") for t in report["tasks"]] == [None, 1.0]
