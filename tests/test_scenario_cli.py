from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from spencerkit import cli, defaults
from spencerkit import scenario as scenario_module
from spencerkit.errors import NumericalError, ScenarioError
from spencerkit.scenario import (
    TASK_RUNNERS,
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

    monkeypatch.setitem(TASK_RUNNERS, "cr_check", blow_up)
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
])
def test_cli_rejects_malformed_families_with_exit_two(scenario_file, capsys,
                                                      family):
    data = minimal_scenario(
        maps={"m": {"components": ["x1", "x2"]}},
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
    data = minimal_scenario(
        J=[["1e300*x1^2", "-1"], ["1", "0"]],
        box={"lo": [-1.0, -1.0], "hi": [1e200, 1.0]},
        tasks=[{"task": "check_acs"}])
    with np.errstate(over="ignore", invalid="ignore"):
        code = cli.main(["run", scenario_file(data)])
    captured = capsys.readouterr()
    assert code == 3
    assert "not all finite" in captured.err
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


@pytest.mark.parametrize("name", ["twisted_r4", "std_c1"])
def test_builtin_report_bytes_do_not_depend_on_blas_threads(name):
    # std_c2 is left out: one transition fit's lstsq still moves in its
    # last digits with the BLAS thread count.
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
