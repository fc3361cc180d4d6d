"""``tools/bench_pairs.py`` condenses alternating pair records into the
summary that a ``BENCH_*.json`` file reports, counts each side's package
lines, lists the report fields that differ between the sides, names the
scenario with each workload's highest memory peak and the task that
reached each scenario's peak, counts the minor page
faults of a warm pass per workload and runs a bench call again once when
the CPU-speed probe divides by zero."""
from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


def _tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _summary(pairs):
    return _tool()._summary(pairs)


def _record(parent_run_s, change_run_s):
    """A pair whose sides differ in run_s only."""
    side = {"setup_s": 0.4, "cold_run_s": 0.5, "peak_rss_mb": 100.0}
    return {"parent": dict(side, run_s=parent_run_s),
            "change": dict(side, run_s=change_run_s)}


def test_summary_reports_medians_and_how_often_the_change_is_lower():
    summary = _summary([_record(0.50, 0.40), _record(0.45, 0.46),
                        _record(0.48, 0.41), _record(0.47, 0.30)])
    assert summary["run_s"] == {"parent_median": 0.475,
                                "change_median": 0.405,
                                "change_lower_in": "3 of 4"}
    # A tie is not lower.
    assert summary["peak_rss_mb"] == {"parent_median": 100.0,
                                      "change_median": 100.0,
                                      "change_lower_in": "0 of 4"}
    assert set(summary) == {"setup_s", "cold_run_s", "run_s", "peak_rss_mb"}


def test_summary_adds_quartiles_from_five_pairs():
    summary = _summary([_record(p, c) for p, c in
                        ((1.0, 0.5), (2.0, 1.5), (3.0, 2.5), (4.0, 3.5),
                         (5.0, 4.5))])
    assert summary["run_s"]["change_lower_in"] == "5 of 5"
    assert summary["run_s"]["parent_median"] == 3.0
    assert summary["run_s"]["parent_quartiles"] == [2.0, 4.0]
    assert summary["run_s"]["change_quartiles"] == [1.5, 3.5]
    assert summary["setup_s"]["parent_quartiles"] == [0.4, 0.4]


def test_src_lines_counts_the_package_modules_only(tmp_path):
    package = tmp_path / "src" / "spencerkit"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("import os\n")
    (package / "kernel.py").write_text("a = 1\n\nb = 2\n")
    (package / "notes.txt").write_text("not\ncounted\n")
    (package / "sub").mkdir()
    (tmp_path / "src" / "other.py").write_text("not counted\n")
    assert _tool()._src_lines(tmp_path) == 4


def _report(status, residual, notes=()):
    return json.dumps({
        "scenario": "s", "version": "0.1.0", "overall": status,
        "tasks": [{"task": "check_acs", "status": "pass",
                   "metrics": {"acs_residual": 0.0}, "tolerances": {},
                   "notes": []},
                  {"task": "split_type", "status": status,
                   "metrics": {"eigen_residual": residual},
                   "tolerances": {"eigen_residual": 1e-8},
                   "notes": list(notes)}]})


def test_report_changes_names_every_changed_field():
    changes = _tool()._report_changes(
        {"w/00-s": _report("pass", 2e-16), "w/01-t": _report("pass", 0.0)},
        {"w/00-s": _report("pass", 0.0),
         "w/01-t": _report("fail", -0.0, ["late"])})
    assert changes == [
        {"scenario": "w/00-s", "task": "split_type",
         "field": "metrics.eigen_residual", "parent": 2e-16, "change": 0.0},
        {"scenario": "w/01-t", "task": None, "field": "overall",
         "parent": "pass", "change": "fail"},
        {"scenario": "w/01-t", "task": "split_type", "field": "status",
         "parent": "pass", "change": "fail"},
        # Equal as floats, not as report bytes.
        {"scenario": "w/01-t", "task": "split_type",
         "field": "metrics.eigen_residual", "parent": 0.0, "change": -0.0},
        {"scenario": "w/01-t", "task": "split_type", "field": "notes",
         "parent": [], "change": ["late"]},
    ]


def test_report_changes_lists_a_scenario_one_side_lacks():
    changes = _tool()._report_changes({}, {"w/00-s": _report("pass", 0.0)})
    assert {c["parent"] for c in changes} == {None}
    # Three report fields; the tasks have 4 and 5 (no leaf in {}).
    assert len(changes) == 12


def test_reports_run_the_packaged_scenarios_from_the_given_root():
    tool = _tool()
    reports, peaks, _ = tool._reports(str(TOOL.parents[1]), 1, [])
    assert list(reports) == ["builtin/std_c1", "builtin/std_c2",
                             "builtin/twisted_r4"]
    assert json.loads(reports["builtin/std_c2"])["overall"] == "pass"
    assert tool._report_changes(reports, reports) == []
    # Each scenario's own tracemalloc peak, in MB: a run allocates.
    assert list(peaks) == list(reports)
    assert all(0.0 < peak < 100.0 for peak in peaks.values())


def test_reports_count_the_minor_faults_of_a_warm_pass_per_workload():
    tool = _tool()
    reports, _, faults = tool._reports(str(TOOL.parents[1]), 1, ["pointwise"])
    assert any(label.startswith("pointwise/") for label in reports)
    # One count per workload, the packaged scenarios being "builtin".
    assert list(faults) == ["builtin", "pointwise"]
    assert all(isinstance(count, int) and count >= 0
               for count in faults.values())


def test_peak_scenarios_name_each_workloads_highest_peak_per_side():
    peaks = {"parent": {"builtin/std_c1": 3.0, "solve/00-a": 20.5,
                        "solve/01-b": 20.0, "closure/00-c": 1.0},
             "change": {"builtin/std_c1": 3.0, "solve/00-a": 9.0,
                        "solve/01-b": 12.0, "closure/00-c": 1.0}}
    assert _tool()._peak_scenarios(peaks) == {
        "builtin": {"parent": "builtin/std_c1", "change": "builtin/std_c1"},
        "solve": {"parent": "solve/00-a", "change": "solve/01-b"},
        "closure": {"parent": "closure/00-c", "change": "closure/00-c"},
    }


FAKE_SCENARIO = '''\
"""A run whose tasks hold "mb" MiB each while they run, and which holds
"outside" MiB itself before its first task."""
import json


def _run_one_task(scenario, spec, run):
    return len(bytearray(spec["mb"] << 20))


def run_scenario(scenario):
    outside = bytearray(scenario["outside"] << 20)
    del outside
    return [_run_one_task(scenario, spec, None) for spec in scenario["tasks"]]


def parse_scenario(data):
    return data


def emit_json(result):
    return json.dumps(result)


def builtin_scenarios():
    return {
        "labelled": {"outside": 1, "tasks": [
            {"task": "check_acs", "mb": 2},
            {"task": "chart", "label": "chart_big", "mb": 6},
            {"task": "cocycle", "mb": 3}]},
        "unlabelled": {"outside": 1, "tasks": [
            {"task": "split_type", "mb": 2}, {"task": "transition", "mb": 4}]},
        "outside": {"outside": 8, "tasks": [{"task": "chart", "mb": 4}]},
    }
'''


def test_scenario_runs_name_the_task_that_reached_each_peak(tmp_path):
    (tmp_path / "src" / "spencerkit").mkdir(parents=True)
    (tmp_path / "src" / "spencerkit" / "__init__.py").write_text("")
    (tmp_path / "src" / "spencerkit" / "scenario.py").write_text(FAKE_SCENARIO)
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "scenarios.py").write_text("")
    doc = _tool()._scenario_runs(str(tmp_path), 1, [])
    # A task's label, else its kind; None for a peak outside every task.
    assert doc["memory_peak_tasks"] == {"builtin/labelled": "chart_big",
                                        "builtin/unlabelled": "transition",
                                        "builtin/outside": None}
    # Each peak is the scenario's whole one, not its last task's.
    peaks = doc["memory_peaks"]
    assert 6.0 <= peaks["builtin/labelled"] < 6.5
    assert 8.0 <= peaks["builtin/outside"] < 8.5
    assert doc["reports"]["builtin/labelled"] == json.dumps(
        [2 << 20, 6 << 20, 3 << 20])


SPEED_ERROR = ("error: measure-0: worker exited 1:\n"
               "Traceback (most recent call last):\n"
               '  File "bench/speed.py", line 90, in sample\n'
               "ZeroDivisionError: float division by zero\n")


def _fake_bench_runs(tool, monkeypatch, root, errors):
    """bench/run.py calls in ``root`` whose error output is each of
    ``errors`` in turn, None for a call that succeeds; returns the calls."""
    out = root / ".bench_out" / "pointwise-seed7-trace0"
    out.mkdir(parents=True)
    (out / "summary.json").write_text(json.dumps({"report_sha256": {}}))
    calls = []

    def run(cmd, **kwargs):
        calls.append(cmd)
        error = errors[len(calls) - 1]
        if error is None:
            return tool.subprocess.CompletedProcess(
                cmd, 0, stdout='# summary\n{"correct": true}\n', stderr="")
        return tool.subprocess.CompletedProcess(cmd, 1, stdout="", stderr=error)

    monkeypatch.setattr(tool.subprocess, "run", run)
    return calls


def test_bench_retries_the_speed_probe_division_once(monkeypatch, tmp_path):
    tool = _tool()
    calls = _fake_bench_runs(tool, monkeypatch, tmp_path, [SPEED_ERROR, None])
    result, summary, retried = tool._bench(str(tmp_path), "pointwise", 7, 8, 0)
    assert len(calls) == 2
    assert result == {"correct": True}
    assert summary == {"report_sha256": {}}
    assert retried == "ZeroDivisionError: float division by zero"


def test_bench_aborts_on_other_failures_and_on_a_second_division(
        monkeypatch, tmp_path):
    tool = _tool()
    calls = _fake_bench_runs(tool, monkeypatch, tmp_path / "a",
                             ["error: worker exited 1:\nMemoryError\n", None])
    with pytest.raises(SystemExit, match="MemoryError"):
        tool._bench(str(tmp_path / "a"), "pointwise", 7, 8, 0)
    assert len(calls) == 1
    calls = _fake_bench_runs(tool, monkeypatch, tmp_path / "b",
                             [SPEED_ERROR, SPEED_ERROR, None])
    with pytest.raises(SystemExit, match="ZeroDivisionError"):
        tool._bench(str(tmp_path / "b"), "pointwise", 7, 8, 0)
    assert len(calls) == 2
    calls = _fake_bench_runs(tool, monkeypatch, tmp_path / "c", [None])
    assert tool._bench(str(tmp_path / "c"), "pointwise", 7, 8, 0)[2] is None


def test_a_pair_records_the_retried_side(monkeypatch):
    tool = _tool()
    side = {"setup_s": 0.4, "cold_run_s": 0.5, "run_s": 0.1,
            "peak_rss_mb": 50.0}
    result = {"correct": True, "failed": 0, "attempted": 9,
              "metrics": {k: {"value": v} for k, v in side.items()}}

    def bench(root, workload, seed, seconds, trace):
        return (result, {"report_sha256": {"a": "0"}},
                "ZeroDivisionError: float division by zero"
                if root == "c" else None)

    monkeypatch.setattr(tool, "_bench", bench)
    record, _ = tool._pair({"parent": "p", "change": "c"}, "pointwise", 7,
                           8, "parent")
    assert record["retried"] == {
        "change": "ZeroDivisionError: float division by zero"}
    assert record["parent"] == side and record["report_sha256_equal"]
