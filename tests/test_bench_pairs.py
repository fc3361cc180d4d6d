"""``tools/bench_pairs.py`` condenses alternating pair records into the
summary that a ``BENCH_*.json`` file reports, and counts each side's
package lines."""
from __future__ import annotations

import importlib.util
from pathlib import Path

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
