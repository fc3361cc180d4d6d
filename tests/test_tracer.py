"""The benchmark tracer still finds and restores every binding it wraps.

``bench/tracer.py`` rebinds the package's functions by name; a refactor
that renames or drops one of the names it requires fails here rather than
in a traced benchmark run.
"""
from __future__ import annotations

import importlib
import importlib.util
import json
import sys
from pathlib import Path

import numpy.linalg  # noqa: F401  (a tracer target)
import pytest

import spencerkit.scenario  # noqa: F401  (loads every package module)
from spencerkit import cli

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _lookup(path):
    """The object bound at a dotted path such as ``spencerkit.poly.Polynomial.__call__``."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        owner = sys.modules.get(".".join(parts[:cut]))
        if owner is not None:
            break
    for part in parts[cut:]:
        owner = vars(owner)[part]
    return owner


def test_tracer_installs_and_restores_every_binding():
    tracer = _load_tracer()
    paths = list(tracer.REQUIRED_BINDINGS)
    paths += [f"{module}.{attr}" for _, module, attr, _, _ in tracer.TARGETS]
    originals = {path: _lookup(path) for path in paths}
    t = tracer.Tracer()
    t.install()
    try:
        assert set(tracer.REQUIRED_BINDINGS) <= t.bound
        for path in paths:
            assert _lookup(path) is not originals[path], path
    finally:
        t.uninstall()
    for path in paths:
        assert _lookup(path) is originals[path], path


def test_builtin_run_reaches_the_layers_the_benchmark_predicts(capsys):
    """A refactor that routes evaluation around a traced name fails here,
    not in a full ``bench/selfcheck.py`` run."""
    t = _load_tracer().Tracer()
    t.install()
    try:
        with t.root(0):
            code = cli.main(["builtin", "std_c2"])
    finally:
        t.uninstall()
    capsys.readouterr()
    assert code == 0
    metrics = t.metrics()
    for name in ("poly.evaluate.points", "jfield.eval_j.points",
                 "jfield.nijenhuis.calls", "crsolve.cr_residual.calls"):
        assert metrics[name] > 0, name


def test_builtin_closure_reaches_the_pseudogroup_layers(capsys):
    """``builtin std_c1`` builds and validates families; a refactor that
    routes the closure around a traced name fails here."""
    t = _load_tracer().Tracer()
    t.install()
    try:
        with t.root(0):
            code = cli.main(["builtin", "std_c1"])
    finally:
        t.uninstall()
    capsys.readouterr()
    assert code == 0
    metrics = t.metrics()
    for name in ("pseudogroup.try_evaluate.calls", "pseudogroup.covers.calls",
                 "pseudogroup.compose.calls", "pseudogroup.generate.calls",
                 "pseudogroup.invert.calls"):
        assert metrics[name] > 0, name


BENCH = TRACER.parent


def _load_bench_modules(monkeypatch):
    """``bench/scenarios.py`` and ``bench/selfcheck.py``, imported from their
    files with ``bench/`` first on ``sys.path``, as the benchmark runs them."""
    monkeypatch.syspath_prepend(str(BENCH))
    names = ("polys", "scenarios", "tracer", "selfcheck")
    for name in names:
        monkeypatch.delitem(sys.modules, name, raising=False)
    try:
        return (importlib.import_module("scenarios"),
                importlib.import_module("selfcheck"))
    finally:
        for name in names:
            sys.modules.pop(name, None)


WORKLOADS = ("closure", "pointwise", "solve")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_workload_exercises_what_the_selfcheck_requires(
        workload, monkeypatch, tmp_path, capsys):
    """Each tiny bench workload at seed 1 exits 0 through the CLI under the
    tracer, its ``selfcheck.EXERCISED`` counters are nonzero and its
    ``selfcheck.BYPASSED`` counters zero: a refactor that routes work
    around a traced name fails here, not only in ``bench/selfcheck.py``."""
    from spencerkit.scenario import builtin_scenarios
    scenarios, selfcheck = _load_bench_modules(monkeypatch)
    assert tuple(scenarios.WORKLOADS) == WORKLOADS
    built = scenarios.build(workload, 1, "tiny", builtin_scenarios())
    files = []
    for k, data in enumerate(built):
        path = tmp_path / f"{k:02d}-{data['name']}.json"
        path.write_text(json.dumps(data))
        files.append(str(path))
    t = selfcheck.tracer.Tracer()
    t.install()
    try:
        codes = []
        for k, path in enumerate(files):
            with t.root(k):
                codes.append(cli.main(["run", path]))
    finally:
        t.uninstall()
    capsys.readouterr()
    assert codes == [0] * len(files)
    metrics = t.metrics()
    for name in selfcheck.EXERCISED[workload]:
        assert metrics[name] > 0, name
    for name in selfcheck.BYPASSED.get(workload, ()):
        assert metrics[name] == 0, name
