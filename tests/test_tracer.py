"""The benchmark tracer still finds and restores every binding it wraps.

``bench/tracer.py`` rebinds the package's functions by name; a refactor
that renames or drops one of the names it requires fails here rather than
in a traced benchmark run.
"""
from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import numpy.linalg  # noqa: F401  (a tracer target)

import spencerkit.scenario  # noqa: F401  (loads every package module)

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
