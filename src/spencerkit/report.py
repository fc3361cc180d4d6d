"""Uniform pass/fail reporting for every check in the toolkit.

Each check produces a Report: a task label, a status, the measured metrics,
the tolerances they were compared against, and free-form notes.  The
comparison direction is recorded per metric so reports are self-describing.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import NumericalError


@dataclass
class Report:
    """Outcome of one named check."""

    task: str
    status: str  # "pass" or "fail"
    metrics: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)
    comparisons: dict = field(default_factory=dict)  # metric name -> "le" | "ge"

    @property
    def passed(self):
        return self.status == "pass"

    def add_note(self, note):
        self.notes.append(str(note))


def make_report(task, metrics, tolerances, comparisons=None, notes=None,
                extra_pass=True):
    """Build a Report by comparing metrics against tolerances.

    Every metric named in ``tolerances`` is compared; direction defaults to
    "le" (metric must not exceed the tolerance) and can be flipped to "ge"
    per metric via ``comparisons``.  ``extra_pass`` folds in conditions that
    are not simple threshold checks.  A non-finite metric raises NumericalError.
    """
    if not all(math.isfinite(v) for v in metrics.values()):
        raise NumericalError(f"{task}: metrics are not all finite: {metrics}")
    comparisons = dict(comparisons or {})
    ok = bool(extra_pass)
    for name, bound in tolerances.items():
        if name not in metrics:
            raise ValueError(f"tolerance {name!r} has no matching metric")
        direction = comparisons.setdefault(name, "le")
        value = metrics[name]
        if direction == "le":
            ok = ok and (value <= bound)
        elif direction == "ge":
            ok = ok and (value >= bound)
        else:
            raise ValueError(f"unknown comparison {direction!r}")
    return Report(
        task=task,
        status="pass" if ok else "fail",
        metrics=dict(metrics),
        tolerances=dict(tolerances),
        notes=[str(n) for n in (notes or [])],
        comparisons=comparisons,
    )
