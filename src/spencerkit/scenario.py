"""Scenario files: declarative JSON checklists over one structure.

A scenario names a structure on a box, a dictionary of scalar functions,
local maps, chart and family declarations, and an ordered list of tasks.
Each task is one check; a task may declare ``"expect": "fail"`` when the
failure itself is the point (obstructed integrability, a non-factoring
function, a family that is not closed).

Reports are emitted either as canonical JSON (fixed key order, shortest
round-trip floats, no timing) so that repeated runs are byte-identical, or
as a human text summary that includes the wall-clock time.
"""
from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field as dc_field

from . import defaults
from .charts import build_spencer_chart, cocycle_check, factorize, transition_map
from .crsolve import (cr_equations_check, estimate_spencer_type,
                      solve_ah_polynomials)
from .errors import (ChartError, CompositionError, ConfigurationError,
                     DegenerateStructureError, DomainError, FitError,
                     IndependenceError, InversionError, OverlapError,
                     ScenarioError)
from .jfield import (ACStructure, Box, SampleGrid, check_acs,
                     integrability_report, split_type, standard_structure)
from .poly import parse_polynomial
from .pseudogroup import (GlueTest, LocalMap, OverDiagram, check_ah_map,
                          check_over_diagram, generate, validate_axioms)
from .report import Report, make_report

CHECK_FAILURES = (ChartError, IndependenceError, FitError, OverlapError,
                  CompositionError, InversionError, DomainError,
                  DegenerateStructureError)


@dataclass
class ChartSpec:
    label: str
    function_names: tuple
    box: object  # Box or None for the structure box


# The keys each JSON object of a scenario may carry, as in the README tables.
SCENARIO_KEYS = ("name", "n", "box", "J", "functions", "maps", "charts",
                 "families", "tolerances", "tasks")
MAP_KEYS = ("components", "domain", "inverse")
FAMILY_KEYS = ("members", "depth", "dedup_tol", "restriction_targets",
               "glue_tests")


@dataclass
class FamilySpec:
    label: str
    member_names: tuple
    depth: int
    dedup_tol: object  # float or None
    restriction_targets: tuple
    glue_tests: tuple


@dataclass
class Scenario:
    name: str
    n: int
    box: Box
    structure: ACStructure
    functions: dict
    maps: dict
    chart_specs: dict
    family_specs: dict
    tasks: list
    tolerances: dict


@dataclass
class RunResult:
    scenario: str
    version: str
    reports: list
    overall: str
    duration: float = 0.0


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def _require(data, key, where):
    if key not in data:
        raise ScenarioError(f"{where}: missing required key {key!r}")
    return data[key]


def _require_list(data, key, where, default=None):
    """``data[key]``, which must be a JSON list; ``default`` when absent,
    or required when no default is given."""
    value = _require(data, key, where) if default is None else data.get(key, default)
    if not isinstance(value, list):
        raise ScenarioError(f"{where}: {key!r} must be a list, got {value!r}")
    return value


def _json_object(data, where, keys=None):
    """``data``, which must be a JSON object with keys from ``keys`` when
    given: a misspelled key would otherwise be ignored and its default used."""
    if not isinstance(data, dict):
        raise ScenarioError(f"{where} must be a JSON object, got {data!r}")
    unknown = sorted(set(data) - set(keys or data), key=str)
    if unknown:
        raise ScenarioError(f"{where} takes none of {unknown}; "
                            f"its keys are {list(keys)}")
    return data


def _check_encodable(data):
    """Reject a string, key or value, that UTF-8 cannot encode, such as a lone
    surrogate from a ``\\ud800`` escape: no report could print it."""
    if isinstance(data, str):
        try:
            data.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise ScenarioError(f"string {data!r} is not valid Unicode: "
                                f"{exc.reason}") from exc
    elif isinstance(data, dict):
        for key, value in data.items():
            _check_encodable(key)
            _check_encodable(value)
    elif isinstance(data, list):
        for item in data:
            _check_encodable(item)


def _parse_box(data, where, dim):
    _json_object(data, where, ("lo", "hi"))
    try:
        box = Box(tuple(_require(data, "lo", where)),
                  tuple(_require(data, "hi", where)))
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"{where}: bad box: {exc}") from exc
    if box.dim != dim:
        raise ScenarioError(f"{where}: box dimension {box.dim}, expected {dim}")
    return box


def _parse_structure(data, n, box, where):
    size = 2 * n
    rows = _require(data, "J", where)
    if (not isinstance(rows, list) or len(rows) != size
            or any(not isinstance(r, list) or len(r) != size for r in rows)):
        raise ScenarioError(f"{where}: J must be a {size}x{size} string matrix")
    matrix = []
    for i, row in enumerate(rows):
        parsed = []
        for j, text in enumerate(row):
            try:
                parsed.append(parse_polynomial(text, size,
                                               max_degree=defaults.DEGREE_CAP))
            except ScenarioError as exc:
                raise ScenarioError(f"{where}: J[{i}][{j}]: {exc}") from exc
        matrix.append(parsed)
    return ACStructure(n, box, matrix)


def _parse_map(name, data, keys, dim, ambient, where):
    _json_object(data, where, keys)
    components = _require_list(data, "components", where)
    if len(components) != dim:
        raise ScenarioError(f"{where}: needs {dim} components")
    polys = []
    for k, text in enumerate(components):
        try:
            p = parse_polynomial(text, dim, max_degree=defaults.DEGREE_CAP)
        except ScenarioError as exc:
            raise ScenarioError(f"{where}: component {k}: {exc}") from exc
        if not p.is_real():
            raise ScenarioError(f"{where}: component {k} has complex coefficients")
        polys.append(p)
    domain = (_parse_box(data["domain"], f"{where}: domain", dim)
              if "domain" in data else ambient)
    return LocalMap.from_polynomials(polys, domain, name)


def parse_scenario(data):
    """Validate a scenario dictionary and resolve it into toolkit objects."""
    _json_object(data, "scenario", SCENARIO_KEYS)
    _check_encodable(data)
    name = _require(data, "name", "scenario")
    if not isinstance(name, str):
        raise ScenarioError(f'scenario: "name" must be a string, got {name!r}')
    n = _require(data, "n", "scenario")
    if not _is_int(n):
        raise ScenarioError(f'scenario: "n" must be an integer, got {n!r}')
    box = _parse_box(_require(data, "box", "scenario"), "scenario box", 2 * n)
    if "J" in data:
        structure = _parse_structure(data, n, box, f"scenario {name}")
    else:
        structure = standard_structure(n, box)

    functions = {}
    for fname, text in _json_object(data.get("functions", {}), "functions").items():
        try:
            functions[str(fname)] = parse_polynomial(
                text, 2 * n, max_degree=defaults.DEGREE_CAP)
        except ScenarioError as exc:
            raise ScenarioError(f"function {fname!r}: {exc}") from exc

    maps = {}
    for mname, mdata in _json_object(data.get("maps", {}), "maps").items():
        mname = str(mname)
        where = f"map {mname!r}"
        m = _parse_map(mname, mdata, MAP_KEYS, 2 * n, box, where)
        if "inverse" in mdata:
            inv = _parse_map(f"{mname}_inv", mdata["inverse"],
                             ("components", "domain"), 2 * n, box,
                             f"{where} inverse")
            m.declared_inverse = inv
            inv.declared_inverse = m
            maps[inv.label] = inv
        maps[mname] = m

    chart_specs = {}
    for cname, cdata in _json_object(data.get("charts", {}), "charts").items():
        cname = str(cname)
        where = f"chart {cname!r}"
        _json_object(cdata, where, ("functions", "box"))
        fnames = tuple(_require_list(cdata, "functions", where))
        for fn in fnames:
            if not isinstance(fn, str) or fn not in functions:
                raise ScenarioError(f"chart {cname!r} references unknown function {fn!r}")
        cbox = (_parse_box(cdata["box"], f"chart {cname!r} box", 2 * n)
                if "box" in cdata else None)
        chart_specs[cname] = ChartSpec(cname, fnames, cbox)

    family_specs = {}
    for gname, gdata in _json_object(data.get("families", {}), "families").items():
        gname = str(gname)
        where = f"family {gname!r}"
        _json_object(gdata, where, FAMILY_KEYS)
        member_names = tuple(_require_list(gdata, "members", where))
        for mn in member_names:
            if not isinstance(mn, str) or mn not in maps:
                raise ScenarioError(f"{where} references unknown map {mn!r}")
        depth = gdata.get("depth", 2)
        if not _is_int(depth) or depth < 0:
            raise ScenarioError(f"{where}: depth must be a nonnegative "
                                f"integer, got {depth!r}")
        dedup_tol = gdata.get("dedup_tol")
        if dedup_tol is not None and not _is_positive_number(dedup_tol):
            raise ScenarioError(f"{where}: dedup_tol must be a finite positive "
                                f"number, got {dedup_tol!r}")
        targets = tuple(_parse_box(b, f"{where} restriction target", 2 * n)
                        for b in _require_list(gdata, "restriction_targets",
                                               where, []))
        glue_tests = []
        for t, gt in enumerate(_require_list(gdata, "glue_tests", where, [])):
            _json_object(gt, f"{where} glue test {t}",
                         ("members", "boxes", "target"))
            labels = tuple(_require_list(gt, "members", f"{where} glue test {t}"))
            for lbl in labels:
                if lbl not in member_names:
                    raise ScenarioError(
                        f"{where} glue test {t} references non-member {lbl!r}")
            boxes = tuple(_parse_box(b, f"{where} glue test {t} box", 2 * n)
                          for b in _require_list(gt, "boxes", f"{where} glue test {t}"))
            if len(boxes) != len(labels):
                raise ScenarioError(
                    f"{where} glue test {t}: one box per member is required")
            target = _parse_box(_require(gt, "target", f"{where} glue test {t}"),
                                f"{where} glue test {t} target", 2 * n)
            glue_tests.append(GlueTest(labels, boxes, target))
        family_specs[gname] = FamilySpec(gname, member_names, depth, dedup_tol,
                                         targets, tuple(glue_tests))

    tolerances = _with_tolerances(defaults.DEFAULT_TOLERANCES,
                                  data.get("tolerances"))

    task_specs = data.get("tasks") or []
    if not isinstance(task_specs, list):
        raise ScenarioError('scenario: "tasks" must be a list of task objects')
    if not task_specs:
        raise ScenarioError("scenario declares no tasks")
    tables = {"function": functions, "map": maps, "chart": chart_specs,
              "family": family_specs}
    for i, spec in enumerate(task_specs):
        _validate_task(spec, tables, f"task {i}")
    tasks = [dict(spec) for spec in task_specs]

    return Scenario(name=name, n=n, box=box, structure=structure,
                    functions=functions, maps=maps, chart_specs=chart_specs,
                    family_specs=family_specs, tasks=tasks,
                    tolerances=tolerances)


def load_scenario(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"scenario file is not UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario file is not valid JSON: {exc}") from exc
    return parse_scenario(data)


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _is_positive_number(value):
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value) and value > 0)


def _with_tolerances(tolerances, overrides):
    """``tolerances`` with ``overrides`` applied; each override must name a
    known tolerance and be a finite positive number."""
    overrides = {} if overrides is None else overrides
    if not isinstance(overrides, dict):
        raise ScenarioError("tolerances must map names to numbers")
    out = dict(tolerances)
    for tname, tval in overrides.items():
        if tname not in out:
            raise ScenarioError(f"unknown tolerance {tname!r}")
        if not _is_positive_number(tval):
            raise ScenarioError(f"tolerance {tname!r} must be a finite "
                                f"positive number, got {tval!r}")
        out[tname] = float(tval)
    return out


def _validate_task(spec, tables, where):
    """Check one task object's keys, integers and references against TASKS."""
    kind = _require(_json_object(spec, where), "task", where)
    if not isinstance(kind, str) or kind not in TASKS:
        raise ScenarioError(f"{where}: unknown task {kind!r}")
    keys = TASKS[kind][1]
    _json_object(spec, f"{where} ({kind})", ("task", "label", "expect", *keys))
    if spec.get("expect", "pass") not in ("pass", "fail"):
        raise ScenarioError(f'{where}: expect must be "pass" or "fail"')
    refs = [key for key, ref in keys.items() if ref != "int"]
    if kind == "ah_map":
        refs = [key for key in refs if key in spec]
        if len(refs) != 1:
            raise ScenarioError(f'{where}: ah_map needs one of "map" and "family"')
    for key, ref in keys.items():
        if ref == "int" and key in spec and not _is_int(spec[key]):
            raise ScenarioError(f"{where}: {key!r} must be an integer, "
                                f"got {spec[key]!r}")
    for key in refs:
        table, count = keys[key] if isinstance(keys[key], tuple) else (keys[key], 0)
        labels = _require(spec, key, where)
        if not count:
            labels = [labels]
        elif not isinstance(labels, list) or len(labels) != count:
            raise ScenarioError(f"{where}: {key!r} must list {count} {table} labels")
        for label in labels:
            if not isinstance(label, str) or label not in tables[table]:
                raise ScenarioError(f"{where}: unknown {table} {label!r}")


# ---------------------------------------------------------------------------
# task runners
# ---------------------------------------------------------------------------

def _grid_of(scenario, spec):
    return SampleGrid(scenario.structure.box, spec.get("grid", defaults.GRID_PER_AXIS))


@dataclass
class _Run:
    """What the tasks of one ``run_scenario`` call share: the tolerances in
    force and the charts built so far.  Each runner gets it as ``run``."""

    scenario: Scenario
    tols: dict
    # (chart label, grid_k) -> SpencerChart or the check failure its build
    # raised.  The tolerances are fixed within a run, so they are no part
    # of the key.
    charts: dict = dc_field(default_factory=dict)

    def chart(self, label, grid_k=defaults.GRID_PER_AXIS):
        """The chart ``label`` validated at density ``grid_k``, built once per
        run; a failed build raises the same error to every task naming it."""
        key = (label, int(grid_k))
        if key not in self.charts:
            spec = self.scenario.chart_specs[label]
            fields = [self.scenario.functions[fn] for fn in spec.function_names]
            try:
                self.charts[key] = build_spencer_chart(
                    self.scenario.structure, fields, box=spec.box,
                    grid_k=grid_k, tol_cr=self.tols["tol_cr"],
                    tol_det=self.tols["tol_det"],
                    svd_rel_tol=self.tols["svd_rel_tol"], label=label)
            except CHECK_FAILURES as exc:
                # Without its traceback the error keeps no frame, and no
                # sample lattice, alive for the rest of the run.
                self.charts[key] = exc.with_traceback(None)
        chart = self.charts[key]
        if isinstance(chart, CHECK_FAILURES):
            raise chart.with_traceback(None)
        return chart


def _build_family(scenario, label, tols):
    spec = scenario.family_specs[label]
    seeds = [scenario.maps[mn] for mn in spec.member_names]
    family = generate(seeds, scenario.box, depth=spec.depth,
                      dedup_tol=spec.dedup_tol,
                      restriction_targets=spec.restriction_targets,
                      tol_invert=tols["tol_invert"], tol_det=tols["tol_det"])
    return family, spec


def _run_check_acs(scenario, spec, run):
    return check_acs(scenario.structure, grid=_grid_of(scenario, spec),
                     tol=run.tols["tol_acs"])


def _run_split_type(scenario, spec, run):
    grid = _grid_of(scenario, spec)
    result = split_type(scenario.structure, grid.points,
                        svd_rel_tol=run.tols["svd_rel_tol"])
    return make_report(
        task="split_type",
        metrics={"eigen_residual": result.eigen_residual,
                 "dim_plus": float(result.dims[0]),
                 "dim_minus": float(result.dims[1])},
        tolerances={"eigen_residual": run.tols["tol_eigen"]},
    )


def _run_integrability(scenario, spec, run):
    return integrability_report(scenario.structure,
                                grid=_grid_of(scenario, spec),
                                tol=run.tols["tol_integrability"])


def _run_cr_check(scenario, spec, run):
    field = scenario.functions[spec["function"]]
    return cr_equations_check(scenario.structure, field,
                              grid=_grid_of(scenario, spec),
                              tol=run.tols["tol_cr"])


def _run_solve_ah(scenario, spec, run):
    degree = int(spec.get("degree", 2))
    grid_k = int(spec["grid"]) if "grid" in spec else None
    solution = solve_ah_polynomials(scenario.structure, degree, grid_k=grid_k,
                                    svd_rel_tol=run.tols["svd_rel_tol"])
    sigma_max = float(solution.singular_values[0])
    bound = 10.0 * run.tols["svd_rel_tol"] * max(sigma_max, 1.0)
    metrics = {"nullity": float(solution.nullity),
               "solver_residual": solution.residual,
               "sigma_max": sigma_max}
    extra = True
    notes = []
    if "expect_dim" in spec:
        expected = int(spec["expect_dim"])
        extra = solution.nullity == expected
        notes.append(f"expected solution dimension {expected}, "
                     f"found {solution.nullity}")
    return make_report(task="solve_ah", metrics=metrics,
                       tolerances={"solver_residual": bound},
                       notes=notes, extra_pass=extra)


def _run_spencer_type(scenario, spec, run):
    degree = int(spec.get("degree", 2))
    grid_k = int(spec["grid"]) if "grid" in spec else None
    estimate = estimate_spencer_type(scenario.structure, degree=degree,
                                     grid_k=grid_k,
                                     svd_rel_tol=run.tols["svd_rel_tol"])
    expected = int(spec.get("expect_m", scenario.n))
    return make_report(
        task="spencer_type",
        metrics={"m": float(estimate.m),
                 "rank_evidence": float(estimate.rank_evidence)},
        tolerances={},
        notes=list(estimate.notes) + [f"expected type {expected}"],
        extra_pass=estimate.m == expected,
    )


def _run_chart(scenario, spec, run):
    chart = run.chart(spec["chart"],
                      grid_k=spec.get("grid", defaults.GRID_PER_AXIS))
    return make_report(
        task="chart",
        metrics={"certificate": chart.certificate, "m": float(chart.m)},
        tolerances={"certificate": run.tols["tol_det"]},
        comparisons={"certificate": "ge"},
        notes=[f"passive pairs {list(chart.passive_pairs)}"],
    )


def _run_factorize(scenario, spec, run):
    chart = run.chart(spec["chart"])
    h = scenario.functions[spec["function"]]
    result = factorize(chart, h, grid_k=spec.get("grid"),
                       fit_degree=int(spec.get("fit_degree", defaults.FIT_DEGREE)))
    return make_report(
        task="factorize",
        metrics={"fit_residual": result.fit_residual,
                 "fiber_variance": result.fiber_variance,
                 "cond": result.cond},
        tolerances={"fit_residual": run.tols["tol_fit"],
                    "fiber_variance": run.tols["tol_fit"]},
    )


def _run_transition(scenario, spec, run):
    label_a, label_b = spec["charts"]
    chart_a = run.chart(label_a)
    chart_b = run.chart(label_b)
    result = transition_map(chart_a, chart_b, grid_k=spec.get("grid"),
                            fit_degree=int(spec.get("fit_degree",
                                                    defaults.FIT_DEGREE)))
    return make_report(
        task="transition",
        metrics={"fit_residual": result.fit_residual,
                 "holo_residual": result.holo_residual,
                 "jacobian_min_det": result.jacobian_min_det,
                 "cond": result.cond},
        tolerances={"fit_residual": run.tols["tol_fit"],
                    "holo_residual": run.tols["tol_holo"],
                    "jacobian_min_det": run.tols["tol_det"]},
        comparisons={"jacobian_min_det": "ge"},
        notes=[f"{label_a} to {label_b} on overlap"],
    )


def _run_cocycle(scenario, spec, run):
    labels = spec["charts"]
    charts = [run.chart(lbl) for lbl in labels]
    result = cocycle_check(*charts, grid_k=spec.get("grid"),
                           fit_degree=int(spec.get("fit_degree",
                                                   defaults.FIT_DEGREE)))
    worst_holo = max(result.ab.holo_residual, result.bc.holo_residual,
                     result.ac.holo_residual)
    return make_report(
        task="cocycle",
        metrics={"cocycle_defect": result.defect,
                 "holo_residual": worst_holo},
        tolerances={"cocycle_defect": run.tols["tol_cocycle"]},
        notes=[f"charts {labels[0]}, {labels[1]}, {labels[2]}"],
    )


def _run_axioms(scenario, spec, run):
    family, fam_spec = _build_family(scenario, spec["family"], run.tols)
    reports = validate_axioms(family, glue_tests=fam_spec.glue_tests)
    metrics = {"members": float(len(family.members))}
    notes = []
    ok = True
    for rep in reports:
        metrics[f"{rep.task}_failures"] = rep.metrics["failures"]
        ok = ok and rep.passed
        notes.extend(f"{rep.task}: {note}" for note in rep.notes)
    return make_report(task="axioms", metrics=metrics, tolerances={},
                       notes=notes, extra_pass=ok)


def _run_ah_map(scenario, spec, run):
    grid_k = int(spec.get("grid", defaults.GRID_PER_AXIS))
    if "map" in spec:
        return check_ah_map(scenario.maps[spec["map"]], scenario.structure,
                            grid_k=grid_k, tol=run.tols["tol_map"])
    family, _ = _build_family(scenario, spec["family"], run.tols)
    worst = 0.0
    failures = []
    checked = 0
    for member in family.members:
        try:
            rep = check_ah_map(member, scenario.structure, grid_k=grid_k,
                               tol=run.tols["tol_map"])
        except DomainError as exc:
            failures.append(f"{member.label}: {exc}")
            continue
        checked += 1
        worst = max(worst, rep.metrics["ah_map_residual"])
        if not rep.passed:
            failures.append(member.label)
    notes = [f"checked {checked} of {len(family.members)} members"]
    notes.extend(f"failed: {f}" for f in failures[:10])
    return make_report(
        task="ah_map",
        metrics={"ah_map_residual": worst, "members": float(len(family.members))},
        tolerances={"ah_map_residual": run.tols["tol_map"]},
        notes=notes,
        extra_pass=not failures,
    )


def _run_over_diagram(scenario, spec, run):
    diagram = OverDiagram(
        phi=scenario.maps[spec["phi"]],
        f_src=scenario.maps[spec["f_src"]],
        f_dst=scenario.maps[spec["f_dst"]],
        psi=scenario.maps[spec["psi"]])
    return check_over_diagram(diagram,
                              grid_k=int(spec.get("grid", defaults.GRID_PER_AXIS)),
                              tol=run.tols["tol_diagram"])


# Per task kind: its runner and the keys it takes besides "task", "label" and
# "expect", as in the README table.  "int" marks an optional integer.  Any
# other entry is a required reference: the scenario table its label must be
# declared in, or (table, count) for a list of count labels.  ``ah_map``
# takes exactly one of its two references.
TASKS = {
    "check_acs": (_run_check_acs, {"grid": "int"}),
    "split_type": (_run_split_type, {"grid": "int"}),
    "integrability": (_run_integrability, {"grid": "int"}),
    "cr_check": (_run_cr_check, {"function": "function", "grid": "int"}),
    "solve_ah": (_run_solve_ah, {"degree": "int", "grid": "int",
                                 "expect_dim": "int"}),
    "spencer_type": (_run_spencer_type, {"degree": "int", "grid": "int",
                                         "expect_m": "int"}),
    "chart": (_run_chart, {"chart": "chart", "grid": "int"}),
    "factorize": (_run_factorize, {"chart": "chart", "function": "function",
                                   "grid": "int", "fit_degree": "int"}),
    "transition": (_run_transition, {"charts": ("chart", 2), "grid": "int",
                                     "fit_degree": "int"}),
    "cocycle": (_run_cocycle, {"charts": ("chart", 3), "grid": "int",
                               "fit_degree": "int"}),
    "axioms": (_run_axioms, {"family": "family"}),
    "ah_map": (_run_ah_map, {"map": "map", "family": "family", "grid": "int"}),
    "over_diagram": (_run_over_diagram, {"phi": "map", "f_src": "map",
                                         "f_dst": "map", "psi": "map",
                                         "grid": "int"}),
}
TASK_RUNNERS = {kind: runner for kind, (runner, _) in TASKS.items()}


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------

def _run_one_task(scenario, spec, run):
    kind = spec["task"]
    label = str(spec.get("label", kind))
    try:
        report = TASK_RUNNERS[kind](scenario, spec, run)
    except CHECK_FAILURES as exc:
        report = Report(task=label, status="fail",
                        notes=[f"{type(exc).__name__}: {exc}"])
    report.task = label
    expect = spec.get("expect", "pass")
    if expect == "fail":
        if report.status == "fail":
            report.status = "pass"
            report.add_note("expected failure observed")
        else:
            report.status = "fail"
            report.add_note("expected a failure but the check passed")
    return report


def run_scenario(scenario, tol_overrides=None, grid_override=None,
                 degree_override=None, task_filter=None):
    """Run the scenario's tasks one after another, in declaration order.

    Overrides replace the named tolerances everywhere, the grid density of
    every task that takes a ``grid`` key and the degree of the solver tasks.
    Each chart is built once per run, at each density a task asks for, and
    shared by every task that names it.
    """
    started = time.perf_counter()
    tols = _with_tolerances(scenario.tolerances, tol_overrides)
    specs = []
    for spec in scenario.tasks:
        if task_filter and spec["task"] != task_filter \
                and spec.get("label") != task_filter:
            continue
        spec = dict(spec)
        if grid_override is not None and "grid" in TASKS[spec["task"]][1]:
            spec["grid"] = int(grid_override)
        if degree_override is not None and "degree" in TASKS[spec["task"]][1]:
            spec["degree"] = int(degree_override)
        specs.append(spec)
    if not specs:
        raise ScenarioError(
            f"task filter {task_filter!r} matches no task in {scenario.name!r}")

    run = _Run(scenario, tols)
    reports = [_run_one_task(scenario, spec, run) for spec in specs]
    overall = "pass" if all(r.passed for r in reports) else "fail"
    return RunResult(scenario=scenario.name,
                     version=defaults.TOOLKIT_VERSION,
                     reports=reports, overall=overall,
                     duration=time.perf_counter() - started)


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

def emit_json(result):
    """Canonical JSON: fixed key order, sorted metric and tolerance keys,
    floats in Python's shortest round-trip form, no timing."""
    doc = {
        "scenario": result.scenario,
        "version": result.version,
        "overall": result.overall,
        "tasks": [{"task": rep.task,
                   "status": rep.status,
                   "metrics": {k: float(v) for k, v in sorted(rep.metrics.items())},
                   "tolerances": {k: float(v)
                                  for k, v in sorted(rep.tolerances.items())},
                   "notes": list(rep.notes)}
                  for rep in result.reports],
    }
    return json.dumps(doc, indent=2, ensure_ascii=False, allow_nan=False) + "\n"


def emit_text(result):
    """Human summary with per-task metrics and the total wall-clock time."""
    lines = [f"scenario {result.scenario}: {result.overall} "
             f"({len(result.reports)} tasks, {result.duration:.3f} s)"]
    for rep in result.reports:
        bits = []
        for k in sorted(rep.metrics):
            v = rep.metrics[k]
            if k in rep.tolerances:
                op = "<=" if rep.comparisons.get(k, "le") == "le" else ">="
                bits.append(f"{k}={v:.6g} {op} {rep.tolerances[k]:.6g}")
            else:
                bits.append(f"{k}={v:.6g}")
        lines.append(f"  [{rep.status}] {rep.task}  " + "  ".join(bits))
        for note in rep.notes:
            lines.append(f"      - {note}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# built-in scenarios
# ---------------------------------------------------------------------------

def _builtin_std_c1():
    unit = {"lo": [-1.0, -1.0], "hi": [1.0, 1.0]}
    return {
        "name": "std_c1",
        "n": 1,
        "box": unit,
        "functions": {
            "z": "x1 + (0+1i)*x2",
            "zbar": "x1 - (0+1i)*x2",
            "zsq": "x1^2 - x2^2 + (0+2i)*x1*x2",
            "z_cubic": ("x1 + 0.1*x1^3 - 0.3*x1*x2^2 + (0+1i)*x2 "
                        "+ (0+0.3i)*x1^2*x2 - (0+0.1i)*x2^3"),
            "z_quad": "x1 + 0.1*x1^2 - 0.1*x2^2 + (0+1i)*x2 + (0+0.2i)*x1*x2",
            "z_double": "2*x1 + (0+2i)*x2",
        },
        "maps": {
            "t": {"components": ["x1 + 0.8", "x2"],
                  "domain": {"lo": [-1.0, -1.0], "hi": [-0.7, 1.0]},
                  "inverse": {"components": ["x1 - 0.8", "x2"],
                              "domain": {"lo": [-0.2, -1.0], "hi": [0.1, 1.0]}}},
            "s": {"components": ["2*x1", "2*x2"],
                  "domain": {"lo": [0.2, 0.2], "hi": [0.45, 0.45]},
                  "inverse": {"components": ["0.5*x1", "0.5*x2"],
                              "domain": {"lo": [0.4, 0.4], "hi": [0.9, 0.9]}}},
            "m4": {"components": ["4*x1", "4*x2"],
                   "domain": {"lo": [0.2, 0.2], "hi": [0.225, 0.225]}},
            "sq": {"components": ["x1^2 - x2^2", "2*x1*x2"],
                   "domain": {"lo": [0.05, 0.05], "hi": [0.6, 0.6]}},
            "tr": {"components": ["x1 + 0.1", "x2 + 0.05"],
                   "domain": {"lo": [-0.5, -0.5], "hi": [0.5, 0.5]}},
            "conj": {"components": ["x1", "-x2"], "domain": unit},
            "amb_id": {"components": ["x1", "x2"], "domain": unit},
        },
        "charts": {
            "c_main": {"functions": ["z"]},
            "c_bad": {"functions": ["zsq"]},
            "c_a": {"functions": ["z"],
                    "box": {"lo": [-0.1, -0.1], "hi": [0.1, 0.1]}},
            "c_b": {"functions": ["z_quad"],
                    "box": {"lo": [-0.1, -0.1], "hi": [0.1, 0.1]}},
            "c_c": {"functions": ["z_double"],
                    "box": {"lo": [-0.1, -0.1], "hi": [0.1, 0.1]}},
            "c_t1": {"functions": ["z"]},
            "c_t2": {"functions": ["z_cubic"]},
        },
        "families": {
            "fam": {
                "members": ["t", "s"],
                "depth": 2,
                "glue_tests": [{
                    "members": ["s", "s"],
                    "boxes": [{"lo": [0.2, 0.2], "hi": [0.35, 0.45]},
                              {"lo": [0.3, 0.2], "hi": [0.45, 0.45]}],
                    "target": {"lo": [0.2, 0.2], "hi": [0.45, 0.45]},
                }],
            },
            "fam_no_inv": {"members": ["t", "s", "m4"], "depth": 0},
            "fam_ah": {"members": ["sq", "tr"], "depth": 2},
        },
        "tasks": [
            {"task": "check_acs"},
            {"task": "split_type"},
            {"task": "integrability"},
            {"task": "cr_check", "function": "z", "label": "cr_check_z"},
            {"task": "cr_check", "function": "zbar", "expect": "fail",
             "label": "cr_check_zbar"},
            {"task": "solve_ah", "degree": 2, "expect_dim": 2},
            {"task": "spencer_type", "degree": 2, "expect_m": 1},
            {"task": "chart", "chart": "c_main", "label": "chart_main"},
            {"task": "chart", "chart": "c_bad", "expect": "fail",
             "label": "chart_degenerate"},
            {"task": "factorize", "chart": "c_main", "function": "zsq",
             "grid": 7, "label": "factorize_zsq"},
            {"task": "factorize", "chart": "c_main", "function": "zbar",
             "grid": 7, "expect": "fail", "label": "factorize_zbar"},
            {"task": "transition", "charts": ["c_t1", "c_t2"], "grid": 7,
             "fit_degree": 4},
            {"task": "cocycle", "charts": ["c_a", "c_b", "c_c"], "grid": 9,
             "fit_degree": 6},
            {"task": "axioms", "family": "fam", "label": "axioms_closed"},
            {"task": "axioms", "family": "fam_no_inv", "expect": "fail",
             "label": "axioms_without_inverses"},
            {"task": "ah_map", "family": "fam_ah", "label": "ah_map_family"},
            {"task": "ah_map", "map": "conj", "expect": "fail",
             "label": "ah_map_conjugation"},
            {"task": "over_diagram", "phi": "tr", "f_src": "amb_id",
             "f_dst": "amb_id", "psi": "tr", "label": "diagram_translation"},
            {"task": "over_diagram", "phi": "tr", "f_src": "amb_id",
             "f_dst": "amb_id", "psi": "amb_id", "expect": "fail",
             "label": "diagram_broken"},
        ],
    }


def _builtin_std_c2():
    unit = {"lo": [-1.0] * 4, "hi": [1.0] * 4}
    return {
        "name": "std_c2",
        "n": 2,
        "box": unit,
        "functions": {
            "z1": "x1 + (0+1i)*x2",
            "z2": "x3 + (0+1i)*x4",
            "mix": "x1^2 - x2^2 + (0+2i)*x1*x2 + x3 + (0+1i)*x4",
            "z1_shift": "x1 + 0.5*x3 + (0+1i)*x2 + (0+0.5i)*x4",
        },
        "charts": {
            "cc": {"functions": ["z1", "z2"]},
            "cc_mix": {"functions": ["z1_shift", "z2"]},
        },
        "tasks": [
            {"task": "check_acs"},
            {"task": "split_type"},
            {"task": "integrability"},
            {"task": "cr_check", "function": "z1", "label": "cr_check_z1"},
            {"task": "solve_ah", "degree": 1, "expect_dim": 2,
             "label": "solve_ah_linear"},
            {"task": "solve_ah", "degree": 3, "grid": 7, "expect_dim": 9,
             "label": "solve_ah_cubic"},
            {"task": "spencer_type", "degree": 2, "expect_m": 2},
            {"task": "chart", "chart": "cc"},
            {"task": "factorize", "chart": "cc", "function": "mix"},
            {"task": "transition", "charts": ["cc", "cc_mix"]},
        ],
    }


def _builtin_twisted_r4():
    half = {"lo": [-0.5] * 4, "hi": [0.5] * 4}
    return {
        "name": "twisted_r4",
        "n": 2,
        "box": half,
        "J": [
            ["0", "-1", "-x1", "0"],
            ["1", "0", "0", "x1"],
            ["0", "0", "0", "-1"],
            ["0", "0", "1", "0"],
        ],
        "functions": {
            "w": "x3 + (0+1i)*x4",
            "w2": "x3^2 - x4^2 + (0+2i)*x3*x4",
            "zfirst": "x1 + (0+1i)*x2",
            "xcoord": "x1",
        },
        "charts": {
            "cw": {"functions": ["w"]},
        },
        "tasks": [
            {"task": "check_acs"},
            {"task": "split_type"},
            {"task": "integrability", "expect": "fail",
             "label": "integrability_obstructed"},
            {"task": "cr_check", "function": "w", "label": "cr_check_w"},
            {"task": "cr_check", "function": "zfirst", "expect": "fail",
             "label": "cr_check_zfirst"},
            {"task": "solve_ah", "degree": 2, "expect_dim": 2},
            {"task": "spencer_type", "degree": 2, "expect_m": 1},
            {"task": "chart", "chart": "cw"},
            {"task": "factorize", "chart": "cw", "function": "w2",
             "label": "factorize_w2"},
            {"task": "factorize", "chart": "cw", "function": "xcoord",
             "expect": "fail", "label": "factorize_transverse"},
        ],
    }


def builtin_scenarios():
    """Fresh dictionaries for the bundled demonstration scenarios."""
    return {
        "std_c1": _builtin_std_c1(),
        "std_c2": _builtin_std_c2(),
        "twisted_r4": _builtin_twisted_r4(),
    }
