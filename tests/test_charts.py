from __future__ import annotations

import numpy as np
import pytest

from spencerkit import (
    Box,
    build_spencer_chart,
    check_acs,
    cocycle_check,
    cr_equations_check,
    factorize,
    integrability_report,
    parse_polynomial,
    split_type,
    standard_structure,
    transition_map,
)
from spencerkit import charts, crsolve, defaults, jfield
from spencerkit.errors import (ChartError, CheckFailure, ConfigurationError,
                               NumericalError, OverlapError)
from spencerkit.poly import monomials_upto

from conftest import bench_scenarios, canonical_scenarios, every_point


@pytest.fixture(scope="module")
def chart_z(std1, z_field):
    return build_spencer_chart(std1, [z_field], label="c_z")


@pytest.fixture(scope="module")
def chart_w(twisted, w_field):
    return build_spencer_chart(twisted, [w_field], label="c_w")


def test_identity_chart_certificate(chart_z):
    assert chart_z.m == 1
    assert chart_z.certificate == pytest.approx(1.0)
    assert chart_z.passive_pairs == ()


def test_twisted_chart_uses_passive_completion(chart_w):
    assert chart_w.m == 1
    assert chart_w.certificate == pytest.approx(1.0)
    assert chart_w.passive_pairs == (0,)


def test_chart_rejects_degenerate_fields(std1, z_field):
    zsq = z_field * z_field
    with pytest.raises(ChartError):
        build_spencer_chart(std1, [zsq])
    off_origin = Box((0.2, 0.2), (0.45, 0.45))
    chart = build_spencer_chart(std1, [zsq], box=off_origin)
    assert chart.certificate > 0


def test_chart_degenerate_at_the_first_lattice_point(std1, z_field):
    # The first lattice point of [0, 1]^2 is the origin, where z^2 has rank
    # 0; the rank test must still look further, and the determinant fails.
    with pytest.raises(ChartError, match=r"^completed chart Jacobian "
                       r"degenerates: min \|det\| = 0\.000e\+00 <= 1e-06$"):
        build_spencer_chart(std1, [z_field * z_field],
                            box=Box((0.0, 0.0), (1.0, 1.0)))


def test_chart_refuses_non_finite_data(std1, z_field):
    # Exactly holomorphic with finite rows, but |det| = 1e400 overflows.
    huge = z_field * 1e200
    with np.errstate(over="ignore"), \
            pytest.raises(NumericalError, match="non-finite determinant"):
        build_spencer_chart(std1, [huge])
    # The gradient overflows at x1 = 1.2, so the CR residual is not finite.
    wide = standard_structure(1, Box((0.0, 0.0), (1.2, 1.0)))
    overflowing = parse_polynomial("x1 + (0+1i)*x2 + 5e307*x1^3", 2)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NumericalError, match="non-finite CR residual"):
        build_spencer_chart(wide, [overflowing])


def test_chart_rejects_non_holomorphic_fields(std1, zbar_field):
    with pytest.raises(ChartError):
        build_spencer_chart(std1, [zbar_field])


def test_chart_rejects_box_outside_structure(std1, z_field):
    with pytest.raises(ChartError):
        build_spencer_chart(std1, [z_field], box=Box((0.0, 0.0), (2.0, 2.0)))


def test_chart_field_count_bounds(std1, std2, z_field):
    with pytest.raises(ChartError):
        build_spencer_chart(std1, [])
    z1 = parse_polynomial("x1 + (0+1i)*x2", 4)
    z2 = parse_polynomial("x3 + (0+1i)*x4", 4)
    with pytest.raises(ChartError):
        build_spencer_chart(std1, [z_field, z_field])
    chart = build_spencer_chart(std2, [z1, z2])
    assert chart.m == 2
    assert chart.passive_pairs == ()


def test_a_certified_chart_build_reads_no_j(monkeypatch, std2):
    j_calls, row_calls = [], []
    eval_j, real_jacobian = jfield.eval_j, charts.real_jacobian

    def counting_j(structure, points):
        j_calls.append(len(points))
        return eval_j(structure, points)

    def counting_rows(fields, points):
        row_calls.append(len(fields))
        return real_jacobian(fields, points)

    monkeypatch.setattr(jfield, "eval_j", counting_j)
    monkeypatch.setattr(crsolve, "eval_j", counting_j)
    monkeypatch.setattr(crsolve, "real_jacobian", counting_rows)
    monkeypatch.setattr(charts, "real_jacobian", counting_rows)
    z1 = parse_polynomial("x1 + (0+1i)*x2", 4)
    z2 = parse_polynomial("x3 + (0+1i)*x4", 4)
    chart = build_spencer_chart(std2, [z1, z2], grid_k=4)
    assert chart.m == 2
    assert j_calls == []
    assert row_calls == [2]
    # The passive completion extends the same rows.
    row_calls.clear()
    assert build_spencer_chart(std2, [z1], grid_k=4).passive_pairs == (1,)
    assert j_calls == []
    assert row_calls == [1]


def test_chart_build_evaluates_j_once_and_rows_per_gate_and_rank(
        monkeypatch, std1, z_field, zbar_field):
    """A field that does not certify sends the build to the sampled gate,
    which evaluates J once: zbar fails it, and 1e10*z, whose defect cancels
    exactly, passes it, since one rounding unit of its scale is about 4e-6.
    The CR residual takes each field's Jacobian rows, and the rank takes
    the fields' rows once more; the sample keeps none."""
    j_calls, row_calls = [], []
    eval_j, real_jacobian = jfield.eval_j, charts.real_jacobian

    def counting_j(structure, points):
        j_calls.append(len(points))
        return eval_j(structure, points)

    def counting_rows(fields, points):
        row_calls.append(len(fields))
        return real_jacobian(fields, points)

    monkeypatch.setattr(jfield, "eval_j", counting_j)
    monkeypatch.setattr(crsolve, "eval_j", counting_j)
    monkeypatch.setattr(crsolve, "real_jacobian", counting_rows)
    monkeypatch.setattr(charts, "real_jacobian", counting_rows)
    with pytest.raises(ChartError, match="not almost holomorphic"):
        build_spencer_chart(std1, [zbar_field], grid_k=4)
    assert j_calls == [4 ** 2]
    assert row_calls == [1]
    j_calls.clear()
    row_calls.clear()
    lattices = {}
    assert build_spencer_chart(std1, [z_field * 1e10], grid_k=4,
                               _lattices=lattices).m == 1
    assert j_calls == [4 ** 2]
    assert row_calls == [1, 1]
    assert list(lattices["lattice"][1].kept) == ["j"]


def test_a_field_that_does_not_certify_fails_with_the_sampled_text(
        std1, z_field, zbar_field):
    nearly = z_field + zbar_field * 1e-6
    assert not charts._certified(std1, [nearly], std1.box, defaults.TOL_CR)
    with pytest.raises(ChartError) as exc:
        build_spencer_chart(std1, [nearly])
    assert str(exc.value) == ("field 0 is not almost holomorphic on the chart "
                              "box: residual 2.000e-06 > 1e-10")


def _stacked_chart(structure, fields, grid_k):
    """Passive pairs and certificate of a chart on its structure's box as
    they were found from rows stacked from complex gradients, verbatim."""
    points = structure.box.lattice(grid_k)
    blocks = []
    for grad in (f.gradient(points) for f in fields):
        blocks.append(grad.real)
        blocks.append(grad.imag)
    rows = np.stack(blocks, axis=1)
    n = structure.n
    available, chosen = list(range(n)), []
    while len(chosen) < n - len(fields):
        trials = {j: np.concatenate([rows, charts._pair_rows(len(rows), n, j)],
                                    axis=1) for j in available}
        best = max(available, key=lambda j: charts._min_volume(trials[j]))
        rows = trials[best]
        chosen.append(best)
        available.remove(best)
    return tuple(chosen), float(np.min(np.abs(np.linalg.det(rows))))


def test_chart_certificates_keep_the_bits_of_the_stacked_rows(
        std1, std2, twisted, z_field, w_field):
    std3 = standard_structure(3)
    z1, z2, z3 = (parse_polynomial(f"x{2 * k + 1} + (0+1i)*x{2 * k + 2}", 6)
                  for k in range(3))
    u1, u2 = (parse_polynomial(f"x{2 * k + 1} + (0+1i)*x{2 * k + 2}", 4)
              for k in range(2))
    cases = [(std1, [z_field * 1e10], 4),       # sampled: does not certify
             (std1, [z_field + z_field * z_field * (0.2 - 0.1j)], 5),
             (std2, [u1 + u2 * u2 * 0.3, u2 - u1 * u2 * 0.25j], 4),
             (std2, [u2 + u1 * u1 * (0.5 + 0.5j)], 5),
             (twisted, [w_field], 5),
             (std3, [z2 + z1 * z3 * 0.2], 3),
             (std3, [z3 * 0.5, z1 + z2 * z2 * 0.1j], 3)]
    completions = []
    for structure, fields, grid_k in cases:
        chart = build_spencer_chart(structure, fields, grid_k=grid_k)
        pairs, certificate = _stacked_chart(structure, fields, grid_k)
        assert chart.passive_pairs == pairs
        assert chart.certificate.hex() == certificate.hex()
        completions.append(len(pairs))
    assert completions == [0, 0, 0, 1, 1, 2, 1]


def _chart_build_cases():
    """Every chart of the packaged scenarios and of the bench's
    ``pointwise`` and ``solve`` scenarios at seeds 1-3, at the default
    density and at each of its chart tasks' ``grid``; and two charts of the
    flat structure whose partials read every variable, so that no lattice
    point repeats."""
    from spencerkit.scenario import parse_scenario
    cases = []
    for source, data in canonical_scenarios():
        scen = parse_scenario(data)
        for label, spec in scen.chart_specs.items():
            grids = {defaults.GRID_PER_AXIS} | {
                task.get("grid", defaults.GRID_PER_AXIS)
                for task in data["tasks"]
                if task["task"] == "chart" and task["chart"] == label}
            cases += [pytest.param(
                scen.structure, [scen.functions[f] for f in spec.function_names],
                spec.box, k, scen.tolerances,
                id=f"{source}-{data['name']}-{label}-{k}") for k in sorted(grids)]
    std2 = standard_structure(2)
    u1, u2 = (parse_polynomial(f"x{2 * k + 1} + (0+1i)*x{2 * k + 2}", 4)
              for k in range(2))
    for name, fields in (("dense", [u1 + u1 * u2 * 0.3, u2 - u2 * u2 * 0.2j]),
                         ("dense-passive", [u1 + (u1 * u1 + u2 * u2) * 0.25])):
        cases.append(pytest.param(std2, fields, std2.box, 4, {
            "tol_cr": defaults.TOL_CR, "tol_det": defaults.TOL_DET,
            "svd_rel_tol": defaults.SVD_REL_TOL}, id=name))
    return cases


def _chart_outcome(structure, fields, box, grid_k, tols):
    try:
        chart = build_spencer_chart(
            structure, fields, box=box, grid_k=grid_k, tol_cr=tols["tol_cr"],
            tol_det=tols["tol_det"], svd_rel_tol=tols["svd_rel_tol"])
    except CheckFailure as exc:
        return f"{type(exc).__name__}: {exc}"
    return chart.certificate.hex(), chart.passive_pairs


@pytest.mark.parametrize("structure, fields, box, grid_k, tols",
                         _chart_build_cases())
def test_chart_builds_at_distinct_points_keep_the_bits_of_every_point(
        monkeypatch, structure, fields, box, grid_k, tols):
    """The rows at the distinct points, spread back, have the bits of the
    rows at every point; and the certificate and passive pairs, or the
    error class and text, are those of a build at every point."""
    pts = box.lattice(grid_k)
    first, inverse = jfield.distinct_points(
        pts, [p for f in fields for p in f.partials()])
    rows = charts.real_jacobian(fields, pts)
    assert charts.real_jacobian(fields, pts[first])[inverse].tobytes() == \
        rows.tobytes()
    outcome = _chart_outcome(structure, fields, box, grid_k, tols)
    monkeypatch.setattr(charts, "distinct_points", every_point)
    assert outcome == _chart_outcome(structure, fields, box, grid_k, tols)


def test_a_coefficient_system_that_could_exceed_the_cap_is_not_built(
        monkeypatch, std1, z_field):
    # z has 2 monomials; std1 has real dimension 2 and 2 terms in J.  The
    # system has at most 2^2 * (2 + 2) = 16 entries, and is not built over
    # the cap.
    monkeypatch.setattr(defaults, "ENTRY_CAP", 15)
    monkeypatch.setattr(crsolve, "_cr_system_matrix", None)
    assert not charts._certified(std1, [z_field], std1.box, defaults.TOL_CR)
    monkeypatch.undo()
    monkeypatch.setattr(defaults, "ENTRY_CAP", 16)
    assert charts._certified(std1, [z_field], std1.box, defaults.TOL_CR)


def test_a_failed_chart_build_frees_its_gradients(std1):
    lattices = {}
    zbar = parse_polynomial("x1 - (0+1i)*x2", 2)
    with pytest.raises(ChartError, match="not almost holomorphic"):
        build_spencer_chart(std1, [zbar], _lattices=lattices)
    assert list(lattices["lattice"][1].kept) == ["j"]
    # The gradient overflows at x1 = 1.2, so the CR residual is not finite.
    wide = standard_structure(1, Box((0.0, 0.0), (1.2, 1.0)))
    overflowing = parse_polynomial("x1 + (0+1i)*x2 + 5e307*x1^3", 2)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NumericalError, match="non-finite CR residual"):
        build_spencer_chart(wide, [overflowing], _lattices=lattices)
    assert list(lattices["lattice"][1].kept) == ["j"]


def test_factorize_recovers_exact_polynomial(chart_z, z_field):
    h = z_field * z_field * (0.5 - 2.0j) + z_field * 3.0 + (1.0 + 1.0j)
    fac = factorize(chart_z, h, grid_k=7, fit_degree=3)
    assert fac.fit_residual <= 1e-12
    coeffs = dict(zip(fac.monomials, fac.coefficients))
    assert coeffs[(2,)] == pytest.approx(0.5 - 2.0j)
    assert coeffs[(1,)] == pytest.approx(3.0)
    assert coeffs[(0,)] == pytest.approx(1.0 + 1.0j)


def test_factorize_randomized_recovery(chart_z, std2, z_field):
    rng = np.random.default_rng(33)
    z1 = parse_polynomial("x1 + (0+1i)*x2", 4)
    z2 = parse_polynomial("x3 + (0+1i)*x4", 4)
    chart2 = build_spencer_chart(std2, [z1, z2])
    for _ in range(5):
        monos = monomials_upto(1, 3, include_constant=True)
        coefs = rng.standard_normal(len(monos)) + 1j * rng.standard_normal(len(monos))
        h = sum((z_field ** e[0]) * c for e, c in zip(monos, coefs))
        fac = factorize(chart_z, h, grid_k=7, fit_degree=3)
        scale = max(1.0, float(np.max(np.abs(coefs))))
        assert fac.fit_residual <= 1e-9 * scale
    for _ in range(5):
        monos = monomials_upto(2, 2, include_constant=True)
        coefs = rng.standard_normal(len(monos)) + 1j * rng.standard_normal(len(monos))
        h = sum((z1 ** e[0]) * (z2 ** e[1]) * c for e, c in zip(monos, coefs))
        fac = factorize(chart2, h, fit_degree=2)
        scale = max(1.0, float(np.max(np.abs(coefs))))
        assert fac.fit_residual <= 1e-9 * scale


def test_factorize_conjugate_residual_is_bounded_below(chart_z, zbar_field):
    residuals = {}
    for fit_degree in range(1, 7):
        fac = factorize(chart_z, zbar_field, grid_k=7, fit_degree=fit_degree)
        residuals[fit_degree] = fac.fit_residual
        assert fac.fit_residual > 1.0
    assert residuals[1] == pytest.approx(1.4142135623730951, abs=1e-12)
    assert residuals[2] == pytest.approx(1.4142135623730951, abs=1e-12)
    assert residuals[6] == pytest.approx(1.3197969543147208, abs=1e-9)


def test_factorize_detects_transverse_function(chart_w):
    x1 = parse_polynomial("x1", 4)
    fac = factorize(chart_w, x1, fit_degree=4)
    # Lattice points that share w = x3 + i x4 span x1 over [-0.5, 0.5]: any
    # function of w misses one end by at least half that spread.
    pts = chart_w.box.lattice()
    fibers = {}
    for w, h in zip(chart_w.evaluate(pts)[:, 0], x1.evaluate(pts)):
        fibers.setdefault(w, []).append(h)
    spread = max(np.max(np.abs(np.subtract.outer(hs, hs)))
                 for hs in fibers.values())
    assert spread == pytest.approx(1.0)
    assert fac.fit_residual >= spread / 2 - 1e-12
    assert fac.fit_residual == pytest.approx(0.5)


def test_transition_recovers_cubic(std1, z_field):
    cubic = parse_polynomial(
        "x1 + 0.1*x1^3 - 0.3*x1*x2^2 + (0+1i)*x2 "
        "+ (0+0.3i)*x1^2*x2 - (0+0.1i)*x2^3", 2)
    chart_a = build_spencer_chart(std1, [z_field], grid_k=7, label="a")
    chart_b = build_spencer_chart(std1, [cubic], grid_k=7, label="b")
    trans = transition_map(chart_a, chart_b, grid_k=7, fit_degree=4)
    assert trans.fit_residual <= 1e-12
    assert trans.jacobian_min_det == pytest.approx(0.7, abs=1e-9)
    coeffs = {e: c for e, c in trans.map.components[0].terms_sorted()}
    assert coeffs[(3,)] == pytest.approx(0.1, abs=1e-8)
    assert coeffs[(1,)] == pytest.approx(1.0, abs=1e-8)


def test_transition_to_a_conjugate_chart_fails_on_its_fit(std1, chart_z):
    # z + 0.1 conj(z) is not almost holomorphic, so build_spencer_chart
    # refuses it; the chart is built directly to reach the fit.
    mixed = parse_polynomial("1.1*x1 + (0+0.9i)*x2", 2)
    chart_m = charts.SpencerChart(structure=std1, fields=(mixed,),
                                  box=std1.box, passive_pairs=(),
                                  certificate=1.0, label="c_mix")
    trans = transition_map(chart_z, chart_m)
    assert trans.fit_residual == pytest.approx(0.131, abs=1e-3)
    assert trans.fit_residual > defaults.TOL_FIT


def test_transition_requires_overlap(std1, z_field):
    left = build_spencer_chart(std1, [z_field], box=Box((-1.0, -1.0), (-0.5, 1.0)))
    right = build_spencer_chart(std1, [z_field], box=Box((0.5, -1.0), (1.0, 1.0)))
    with pytest.raises(OverlapError):
        transition_map(left, right)


def test_transition_rejects_size_mismatch(chart_z, std2):
    z1 = parse_polynomial("x1 + (0+1i)*x2", 4)
    z2 = parse_polynomial("x3 + (0+1i)*x4", 4)
    chart2 = build_spencer_chart(std2, [z1, z2])
    with pytest.raises(ConfigurationError):
        transition_map(chart_z, chart2)


def test_cocycle_frozen_triple(std1, z_field):
    small = Box((-0.1, -0.1), (0.1, 0.1))
    quad = parse_polynomial(
        "x1 + 0.1*x1^2 - 0.1*x2^2 + (0+1i)*x2 + (0+0.2i)*x1*x2", 2)
    double = parse_polynomial("2*x1 + (0+2i)*x2", 2)
    chart_a = build_spencer_chart(std1, [z_field], box=small, label="a")
    chart_b = build_spencer_chart(std1, [quad], box=small, label="b")
    chart_c = build_spencer_chart(std1, [double], box=small, label="c")
    res = cocycle_check(chart_a, chart_b, chart_c, grid_k=9, fit_degree=6)
    assert res.defect == pytest.approx(1.6238558715202805e-10, rel=1e-6)
    assert res.defect <= 1e-8
    assert res.ac.fit_residual <= 1e-12
    coeffs = {e: c for e, c in res.ac.map.components[0].terms_sorted()}
    assert coeffs[(1,)] == pytest.approx(2.0, abs=1e-9)


def test_a_cocycle_on_one_box_builds_two_fit_matrices(monkeypatch, std1,
                                                     z_field):
    # a to b and a to c share a's matrix; b to c builds b's.
    double = parse_polynomial("2*x1 + (0+2i)*x2", 2)
    chart_a, chart_b, chart_c = (build_spencer_chart(std1, [f], label=label)
                                 for f, label in ((z_field, "a"),
                                                  (double, "b"),
                                                  (z_field, "c")))
    built, vandermonde = [], charts._vandermonde

    def counting_vandermonde(w, fit_degree):
        built.append(w.tobytes())
        return vandermonde(w, fit_degree)

    dets, det = [], np.linalg.det

    def counting_det(a):
        dets.append(len(a))
        return det(a)

    monkeypatch.setattr(charts, "_vandermonde", counting_vandermonde)
    monkeypatch.setattr(np.linalg, "det", counting_det)
    res = cocycle_check(chart_a, chart_b, chart_c, fit_degree=2)
    assert res.defect <= 1e-13
    assert len(built) == len(set(built)) == 2
    # The defect needs no transition's determinant; one is taken when read.
    assert dets == []
    expected = transition_map(chart_a, chart_b, fit_degree=2).jacobian_min_det
    dets.clear()
    assert res.ab.jacobian_min_det == res.ab.jacobian_min_det == expected
    assert dets == [25]


def test_cocycle_identity_triple_is_exact(std1, z_field):
    chart = build_spencer_chart(std1, [z_field])
    res = cocycle_check(chart, chart, chart, fit_degree=2)
    assert res.defect <= 1e-13


SHARING_SCENARIO = {
    "name": "sharing", "n": 2,
    "box": {"lo": [-1.0] * 4, "hi": [1.0] * 4},
    "functions": {"z1": "x1 + (0+1i)*x2", "z2": "x3 + (0+1i)*x4",
                  "z1_shift": "x1 + 0.5*x3 + (0+1i)*x2 + (0+0.5i)*x4",
                  "z2_shift": "x3 + 0.25*x1 + (0+1i)*x4 + (0+0.25i)*x2",
                  "mix": "x1^2 - x2^2 + (0+2i)*x1*x2 + x3 + (0+1i)*x4",
                  "z1_bar": "x1 - (0+1i)*x2"},
    "charts": {"a": {"functions": ["z1", "z2"]},
               "b": {"functions": ["z1_shift", "z2"]},
               "c": {"functions": ["z1", "z2_shift"],
                     "box": {"lo": [-0.5] * 4, "hi": [0.25] * 4}}},
    # Each lattice's uses follow one another, as in the bench scenarios: a
    # run keeps the lattice it sampled last.  The sampled checks take the
    # box's lattice at density 5, which charts a and b are built on.
    "tasks": [{"task": "chart", "chart": "c"},
              {"task": "check_acs"},
              {"task": "split_type"},
              {"task": "integrability"},
              {"task": "cr_check", "function": "z1"},
              {"task": "chart", "chart": "a"},
              {"task": "chart", "chart": "b"},
              {"task": "factorize", "chart": "a", "function": "mix",
               "fit_degree": 2},
              {"task": "factorize", "chart": "a", "function": "mix"},
              {"task": "factorize", "chart": "a", "function": "z1_bar",
               "expect": "fail"},
              {"task": "cocycle", "charts": ["a", "b", "c"]}],
}


def test_a_run_samples_each_lattice_once(monkeypatch):
    """J once per (box, grid_k) lattice that a sampled check uses, and not
    for the charts, whose CR gates certify; each field's Jacobian rows once
    per build, at its distinct points, or CR check, each chart's
    coordinates once per lattice, and
    each fit matrix with its singular values once per (coordinates,
    fit_degree)."""
    from spencerkit.scenario import parse_scenario, run_scenario
    j_calls, rows, values, matrices, sigmas = [], [], [], [], []
    eval_j, real_jacobian = jfield.eval_j, charts.real_jacobian
    evaluate, vandermonde, svd = (charts.SpencerChart.evaluate,
                                  charts._vandermonde, np.linalg.svd)

    def counting_j(structure, points):
        j_calls.append(points.tobytes())
        return eval_j(structure, points)

    def counting_rows(fields, points):
        rows.append((tuple(map(id, fields)), len(points)))
        return real_jacobian(fields, points)

    def counting_evaluate(self, points):
        values.append((self.fields, points.tobytes()))
        return evaluate(self, points)

    def counting_vandermonde(w, fit_degree):
        matrix, monomials = vandermonde(w, fit_degree)
        matrices.append((w.tobytes(), fit_degree))
        sigmas.append([matrix, 0])
        return matrix, monomials

    def counting_svd(a, *args, **kwargs):
        for entry in sigmas:
            entry[1] += entry[0] is a
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(crsolve, "eval_j", counting_j)
    monkeypatch.setattr(jfield, "eval_j", counting_j)
    monkeypatch.setattr(crsolve, "real_jacobian", counting_rows)
    monkeypatch.setattr(charts, "real_jacobian", counting_rows)
    monkeypatch.setattr(charts.SpencerChart, "evaluate", counting_evaluate)
    monkeypatch.setattr(charts, "_vandermonde", counting_vandermonde)
    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    result = run_scenario(parse_scenario(SHARING_SCENARIO))
    assert [r.status for r in result.reports] == ["pass"] * 11
    # The four checks on the box; the charts read no J.
    assert len(j_calls) == 1
    # Builds c, a and b take their two fields' rows at one point, the one
    # class of their linear fields; the CR check takes z1's on its lattice.
    assert [(len(ids), len(set(ids)), count) for ids, count in rows] == [
        (2, 2, 1), (1, 1, 5 ** 4), (2, 2, 1), (2, 2, 1)]
    # The box: a (the fits and a to b) and b.  The sub-box: b and c (b to
    # c), and a (a to c and the triple overlap).
    assert len(values) == len(set(values)) == 5
    # a on the box at fit_degree 2, and at 4 (two fits and a to b); b and a
    # on the sub-box.
    assert len(matrices) == len(set(matrices)) == 4
    assert [count for _, count in sigmas] == [1, 1, 1, 1]


def _standalone_metrics(data, spec):
    """The metrics of one chart or sampled check task from standalone calls
    on objects of a fresh parse, or the note of the check failure they
    raise."""
    from spencerkit.scenario import parse_scenario
    scen = parse_scenario(data)
    tols = scen.tolerances
    structure, grid_k = scen.structure, spec.get("grid", defaults.GRID_PER_AXIS)

    def chart(label, grid_k=defaults.GRID_PER_AXIS):
        chart_spec = scen.chart_specs[label]
        return build_spencer_chart(
            scen.structure, [scen.functions[f] for f in chart_spec.function_names],
            box=chart_spec.box, grid_k=grid_k, tol_cr=tols["tol_cr"],
            tol_det=tols["tol_det"], svd_rel_tol=tols["svd_rel_tol"],
            label=label)

    fit = {"grid_k": spec.get("grid", defaults.GRID_PER_AXIS),
           "fit_degree": spec.get("fit_degree", defaults.FIT_DEGREE)}
    try:
        if spec["task"] == "check_acs":
            return check_acs(structure, grid_k, tols["tol_acs"]).metrics
        if spec["task"] == "split_type":
            result = split_type(structure, structure.box.lattice(grid_k),
                                tols["svd_rel_tol"])
            return {"dim_minus": float(result.dims[1]),
                    "dim_plus": float(result.dims[0]),
                    "eigen_residual": result.eigen_residual}
        if spec["task"] == "integrability":
            return integrability_report(structure, grid_k,
                                        tols["tol_integrability"]).metrics
        if spec["task"] == "cr_check":
            return cr_equations_check(structure,
                                      scen.functions[spec["function"]],
                                      grid_k, tols["tol_cr"]).metrics
        if spec["task"] == "chart":
            built = chart(spec["chart"], fit["grid_k"])
            return {"certificate": built.certificate, "m": float(built.m)}
        if spec["task"] == "factorize":
            result = factorize(chart(spec["chart"]),
                               scen.functions[spec["function"]], **fit)
            return {"cond": result.cond, "fit_residual": result.fit_residual}
        if spec["task"] == "transition":
            result = transition_map(*map(chart, spec["charts"]), **fit)
            return {"cond": result.cond, "fit_residual": result.fit_residual,
                    "jacobian_min_det": result.jacobian_min_det}
        result = cocycle_check(*map(chart, spec["charts"]), **fit)
        return {"cocycle_defect": result.defect}
    except CheckFailure as exc:
        return f"{type(exc).__name__}: {exc}"


def _pointwise_scenarios(seed):
    from spencerkit.scenario import builtin_scenarios
    return bench_scenarios().build("pointwise", seed, "full",
                                    builtin_scenarios())


def _sampling_scenarios():
    import random
    from spencerkit.scenario import builtin_scenarios
    sheared = bench_scenarios()._solve_sheared(random.Random("solve:3"), 3,
                                                (1,), 2)
    return (list(builtin_scenarios().values()) + [sheared, SHARING_SCENARIO]
            + _pointwise_scenarios(3))


def _chart_cases():
    """Every chart of the packaged scenarios and of the bench's ``solve``
    scenarios at seed 1: its structure, fields, box and ``tol_cr``."""
    from spencerkit.scenario import builtin_scenarios, parse_scenario
    builtins = builtin_scenarios()
    named = [("builtin", data) for data in builtins.values()]
    named += [("solve1", data) for data in
              bench_scenarios().build("solve", 1, "full", builtins)]
    cases = []
    for source, data in named:
        scen = parse_scenario(data)
        cases += [pytest.param(
            scen.structure, [scen.functions[f] for f in spec.function_names],
            spec.box, scen.tolerances["tol_cr"],
            id=f"{source}-{data['name']}-{label}")
            for label, spec in scen.chart_specs.items()]
    return cases


@pytest.mark.parametrize("structure, fields, box, tol_cr", _chart_cases())
def test_chart_defect_bound_covers_the_sampled_residual(structure, fields,
                                                        box, tol_cr):
    """The bound of each field, plus one rounding unit of its scale,
    encloses the residual the sampled gate reads on the chart's lattice;
    and every chart certifies, so no build of these charts reads J."""
    bound, scale = crsolve.cr_defect_bound(structure, fields, box)
    sampled = crsolve.cr_residual(structure, fields,
                                  box.lattice(defaults.GRID_PER_AXIS))
    assert np.all(sampled <= bound + np.finfo(float).eps * scale)
    assert charts._certified(structure, fields, box, tol_cr)


SAMPLED_KINDS = ("check_acs", "split_type", "integrability", "cr_check",
                 "chart", "factorize", "transition", "cocycle")


@pytest.mark.parametrize("data", _sampling_scenarios(),
                         ids=lambda data: data["name"])
def test_shared_samples_give_the_bits_of_standalone_calls(data):
    """Every metric of every chart and sampled check task in a run equals,
    bit for bit, the one a standalone call on fresh objects gives."""
    from spencerkit.scenario import parse_scenario, run_scenario
    result = run_scenario(parse_scenario(data))
    checked = 0
    for spec, report in zip(data["tasks"], result.reports):
        if spec["task"] not in SAMPLED_KINDS:
            continue
        expected = _standalone_metrics(data, spec)
        if isinstance(expected, str):
            assert report.notes[0] == expected
        else:
            assert {k: float(v).hex() for k, v in report.metrics.items()} == \
                {k: v.hex() for k, v in expected.items()}, report.task
        checked += 1
    assert checked >= 3


@pytest.mark.parametrize("data", _pointwise_scenarios(5),
                         ids=lambda data: data["name"])
def test_a_pointwise_run_evaluates_j_once_per_lattice(monkeypatch, data):
    """split_type and every cr_check of a bench pointwise scenario share
    one sample of their one lattice; check_acs and integrability read J's
    entries from their polynomials and no sample."""
    from spencerkit.scenario import parse_scenario, run_scenario
    calls = []

    def counting(eval_j):
        def wrapper(structure, points):
            calls.append(len(points))
            return eval_j(structure, points)
        return wrapper

    monkeypatch.setattr(crsolve, "eval_j", counting(crsolve.eval_j))
    monkeypatch.setattr(jfield, "eval_j", counting(jfield.eval_j))
    result = run_scenario(parse_scenario(data))
    assert result.overall == "pass"
    assert len(result.reports) >= 5
    assert len(calls) == 1


def test_a_sample_serves_its_own_structure_only(std1, std2, z_field):
    sample = jfield.Sample(std2, std2.box.lattice(2))
    with pytest.raises(ConfigurationError):
        crsolve.cr_residual(std1, [z_field], sample)


def test_shared_calls_keep_one_lattice_and_one_fit_matrix(std1, z_field):
    lattices = {}
    box, half = std1.box, Box((-0.5, -1.0), (1.0, 1.0))
    sample = jfield.lattice_sample(lattices, std1, box, 5)
    assert isinstance(sample, jfield.Sample)
    assert jfield.lattice_sample(lattices, std1, Box(box.lo, box.hi), 5) is sample
    assert jfield.lattice_sample(lattices, std1, box, 4) is not sample
    assert jfield.lattice_sample(lattices, std1, half, 5) is not sample
    assert jfield.lattice_sample(lattices, std1, box, 5) is not sample     # not kept
    chart = build_spencer_chart(std1, [z_field])
    fit = charts._kept_fit_matrix(sample, chart, 1, "fit")
    assert charts._kept_fit_matrix(sample, chart, 1, "fit") is fit
    charts._kept_fit_matrix(sample, chart, 2, "fit")
    assert charts._kept_fit_matrix(sample, chart, 1, "fit") is not fit
    fit = charts._kept_fit_matrix(sample, chart, 1, "fit")
    # Another chart with the same field objects shares the fit matrix; one
    # with other fields does not.
    same = build_spencer_chart(std1, [z_field], label="same")
    assert charts._kept_fit_matrix(sample, same, 1, "fit") is fit
    other = build_spencer_chart(std1, [z_field * 2.0])
    assert charts._kept_fit_matrix(sample, other, 1, "fit") is not fit


def test_keep_frees_the_old_value_before_making_the_next():
    kept, made = {}, []

    def make(value):
        made.append((value, dict(kept)))
        return value

    assert jfield.keep(kept, "slot", 1, lambda: make("a")) == "a"
    assert jfield.keep(kept, "slot", 1, lambda: make("b")) == "a"
    assert jfield.keep(kept, "slot", 2, lambda: make("c")) == "c"
    assert made == [("a", {}), ("c", {})]

    def refuse():
        raise ConfigurationError("refused")

    with pytest.raises(ConfigurationError):
        jfield.keep(kept, "slot", 3, refuse)
    assert kept == {}                   # a refused value is not kept
