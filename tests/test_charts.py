from __future__ import annotations

import numpy as np
import pytest

from spencerkit import (
    Box,
    build_spencer_chart,
    cocycle_check,
    factorize,
    parse_polynomial,
    project,
    standard_structure,
    transition_map,
)
from spencerkit.errors import (ChartError, ConfigurationError, NumericalError,
                               OverlapError)
from spencerkit.poly import Polynomial, monomials_upto


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


def test_project_cloud_shapes(chart_z):
    cloud = project(chart_z, grid_k=4)
    assert cloud.points.shape == (16, 2)
    assert cloud.w.shape == (16, 1)
    assert np.allclose(cloud.w[:, 0],
                       cloud.points[:, 0] + 1j * cloud.points[:, 1])


def test_factorize_recovers_exact_polynomial(chart_z, z_field):
    h = z_field * z_field * (0.5 - 2.0j) + z_field * 3.0 + (1.0 + 1.0j)
    fac = factorize(chart_z, h, grid_k=7, fit_degree=3)
    assert fac.fit_residual <= 1e-12
    assert fac.fiber_variance <= 1e-12
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
    assert fac.fiber_variance == pytest.approx(1.0)
    assert fac.fit_residual == pytest.approx(0.5)


def test_transition_recovers_cubic(std1, z_field):
    cubic = parse_polynomial(
        "x1 + 0.1*x1^3 - 0.3*x1*x2^2 + (0+1i)*x2 "
        "+ (0+0.3i)*x1^2*x2 - (0+0.1i)*x2^3", 2)
    chart_a = build_spencer_chart(std1, [z_field], grid_k=7, label="a")
    chart_b = build_spencer_chart(std1, [cubic], grid_k=7, label="b")
    trans = transition_map(chart_a, chart_b, grid_k=7, fit_degree=4)
    assert trans.fit_residual <= 1e-12
    assert trans.holo_residual <= 1e-9
    assert trans.jacobian_min_det == pytest.approx(0.7, abs=1e-9)
    coeffs = {e: c for e, c in trans.map.components[0].terms_sorted()}
    assert coeffs[(3,)] == pytest.approx(0.1, abs=1e-8)
    assert coeffs[(1,)] == pytest.approx(1.0, abs=1e-8)


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


def test_cocycle_identity_triple_is_exact(std1, z_field):
    chart = build_spencer_chart(std1, [z_field])
    res = cocycle_check(chart, chart, chart, fit_degree=2)
    assert res.defect <= 1e-13
