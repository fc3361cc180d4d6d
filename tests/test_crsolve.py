from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
import sympy

from spencerkit import (
    ACStructure,
    Box,
    cr_equations_check,
    cr_residual,
    estimate_spencer_type,
    independence_rank,
    parse_polynomial,
    solve_ah_polynomials,
    standard_structure,
)
from spencerkit import crsolve, defaults
from spencerkit.errors import ConfigurationError, NumericalError
from spencerkit.jfield import eval_j, numerical_rank
from spencerkit.poly import Polynomial

from conftest import (TWISTED_ROWS, _poly_matrix, poly_identity_matrix,
                      poly_matmul)


def test_cr_residual_standard_values(std1, z_field, zbar_field):
    points = std1.box.lattice()
    assert cr_residual(std1, [z_field, zbar_field], points) == [0.0, 2.0]
    assert cr_residual(std1, [], points) == []


def test_cr_residual_twisted_values(twisted, w_field):
    zfirst = parse_polynomial("x1 + (0+1i)*x2", 4)
    w_res, z_res = cr_residual(twisted, [w_field, zfirst],
                               twisted.box.lattice())
    assert w_res == 0.0
    assert z_res == pytest.approx(0.5)


def test_cr_equations_check_reports(std1, z_field, zbar_field):
    rep = cr_equations_check(std1, z_field)
    assert rep.status == "pass"
    assert rep.metrics["cr_residual"] == 0.0
    rep = cr_equations_check(std1, zbar_field)
    assert rep.status == "fail"
    assert rep.metrics["cr_residual"] == 2.0


def test_solver_std1_degree2_canonical_basis(std1):
    sol = solve_ah_polynomials(std1, degree=2)
    assert sol.nullity == 2
    monos = list(sol.monomials)
    f1 = dict(zip(monos, sol.coefficients[0]))
    assert f1[(0, 1)] == pytest.approx(1.0)
    assert f1[(1, 0)] == pytest.approx(-1.0j)
    f2 = dict(zip(monos, sol.coefficients[1]))
    assert f2[(0, 2)] == pytest.approx(1.0)
    assert f2[(1, 1)] == pytest.approx(-2.0j)
    assert f2[(2, 0)] == pytest.approx(-1.0)
    bound = 10 * sol.svd_rel_tol * max(float(sol.singular_values[0]), 1.0)
    assert sol.residual <= bound


def test_solver_std2_degree1_spans_coordinates(std2):
    sol = solve_ah_polynomials(std2, degree=1)
    assert sol.nullity == 2
    monos = list(sol.monomials)
    f1 = dict(zip(monos, sol.coefficients[0]))
    f2 = dict(zip(monos, sol.coefficients[1]))
    assert f1[(0, 0, 0, 1)] == pytest.approx(1.0)
    assert f1[(0, 0, 1, 0)] == pytest.approx(-1.0j)
    assert f2[(0, 1, 0, 0)] == pytest.approx(1.0)
    assert f2[(1, 0, 0, 0)] == pytest.approx(-1.0j)
    assert sol.residual <= 1e-12
    rows = crsolve.jacobian_rows(sol.fields, std2.box.lattice())
    assert independence_rank(rows) == 4


def test_solver_twisted_nullities(twisted):
    for degree, nullity in ((1, 1), (2, 2), (3, 3)):
        sol = solve_ah_polynomials(twisted, degree=degree)
        assert sol.nullity == nullity


def test_solver_twisted_degree2_basis_is_w_span(twisted, w_field):
    sol = solve_ah_polynomials(twisted, degree=2)
    w_like = sol.fields[0]
    scaled = w_like * 1.0j
    diff = scaled - w_field
    assert diff.max_abs_coeff() < 1e-12
    w2 = sol.fields[1] * (-1.0)
    target = w_field * w_field
    assert (w2 - target).max_abs_coeff() < 1e-12


def test_solver_evaluates_j_once_per_solve(monkeypatch, std2):
    calls = []
    original = crsolve.eval_j

    def counting(structure, points):
        calls.append(len(points))
        return original(structure, points)

    monkeypatch.setattr(crsolve, "eval_j", counting)
    sol = solve_ah_polynomials(std2, degree=2)
    assert sol.nullity >= 2
    assert len(calls) == 1
    # The shared J gives the bits of one cr_residual call per field.
    grid = std2.box.lattice(sol.grid_k)
    assert sol.residual == max(cr_residual(std2, [f], grid)[0]
                               / f.max_abs_coeff() for f in sol.fields)


def test_solution_space_is_linear(std1):
    sol = solve_ah_polynomials(std1, degree=2)
    combo = sol.fields[0] * (0.3 - 0.7j) + sol.fields[1] * 2.5
    assert cr_residual(std1, [combo], std1.box.lattice())[0] < 1e-12


def test_solver_residuals_stable_on_finer_grids(std1):
    base = solve_ah_polynomials(std1, degree=2)
    for grid_k in (2, 5, 9):
        other = solve_ah_polynomials(std1, degree=2, grid_k=grid_k)
        assert other.nullity == base.nullity
        assert np.array_equal(other.coefficients, base.coefficients)


def test_solver_off_centre_box_finds_the_exact_nullity():
    # The operator does not depend on the box: off centre the nullity is the
    # one found on the centred box.
    box = Box((9.5,) * 4, (10.5,) * 4)
    shifted = ACStructure(2, box, _poly_matrix(TWISTED_ROWS, 4))
    sol = solve_ah_polynomials(shifted, degree=3)
    assert sol.nullity == 3
    bound = 10 * sol.svd_rel_tol * max(float(sol.singular_values[0]), 1.0)
    assert sol.residual <= bound


def _exact_cr_nullspace(structure, degree):
    """Exponent tuples and the exact nullspace of the CR system, in sympy.

    The unknowns are the coefficients of a generic polynomial of degree 1 to
    ``degree``; each x-coefficient of sum_i d_i f J_ij - i d_j f is one
    linear equation.
    """
    size = structure.real_dim
    xs = sympy.symbols(f"x1:{size + 1}")

    def monomial(exps):
        return sympy.Mul(*[x ** k for x, k in zip(xs, exps)])

    j = [[sum((sympy.Rational(c.real) * monomial(e)
               for e, c in entry.terms.items()), sympy.Integer(0))
          for entry in row] for row in structure.matrix]
    exps = [e for e in itertools.product(range(degree + 1), repeat=size)
            if 1 <= sum(e) <= degree]
    cs = sympy.symbols(f"c0:{len(exps)}")
    f = sum(c * monomial(e) for c, e in zip(cs, exps))
    grad = [sympy.diff(f, x) for x in xs]
    equations = []
    for col in range(size):
        image = sum(grad[i] * j[i][col] for i in range(size)) - sympy.I * grad[col]
        equations.extend(sympy.Poly(sympy.expand(image), *xs).coeffs())
    matrix, _ = sympy.linear_eq_to_matrix(equations, cs)
    return exps, matrix.nullspace()


def _oracle_nullity(structure, degree):
    """Exact nullity, after checking that the solver's basis spans the exact
    nullspace: both have that dimension and so has their stack."""
    exps, exact = _exact_cr_nullspace(structure, degree)
    nullity = len(exact)
    sol = solve_ah_polynomials(structure, degree=degree)
    assert sol.nullity == nullity
    position = {e: k for k, e in enumerate(exps)}
    order = [position[e] for e in sol.monomials]
    exact_rows = np.array([[complex(v[k]) for k in order] for v in exact])
    exact_rows /= np.max(np.abs(exact_rows), axis=1, keepdims=True)
    sigma = np.linalg.svd(np.vstack([exact_rows, sol.coefficients]),
                          compute_uv=False)
    assert int(np.sum(sigma > 1e-8 * sigma[0])) == nullity
    return nullity


@pytest.mark.parametrize("n, degree", [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2),
                                       (3, 1), (3, 2)])
def test_solver_matches_sympy_oracle_standard(n, degree):
    assert (_oracle_nullity(standard_structure(n), degree)
            == math.comb(n + degree, degree) - 1)


@pytest.mark.parametrize("degree, nullity", [(1, 1), (2, 2), (3, 3)])
def test_solver_matches_sympy_oracle_twisted(twisted, degree, nullity):
    assert _oracle_nullity(twisted, degree) == nullity


def test_solver_matches_sympy_oracle_conjugated(conjugated_integrable):
    # The shear makes the holomorphic coordinates polynomials of degree 2,
    # so only three of the five quadratic-or-lower solutions of the standard
    # structure survive at degree 2.
    assert _oracle_nullity(conjugated_integrable, 2) == 3


# The fixed unipotent shear Phi = (x1, x2, x3 + q3, x4 + q4), with q3 and q4
# quadratic polynomials in x1 and x2 (dyadic coefficients, so sympy reads
# them exactly).
SHEAR_TAILS = ["0.25*x1 - 0.125*x2 + 0.5*x1^2 - 0.25*x1*x2 + 0.375*x2^2",
               "-0.5*x1 + 0.375*x2 - 0.25*x1^2 + 0.125*x1*x2 + 0.5*x2^2"]


def _sheared_structure():
    """Pullback J = DPhi^-1 J0 DPhi of the standard n=2 structure.

    DPhi = I + N, where N is nonzero only in rows 3-4 and columns 1-2, so
    N^2 = 0 and DPhi^-1 = I - N.  The holomorphic coordinates z o Phi are
    w1 = x1 + i x2 and w2 = x3 + q3 + i (x4 + q4), of degree 1 and 2.
    """
    tails = [parse_polynomial(t, 4) for t in SHEAR_TAILS]
    dphi = poly_identity_matrix(4, 4)
    dphi_inv = poly_identity_matrix(4, 4)
    for row, tail in zip((2, 3), tails):
        for col in (0, 1):
            dphi[row][col] = tail.diff(col)
            dphi_inv[row][col] = -tail.diff(col)
    base = standard_structure(2)
    return ACStructure(2, base.box,
                       poly_matmul(poly_matmul(dphi_inv, base.matrix), dphi))


def test_sheared_structure_has_the_sheared_coordinates():
    s = _sheared_structure()
    q3, q4 = (parse_polynomial(t, 4) for t in SHEAR_TAILS)
    w2 = (Polynomial.variable(4, 2) + q3
          + (Polynomial.variable(4, 3) + q4) * Polynomial.constant(4, 1j))
    pts = s.box.lattice()
    j = eval_j(s, pts)
    assert np.max(np.abs(j @ j + np.eye(4))) == 0.0
    assert max(e.degree for row in s.matrix for e in row) == 1  # N J0 N = 0
    assert max(cr_residual(s, [parse_polynomial("x1 + (0+1i)*x2", 4), w2],
                           pts)) <= 1e-14


@pytest.mark.parametrize("degree, nullity", [(1, 1), (2, 3)])
def test_solver_matches_sympy_oracle_sheared(degree, nullity):
    # The polynomials in w1 (weight 1) and w2 (weight 2) of weighted degree
    # 1 to D: w1, then w1^2 and w2 (the standard structure has 5 at D = 2).
    # Degree 3 (nullity 5) takes the exact nullspace about 6 s.
    assert _oracle_nullity(_sheared_structure(), degree) == nullity


def test_solver_is_deterministic(std2):
    a = solve_ah_polynomials(std2, degree=2)
    b = solve_ah_polynomials(std2, degree=2)
    assert np.array_equal(a.coefficients, b.coefficients)


def test_solver_rejects_bad_configurations(std1):
    with pytest.raises(ConfigurationError):
        solve_ah_polynomials(std1, degree=0)
    with pytest.raises(ConfigurationError):
        solve_ah_polynomials(std1, degree=7)


def _rank(fields, points, svd_rel_tol=defaults.SVD_REL_TOL):
    return independence_rank(crsolve.jacobian_rows(fields, points), svd_rel_tol)


def test_independence_rank_counts_complex_pairs(std1, z_field):
    grid = std1.box.lattice()
    zsq = z_field * z_field
    assert _rank([z_field], grid) == 2
    assert _rank([z_field, zsq], grid) == 2


def _rank_by_one_svd(rows, svd_rel_tol=defaults.SVD_REL_TOL):
    """The rank rule as one SVD of every point's rows."""
    sigma = np.linalg.svd(rows, compute_uv=False)
    return int(np.max(numerical_rank(sigma, svd_rel_tol)))


_RNG_POINTS = np.random.default_rng(3).uniform(-1.0, 1.0, size=(40, 4))

# name: (variables, fields, points, rank).  The rows of each point are
# (2 * fields, variables): square, wide or tall.
RANK_STACKS = {
    "every_point_full": (4, ["x1 + (0+1i)*x2 + 0.3*x3^2",
                             "x3 + (0+1i)*x4 - 0.2*x1*x2"], _RNG_POINTS, 4),
    "only_last_full": (2, ["x1^2 + (0+1i)*x2^2"],
                       [[0.0, 0.0], [0.0, 0.3], [0.4, 0.0], [0.5, 0.7]], 2),
    "deficient_everywhere": (4, ["x1 + (0+1i)*x2",
                                 "x1^2 - x2^2 + (0+2i)*x1*x2"],
                             _RNG_POINTS, 2),
    "one_point_deficient": (2, ["x1^2 + (0+1i)*x2^2"], [[0.0, 0.3]], 1),
    "one_point_full": (2, ["x1^2 + (0+1i)*x2^2"], [[0.5, 0.7]], 2),
    "wide": (4, ["x1^2 + (0+1i)*x3^2"],
             [[0.0, 0.2, 0.3, 0.4], [0.0, 0.1, 0.0, 0.3],
              [0.5, 0.1, 0.2, 0.3]], 2),
    "tall": (2, ["x1 + (0+1i)*x2", "x1^2 - x2^2 + (0+2i)*x1*x2"],
             _RNG_POINTS[:, :2], 2),
    "tall_deficient": (2, ["x1^2", "x1^3"],
                       [[0.0, 0.5], [0.3, 0.5], [-0.2, 0.1]], 1),
}


@pytest.mark.parametrize("name", sorted(RANK_STACKS))
def test_independence_rank_matches_one_svd_of_every_point(name):
    nvars, texts, points, rank = RANK_STACKS[name]
    fields = [parse_polynomial(t, nvars) for t in texts]
    points = np.asarray(points, dtype=float)
    rows = crsolve.jacobian_rows(fields, points)
    assert independence_rank(rows) == _rank_by_one_svd(rows) == rank


@pytest.mark.parametrize("shape", [(2, 2), (2, 6), (6, 6), (6, 4), (4, 6)])
def test_independence_rank_matches_one_svd_on_random_low_rank_stacks(shape):
    # Products of (rows, r) and (r, cols) factors have rank r; each stack
    # draws r per point, and the last stack reaches full rank only at its
    # last point.
    rng = np.random.default_rng(sum(shape))
    full = min(shape)
    stacks = [rng.integers(0, full + 1, size=500) for _ in range(20)]
    stacks.append(np.r_[np.full(499, full - 1), full])
    for ranks in stacks:
        rows = np.zeros((len(ranks), *shape))
        for p, r in enumerate(ranks):
            rows[p] = (rng.standard_normal((shape[0], r))
                       @ rng.standard_normal((r, shape[1])))
        rows *= rng.uniform(1e-3, 1e3, size=(len(ranks), 1, 1))
        for tol in (defaults.SVD_REL_TOL, 1e-3):
            assert independence_rank(rows, tol) == _rank_by_one_svd(rows, tol)


def test_independence_rank_stops_at_a_full_rank_first_point(
        monkeypatch, std1, std2, z_field):
    shapes = []
    svd = np.linalg.svd

    def recording(a, *args, **kwargs):
        shapes.append(a.shape)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    z1, z2 = (parse_polynomial(t, 4) for t in ("x1 + (0+1i)*x2",
                                               "x3 + (0+1i)*x4"))
    points = std2.box.lattice()
    assert _rank([z1, z2], points) == 4
    assert shapes == [(1, 4, 4)]
    shapes.clear()
    assert _rank([z1], points) == 2
    assert shapes == [(1, 2, 4)]
    shapes.clear()
    zsq = z1 * z1
    assert _rank([zsq, z2], points) == 4
    assert shapes == [(1, 4, 4)]
    shapes.clear()
    assert _rank([z1, zsq], points) == 2
    assert shapes == [(1, 4, 4), (len(points) - 1, 4, 4)]
    shapes.clear()
    # Tall rows: rank 2 is full for four rows of two columns.
    assert _rank([z_field, z_field * z_field],
                 std1.box.lattice()) == 2
    assert shapes == [(1, 4, 2)]


def test_independence_rank_refuses_non_finite_rows(z_field):
    zsq = z_field * z_field
    points = np.array([[0.5, 0.5], [np.inf, 0.0]])
    with np.errstate(invalid="ignore"):
        with pytest.raises(NumericalError, match="not all finite"):
            _rank([zsq], points)


def test_independence_rank_invariant_under_recombination(std2):
    sol = solve_ah_polynomials(std2, degree=1)
    grid = std2.box.lattice()
    f1, f2 = sol.fields
    mixed = [f1 + f2 * (2.0 - 1.0j), f2]
    assert _rank(mixed, grid) == _rank([f1, f2], grid)


def test_estimate_spencer_type_values(std1, std2, twisted):
    assert estimate_spencer_type(std1, solve_ah_polynomials(std1, 2)).m == 1
    assert estimate_spencer_type(std2, solve_ah_polynomials(std2, 2)).m == 2
    for degree in (1, 2, 3):
        est = estimate_spencer_type(twisted, solve_ah_polynomials(twisted, degree))
        assert est.m == 1
        assert est.m < 2


def test_estimate_type_monotone_and_capped(std2):
    prev = 0
    for degree in (1, 2, 3):
        m = estimate_spencer_type(std2, solve_ah_polynomials(std2, degree)).m
        assert m >= prev
        assert m <= std2.n
        prev = m


def test_estimate_reports_rank_evidence(std2):
    est = estimate_spencer_type(std2, solve_ah_polynomials(std2, 2))
    assert est.rank_evidence == 2 * est.m
    assert len(est.selected) == est.m
