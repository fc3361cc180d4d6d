from __future__ import annotations

import itertools
import math
import time

import numpy as np
import pytest
import sympy

from spencerkit import (
    ACStructure,
    Box,
    check_acs,
    cr_equations_check,
    cr_residual,
    estimate_spencer_type,
    independence_rank,
    integrability_report,
    parse_polynomial,
    solve_ah_polynomials,
    split_type,
    standard_structure,
)
from spencerkit import crsolve, defaults
from spencerkit.errors import ConfigurationError, NumericalError
from spencerkit.jfield import Sample, eval_j, numerical_rank
from spencerkit.poly import (Polynomial, monomial_key, monomials_upto,
                            real_jacobian)
from spencerkit.scenario import builtin_scenarios, parse_scenario

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
    rows = real_jacobian(sol.fields, std2.box.lattice())
    assert independence_rank(rows) == 4


def test_solver_twisted_nullities(twisted):
    for degree, nullity in ((1, 1), (2, 2), (3, 3)):
        sol = solve_ah_polynomials(twisted, degree=degree)
        assert sol.nullity == nullity


@pytest.mark.parametrize("degree", [1, 2, 3])
@pytest.mark.parametrize("k", range(13))
def test_scaled_twist_keeps_the_closed_form_solution_space(twisted, k, degree):
    # The twist scaled by eps = 10^(-k/2) is not integrable for any eps: the
    # AH functions of degree <= D are w, ..., w^D with w = x3 + i x4, and the
    # type is 1.  Small eps gives a small singular-value gap, and a nullspace
    # basis reduced with noisy pivots counted z1 as a second coordinate.
    eps = 10.0 ** (-k / 2)
    matrix = [list(row) for row in twisted.matrix]
    matrix[0][2] = matrix[0][2] * eps
    matrix[1][3] = matrix[1][3] * eps
    structure = ACStructure(2, twisted.box, matrix)
    sol = solve_ah_polynomials(structure, degree=degree)
    assert sol.nullity == degree
    assert estimate_spencer_type(structure, sol).m == 1
    # The Nijenhuis components are +/-eps and +/-eps^2 x1, so sup |N| on
    # [-0.5, 0.5]^4 is eps: the check fails while eps > tol_integrability,
    # and at k = 12 eps = 1e-6 passes, since it compares with <=.
    rep = integrability_report(structure)
    assert rep.metrics["integrability_residual"] == eps
    assert (rep.status == "fail") == (k <= 11)
    assert (rep.status == "fail") == (eps > defaults.TOL_INTEGRABILITY)
    # J P - i P = -i (J^2 + I) / 2 for P = (I - iJ)/2.
    acs = check_acs(structure).metrics["acs_residual"]
    assert split_type(structure, structure.box.lattice()).eigen_residual == acs / 2


def test_solver_twisted_degree2_basis_is_w_span(twisted, w_field):
    sol = solve_ah_polynomials(twisted, degree=2)
    w_like = sol.fields[0]
    scaled = w_like * 1.0j
    diff = scaled - w_field
    assert diff.max_abs_coeff() < 1e-12
    w2 = sol.fields[1] * (-1.0)
    target = w_field * w_field
    assert (w2 - target).max_abs_coeff() < 1e-12


def test_solver_samples_nothing(monkeypatch, std2, twisted):
    def refuse(*args, **kwargs):
        raise AssertionError("the solver sampled the structure")

    monkeypatch.setattr(Box, "lattice", refuse)
    monkeypatch.setattr(crsolve, "eval_j", refuse)
    monkeypatch.setattr(crsolve, "cr_residual", refuse)
    assert solve_ah_polynomials(std2, degree=3).nullity == 9
    assert solve_ah_polynomials(twisted, degree=2).nullity == 2


def test_solution_space_is_linear(std1):
    sol = solve_ah_polynomials(std1, degree=2)
    combo = sol.fields[0] * (0.3 - 0.7j) + sol.fields[1] * 2.5
    assert cr_residual(std1, [combo], std1.box.lattice())[0] < 1e-12


def test_solver_off_centre_box_finds_the_exact_nullity():
    # The operator does not depend on the box: off centre the nullity is the
    # one found on the centred box.
    box = Box((9.5,) * 4, (10.5,) * 4)
    shifted = ACStructure(2, box, _poly_matrix(TWISTED_ROWS, 4))
    sol = solve_ah_polynomials(shifted, degree=3)
    assert sol.nullity == 3
    bound = 10 * sol.svd_rel_tol * max(float(sol.singular_values[0]), 1.0)
    assert sol.residual <= bound


def _exact_cr_system(structure, degree):
    """Exponent tuples, row keys and the exact CR coefficient matrix, in sympy.

    The unknowns are the coefficients of a generic polynomial of degree 1 to
    ``degree``; each x-coefficient of sum_i d_i f J_ij - i d_j f is one
    linear equation, keyed by (component j, exponent tuple of the x-monomial).
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
    keys, equations = [], []
    for col in range(size):
        image = sum(grad[i] * j[i][col] for i in range(size)) - sympy.I * grad[col]
        for monom, coef in sympy.Poly(sympy.expand(image), *xs).terms():
            keys.append((col, monom))
            equations.append(coef)
    matrix, _ = sympy.linear_eq_to_matrix(equations, cs)
    return exps, keys, matrix


def _exact_cr_nullspace(structure, degree):
    """Exponent tuples and the exact nullspace of the CR system, in sympy."""
    exps, _, matrix = _exact_cr_system(structure, degree)
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


@pytest.mark.parametrize("name", ["sheared", "twisted"])
def test_cr_system_matrix_matches_the_sympy_matrix_entry_by_entry(name, twisted):
    # Dyadic and integer coefficients: every float entry is exact.
    structure = _sheared_structure() if name == "sheared" else twisted
    exps, keys, exact = _exact_cr_system(structure, 2)
    monomials = tuple(monomials_upto(structure.real_dim, 2))
    a, row_keys = crsolve._cr_system_matrix(structure, monomials)
    order = sorted(range(len(keys)),
                   key=lambda r: (keys[r][0], monomial_key(keys[r][1])))
    position = {e: k for k, e in enumerate(exps)}
    cols = [position[e] for e in monomials]
    expected = np.array([[complex(exact[r, c]) for c in cols] for r in order])
    assert a.shape == expected.shape
    assert np.array_equal(a, expected)
    assert row_keys.tolist() == [[keys[r][0], *keys[r][1]] for r in order]


# The assembly that multiplied and added Polynomial objects column by column,
# before the contributions were gathered from exponent arrays; kept verbatim
# as the bit-identity reference.
def _reference_cr_system_matrix(structure, monomials):
    size = structure.real_dim
    j_entries = structure.matrix
    images = []
    for exps in monomials:
        grad = [Polynomial(size, {exps: 1.0}).diff(i) for i in range(size)]
        images.append([
            sum((grad[i] * j_entries[i][j] for i in range(size)), -1j * grad[j])
            for j in range(size)])
    keys = sorted({(j, monomial_key(e)) for image in images
                   for j, comp in enumerate(image) for e in comp.terms})
    row_of = {key: r for r, key in enumerate(keys)}
    a = np.zeros((len(keys), len(monomials)), dtype=complex)
    for col, image in enumerate(images):
        for j, comp in enumerate(image):
            for e, coef in comp.terms.items():
                a[row_of[j, monomial_key(e)], col] = coef
    return a


SHEAR_TAILS_N3 = ["0.3*x1 - 0.7*x2 + 0.1*x1^2 - 0.6*x1*x2 + 0.9*x2^2",
                  "-0.2*x1 + 0.4*x2 - 0.8*x1^2 + 0.3*x1*x2 + 0.7*x2^2",
                  "0.6*x3 - 0.1*x4 + 0.2*x1*x3 - 0.3*x2*x4 + 0.7*x3^2",
                  "-0.4*x1 + 0.9*x4 + 0.5*x2*x3 - 0.2*x3*x4 + 0.1*x4^2"]


def _sheared_n3_structure():
    """Pullback of the standard n=3 structure by the unipotent shear
    (x1, x2, x3 + q3, x4 + q4, x5 + q5, x6 + q6): q3, q4 in x1, x2 and q5, q6
    in x1..x4.  DPhi = I + N with N^3 = 0, so DPhi^-1 = I - N + N^2."""
    tails = [parse_polynomial(t, 6) for t in SHEAR_TAILS_N3]
    eye = poly_identity_matrix(6, 6)
    zero = Polynomial.zero(6)
    n_part = [[zero] * 6 for _ in range(6)]
    for row, tail in zip((2, 3, 4, 5), tails):
        for col in range(row - row % 2):
            n_part[row][col] = tail.diff(col)
    n_squared = poly_matmul(n_part, n_part)
    dphi = [[eye[r][c] + n_part[r][c] for c in range(6)] for r in range(6)]
    dphi_inv = [[eye[r][c] - n_part[r][c] + n_squared[r][c] for c in range(6)]
                for r in range(6)]
    base = standard_structure(3)
    return ACStructure(3, base.box,
                       poly_matmul(poly_matmul(dphi_inv, base.matrix), dphi))


def _dense_structure(seed):
    """Seeded n=2 matrix with every entry a full quadratic with coefficients
    in (-1, 1): the contributions to one entry round differently in another
    order.  The assembly does not need J^2 = -I."""
    rng = np.random.default_rng(seed)
    exps = monomials_upto(4, 2, include_constant=True)
    return ACStructure(2, standard_structure(2).box, [
        [Polynomial(4, dict(zip(exps, rng.uniform(-1.0, 1.0, len(exps)))))
         for _ in range(4)] for _ in range(4)])


ASSEMBLY_STRUCTURES = {
    **{name: lambda name=name: parse_scenario(builtin_scenarios()[name]).structure
       for name in ("std_c1", "std_c2", "twisted_r4")},
    **{f"standard_n{n}": lambda n=n: standard_structure(n) for n in (1, 2, 3)},
    "sheared_n2": _sheared_structure,
    "sheared_n3": _sheared_n3_structure,
    "dense_n2": lambda: _dense_structure(25),
}


@pytest.mark.parametrize("name", sorted(ASSEMBLY_STRUCTURES))
def test_cr_system_matrix_matches_the_polynomial_reference_bit_for_bit(name):
    structure = ASSEMBLY_STRUCTURES[name]()
    for degree in range(1, 4 if structure.n == 3 else 5):
        monomials = tuple(monomials_upto(structure.real_dim, degree))
        a, _ = crsolve._cr_system_matrix(structure, monomials)
        ref = _reference_cr_system_matrix(structure, monomials)
        assert a.shape == ref.shape, (name, degree)
        assert a.tobytes() == ref.tobytes(), (name, degree)


# The exponent-array assembly that gathered J's contributions one term at a
# time, before they were gathered a row of J at a time; kept verbatim as the
# bit-identity reference, keys included.
def _per_term_cr_system_matrix(structure, monomials):
    size = structure.real_dim
    exps = np.array(monomials, dtype=np.int64).reshape(len(monomials), size)
    shifts = np.eye(size, dtype=np.int64)
    comps, targets, cols, values = [], [], [], []

    def gather(axis, j, offset, coef):
        live = np.flatnonzero(exps[:, axis])
        comps.append(np.full(len(live), j))
        targets.append(exps[live] + (offset - shifts[axis]))
        cols.append(live)
        values.append(exps[live, axis].astype(complex) * coef)

    for j in range(size):
        gather(j, j, 0, -1j)
    for i in range(size):
        for j in range(size):
            for t, coef in structure.matrix[i][j].terms.items():
                gather(i, j, np.array(t), coef)
    targets = np.concatenate(targets)
    keys = np.column_stack([np.concatenate(comps), targets.sum(axis=1), targets])
    keys, rows = np.unique(keys, axis=0, return_inverse=True)
    a = np.zeros((len(keys), len(monomials)), dtype=complex)
    np.add.at(a, (rows.ravel(), np.concatenate(cols)), np.concatenate(values))
    kept = np.any(a != 0, axis=1)
    return a[kept], np.delete(keys[kept], 1, axis=1)


def _random_structure(seed, n):
    """Seeded matrix in 2n variables whose entries have 0 to 9 real terms
    of degree <= 2, with coefficients of both signs and many magnitudes, so
    the contributions to one entry round differently in another order; with
    an odd seed, row 1 has no terms at all.  The assembly does not need
    J^2 = -I."""
    rng = np.random.default_rng(seed)
    size = 2 * n
    exps = monomials_upto(size, 2, include_constant=True)
    matrix = []
    for i in range(size):
        row = []
        for _ in range(size):
            picks = rng.choice(len(exps), size=min(rng.integers(0, 10), len(exps)),
                               replace=False)
            row.append(Polynomial(size, {exps[k]: rng.uniform(-1.0, 1.0)
                                         * 10.0 ** rng.integers(-3, 4)
                                         for k in picks}))
        matrix.append([Polynomial.zero(size)] * size if seed % 2 and i == 1
                      else row)
    return ACStructure(n, standard_structure(n).box, matrix)


@pytest.mark.parametrize("name", sorted(ASSEMBLY_STRUCTURES)
                         + [f"random_{seed}" for seed in range(6)])
def test_cr_system_matrix_matches_the_per_term_gather_bit_for_bit(name):
    if name.startswith("random_"):
        seed = int(name.split("_")[1])
        structure = _random_structure(seed, 1 + seed % 3)
    else:
        structure = ASSEMBLY_STRUCTURES[name]()
    for degree in range(1, 3 if structure.n == 3 else 5):
        monomials = tuple(monomials_upto(structure.real_dim, degree))
        a, keys = crsolve._cr_system_matrix(structure, monomials)
        ref, ref_keys = _per_term_cr_system_matrix(structure, monomials)
        assert a.shape == ref.shape, (name, degree)
        assert a.tobytes() == ref.tobytes(), (name, degree)
        assert keys.dtype == ref_keys.dtype
        assert keys.tobytes() == ref_keys.tobytes(), (name, degree)


def _complex_cr_residual(structure, fields, points):
    """The CR residual as it was taken from complex gradients, verbatim."""
    j = eval_j(structure, points)
    return [float(np.max(np.abs(np.einsum("pi,pij->pj", grad.real, j)
                                + 1j * np.einsum("pi,pij->pj", grad.imag, j)
                                - 1j * grad)))
            for grad in (f.gradient(points) for f in fields)]


def _same_floats(a, b):
    """Equal lists of floats, bit for bit; NaN matches NaN."""
    return np.array(a).tobytes() == np.array(b).tobytes()


@pytest.mark.parametrize("name", ["std_c1", "std_c2", "twisted_r4",
                                  "sheared_n2", "sheared_n3"])
def test_cr_residual_keeps_the_bits_of_the_complex_contraction(name):
    structure = ASSEMBLY_STRUCTURES[name]()
    size = structure.real_dim
    rng = np.random.default_rng(size)
    solved = solve_ah_polynomials(structure, degree=2).fields
    exps = monomials_upto(size, 3, include_constant=True)
    noisy = [Polynomial(size, {e: complex(*rng.uniform(-2.0, 2.0, 2))
                               * (rng.random() < 0.5) for e in exps})
             for _ in range(3)]
    real = [Polynomial(size, {e: rng.uniform(-2.0, 2.0) for e in exps[:6]})]
    fields = list(solved) + noisy + real + [Polynomial.zero(size)]
    for k in (3, 4):
        points = structure.box.lattice(k)
        expected = _complex_cr_residual(structure, fields, points)
        assert _same_floats(cr_residual(structure, fields, points), expected)
        sample = Sample(structure, points)
        assert _same_floats(cr_residual(structure, fields, sample), expected)
        # The sample keeps J, and no field's rows.
        assert list(sample.kept) == ["j"]


def test_cr_residual_keeps_its_bits_and_non_finite_values(std1, z_field,
                                                          zbar_field):
    points = std1.box.lattice()
    # Does not certify (charts._certified): the residual is sampled.
    nearly = z_field + zbar_field * 1e-6
    expected = _complex_cr_residual(std1, [nearly, zbar_field], points)
    for where in (points, Sample(std1, points)):
        assert _same_floats(cr_residual(std1, [nearly, zbar_field], where),
                            expected)
    assert f"{expected[0]:.3e}" == "2.000e-06"
    # The gradient overflows at x1 = 1.2: both residuals are infinite.
    wide = standard_structure(1, Box((0.0, 0.0), (1.2, 1.0)))
    overflowing = parse_polynomial("x1 + (0+1i)*x2 + 5e307*x1^3", 2)
    points = wide.box.lattice()
    with np.errstate(over="ignore", invalid="ignore"):
        expected = _complex_cr_residual(wide, [overflowing], points)
        for where in (points, Sample(wide, points)):
            assert _same_floats(cr_residual(wide, [overflowing], where),
                                expected)
        rows = real_jacobian([overflowing], points)
    assert expected == [np.inf]
    with pytest.raises(NumericalError, match="^field gradients are not all "
                       "finite on the points$"):
        independence_rank(rows)


# The residual the solver took before it stopped sampling, kept as the
# reference: the worst lattice CR defect of each basis field, relative to its
# largest coefficient, at the former default density 2D + 1.
def _lattice_residuals(structure, solution):
    points = structure.box.lattice(defaults.default_solver_grid(solution.degree))
    return np.array([r / f.max_abs_coeff() for r, f in zip(
        cr_residual(structure, solution.fields, points), solution.fields)])


def _defect_bounds(structure, solution, coefficients=None):
    """The solver's bound per basis field and its scale, the same bound
    from |A| and |c| (``_defect_bound``), both relative to the field's
    largest coefficient, as the solver's residual is."""
    if coefficients is None:
        coefficients = solution.coefficients
    a, keys = crsolve._cr_system_matrix(structure, solution.monomials)
    bound, scale = crsolve._defect_bound(a, keys, coefficients, structure.box)
    top = np.max(np.abs(coefficients), axis=1)
    return bound / top, scale / top


@pytest.mark.parametrize("degree", [1, 2, 3])
@pytest.mark.parametrize("name", ["std_c1", "std_c2", "twisted_r4",
                                  "sheared_n2", "sheared_n3"])
def test_defect_bound_covers_the_sampled_residual(name, degree):
    structure = ASSEMBLY_STRUCTURES[name]()
    sol = solve_ah_polynomials(structure, degree=degree)
    bound, scale = _defect_bounds(structure, sol)
    assert sol.residual == max(bound)
    # Allowance: one rounding unit of the absolute-value bound.  On the
    # benchmark's sheared structures the sampled value exceeds the bound by
    # at most 0.05 of it.
    sampled = _lattice_residuals(structure, sol)
    assert np.all(sampled <= bound + np.finfo(float).eps * scale)


def test_defect_bound_fails_a_perturbed_coefficient():
    structure = ASSEMBLY_STRUCTURES["std_c2"]()
    sol = solve_ah_polynomials(structure, degree=2)
    tol = (defaults.SOLVER_RESIDUAL_FACTOR * sol.svd_rel_tol
           * max(float(sol.singular_values[0]), 1.0))
    assert sol.residual <= tol
    points = structure.box.lattice()
    for field, col in itertools.product(range(sol.nullity),
                                        range(len(sol.monomials))):
        coefficients = sol.coefficients.copy()
        coefficients[field, col] += 1e-6
        bound, scale = _defect_bounds(structure, sol, coefficients)
        assert bound[field] > tol, (field, sol.monomials[col])
        # A defect far above rounding is enclosed too.
        perturbed = Polynomial(4, dict(zip(sol.monomials, coefficients[field])))
        sampled = (cr_residual(structure, [perturbed], points)[0]
                   / perturbed.max_abs_coeff())
        assert sampled <= bound[field] + np.finfo(float).eps * scale[field]


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
    return independence_rank(real_jacobian(fields, points), svd_rel_tol)


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
    rows = real_jacobian(fields, points)
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


def _r6(a):
    """The type ladder on [-0.5, 0.5]^6 at c = x3: J = [[J0, a K, (a c / 2)
    J0], [0, J0, c K], [0, 0, J0]] with J0 = [[0, -1], [1, 0]] and
    K = diag(1, -1), so J^2 = -I for every a.  a = x1 chains the twist
    (type 1); a = 0 is C times a twisted R^4 (type 2)."""
    corner = "0.5*x1*x3" if a == "x1" else "0"
    minus = {"0": "0", "x1": "-x1", "x3": "-x3", corner: "-" + corner}
    rows = [["0", "-1", a, "0", "0", minus[corner]],
            ["1", "0", "0", minus[a], corner, "0"],
            ["0", "0", "0", "-1", "x3", "0"],
            ["0", "0", "1", "0", "0", "-x3"],
            ["0", "0", "0", "0", "0", "-1"],
            ["0", "0", "0", "0", "1", "0"]]
    return ACStructure(3, Box((-0.5,) * 6, (0.5,) * 6), _poly_matrix(rows, 6))


@pytest.mark.parametrize("a, m, nullities", [("x1", 1, (1, 2, 3)),
                                             ("0", 2, (2, 5, 9))])
def test_type_ladder_on_r6_to_degree_three(a, m, nullities):
    structure = _r6(a)
    assert check_acs(structure).status == "pass"
    assert integrability_report(structure).status == "fail"
    for degree, nullity in zip((1, 2, 3), nullities):
        solution = solve_ah_polynomials(structure, degree)
        assert solution.nullity == nullity
        start = time.perf_counter()
        estimate = estimate_spencer_type(structure, solution)
        # Over the (2D + 1)^6 lattice, degree 3 took 0.4 s (m = 1) and
        # 2 s (m = 2).
        assert time.perf_counter() - start < 0.25
        assert (estimate.m, estimate.rank_evidence) == (m, 2 * m)


def _generic_rank(fields, nvars):
    """Rank over Q(x) of the fields' real Jacobian rows, in sympy: each
    float coefficient is read as the rational it is."""
    xs = sympy.symbols(f"x1:{nvars + 1}")
    rows = []
    for f in fields:
        for part in (np.real, np.imag):
            u = sum((sympy.Rational(float(part(c)))
                     * sympy.Mul(*[x ** k for x, k in zip(xs, e)])
                     for e, c in f.terms.items()), sympy.Integer(0))
            rows.append([sympy.diff(u, x) for x in xs])
    return sympy.Matrix(rows).rank()


@pytest.mark.parametrize("name", ["std_c2", "r6_type2"])
def test_type_is_the_generic_rank_of_the_fields(std2, name):
    structure, degree = {"std_c2": (std2, 2),
                         "r6_type2": (_r6("0"), 3)}[name]
    solution = solve_ah_polynomials(structure, degree)
    estimate = estimate_spencer_type(structure, solution)
    assert estimate.m == 2
    # The selection is independent, and no basis field adds to it.
    assert _generic_rank(estimate.selected, structure.real_dim) == 2 * estimate.m
    assert _generic_rank(solution.fields, structure.real_dim) == 2 * estimate.m


@pytest.mark.parametrize("dim", range(1, 2 * defaults.DIM_CAP + 1))
def test_generic_points_follow_their_formula_in_the_box_middle(dim):
    primes = (2, 3, 5, 7, 11, 13, 17, 19)
    lo = tuple(-0.5 - k for k in range(dim))
    hi = tuple(0.25 * k + 1.0 for k in range(dim))
    points = Box(lo, hi).generic_points()
    assert points.shape == (defaults.RANK_POINTS, dim)
    assert not points.flags.writeable
    # The same bits as the formula in Python floats, and on every call.
    expected = [[a + (0.05 + 0.9 * math.modf(i * math.sqrt(p))[0]) * (b - a)
                 for a, b, p in zip(lo, hi, primes)]
                for i in range(1, defaults.RANK_POINTS + 1)]
    assert points.tolist() == expected
    assert Box(lo, hi).generic_points().tobytes() == points.tobytes()
    widths = np.subtract(hi, lo)
    inner = (points - lo) / widths
    assert np.all((inner >= 0.05) & (inner <= 0.95))
    assert len(np.unique(points, axis=0)) == defaults.RANK_POINTS
    assert all(len(set(column)) == defaults.RANK_POINTS
               for column in points.T.tolist())


def test_type_estimate_takes_rows_at_the_fixed_points_only(
        monkeypatch, std1, std2, twisted):
    calls = []
    rows_of = crsolve.real_jacobian

    def counting(fields, points):
        calls.append((len(fields), len(points)))
        return rows_of(fields, points)

    monkeypatch.setattr(crsolve, "real_jacobian", counting)
    for structure in (std1, std2, twisted, _r6("x1"), _r6("0")):
        for degree in (1, 2, 3):
            solution = solve_ah_polynomials(structure, degree)
            calls.clear()
            estimate = estimate_spencer_type(structure, solution)
            # The search stops once the rank reaches 2n.
            tried = solution.nullity
            if estimate.m == structure.n:
                tried = 1 + next(i for i, f in enumerate(solution.fields)
                                 if f is estimate.selected[-1])
            assert calls == [(1, defaults.RANK_POINTS)] * tried
