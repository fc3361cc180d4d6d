from __future__ import annotations

import numpy as np
import pytest
import sympy

from spencerkit import (
    ACStructure,
    Box,
    SampleGrid,
    check_acs,
    eval_j,
    integrability_report,
    nijenhuis,
    parse_polynomial,
    pullback,
    split_type,
    standard_structure,
)
from spencerkit.errors import ConfigurationError, DegenerateStructureError
from spencerkit.jfield import lattice_points, numerical_rank
from spencerkit.poly import Polynomial
from spencerkit.scenario import builtin_scenarios, parse_scenario

from conftest import poly_identity_matrix, poly_matmul


def test_box_validation():
    with pytest.raises(ConfigurationError):
        Box((0.0, 0.0), (0.0, 1.0))
    with pytest.raises(ConfigurationError):
        Box((0.0,), (1.0, 2.0))
    b = Box((-1.0, 0.0), (1.0, 2.0))
    assert b.dim == 2
    assert b.diameter == pytest.approx(2.0)
    assert b.center == pytest.approx((0.0, 1.0))


def test_box_contains_and_intersect():
    b = Box((0.0, 0.0), (1.0, 1.0))
    pts = np.array([[0.5, 0.5], [1.0 + 1e-12, 0.5], [2.0, 0.5]])
    inside = b.contains(pts, slack=1e-9)
    assert inside.tolist() == [True, True, False]
    other = Box((0.5, 0.5), (2.0, 2.0))
    inter = b.intersect(other)
    assert inter.lo == pytest.approx((0.5, 0.5))
    assert inter.hi == pytest.approx((1.0, 1.0))
    assert b.intersect(Box((5.0, 5.0), (6.0, 6.0))) is None
    assert b.intersect(Box((1.0, 0.0), (2.0, 1.0))) is None


def test_box_default_slack_and_contains_box():
    b = Box((0.0, 0.0), (3.0, 1.0))
    assert b.slack == pytest.approx(3e-9)
    assert Box((0.0, 0.0), (0.5, 0.5)).slack == pytest.approx(1e-9)
    for factor, inside in ((0.5, True), (2.0, False)):
        edge = 3.0 + factor * b.slack
        assert b.contains(np.array([[edge, 0.5]])).tolist() == [inside]
        assert b.contains(np.array([[0.0 - factor * b.slack, 0.5]])).tolist() == [inside]
        assert b.contains_box(Box((0.0, 0.0), (edge, 1.0))) is inside
    assert b.contains_box(b)
    assert b.contains_box(Box((1.0, 0.2), (2.0, 0.8)))
    assert not b.contains_box(Box((1.0, 0.2), (4.0, 0.8)))
    assert not b.contains_box(Box((-1.0, 0.2), (2.0, 0.8)))


def test_lattice_points_match_sample_grid_and_allow_flat_axes():
    box = Box((-1.0, 0.0, 2.0), (1.0, 0.5, 3.0))
    assert np.array_equal(lattice_points(box.lo, box.hi, 4), SampleGrid(box, 4).points)
    flat = lattice_points((0.2, 0.3), (0.2, 0.7), 3)
    assert flat.shape == (9, 2)
    assert np.all(flat[:, 0] == 0.2)
    assert np.allclose(flat[:3, 1], [0.3, 0.5, 0.7])


def linspace_lattice(lo, hi, k):
    """Reference: the lexicographic lattice of per-axis ``np.linspace``."""
    axes = [np.linspace(a, b, k) for a, b in zip(lo, hi)]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(lo))


TINY = np.nextafter(0.0, np.inf)


@pytest.mark.parametrize("lo, hi, k", [
    # one stretched axis
    ([[0.1, 0.3], [0.05, 0.3], [-0.7, 0.3]], [[0.4, 0.7], [0.4, 0.7], [0.4, 0.7]], 5),
    # a zero step in one row: linspace over the whole column would switch
    # the other rows to its zero-step branch, whose bits differ for k = 4
    ([[-0.93, 0.3], [0.71, 0.3], [0.2, 0.3]], [[0.71, 0.3], [0.71, 0.3], [0.71, 0.3]], 4),
    # every axis varies
    ([[0.0, 0.0, 0.0], [0.1, -0.2, 0.3]], [[1.0, 0.5, 0.7], [0.9, 0.8, 1.3]], 4),
    # lo == hi, a step that underflows to zero while lo < hi, a one-ulp
    # interval and ordinary rows, in one call
    ([[0.2, 0.0], [0.2, -0.4], [0.0, 0.3], [-0.5, 0.1]],
     [[0.2, TINY], [0.2, np.nextafter(-0.4, np.inf)], [0.9, 0.3], [0.6, 0.35]], 4),
    ([[0.0, 1.0], [-1.0, 1.0], [0.3, 0.3]], [[TINY, 1.0], [2.0, 3.0], [0.8, 0.3]], 7),
])
def test_lattice_points_stacked_rows_are_bit_identical(lo, hi, k):
    stacked = lattice_points(lo, hi, k)
    assert stacked.shape == (len(lo), k ** len(lo[0]), len(lo[0]))
    for row, (a, b) in enumerate(zip(lo, hi)):
        expected = linspace_lattice(a, b, k)
        assert np.array_equal(stacked[row].view(np.uint64),
                              expected.view(np.uint64))
        alone = lattice_points(a, b, k)
        assert np.array_equal(alone.view(np.uint64), expected.view(np.uint64))


def test_sample_grid_is_lexicographic_and_frozen():
    grid = SampleGrid(Box((0.0, 0.0), (1.0, 1.0)), k=2)
    assert np.allclose(grid.points,
                       [[0, 0], [0, 1], [1, 0], [1, 1]])
    with pytest.raises(ValueError):
        grid.points[0, 0] = 5.0
    with pytest.raises(ConfigurationError):
        SampleGrid(Box((0.0, 0.0), (1.0, 1.0)), k=1)


def test_standard_structure_matrix_value(std1):
    j = eval_j(std1, np.array([[0.3, -0.4]]))
    assert np.array_equal(j[0], np.array([[0.0, -1.0], [1.0, 0.0]]))


def test_check_acs_standard_is_exact(std1, std2):
    for s in (std1, std2):
        rep = check_acs(s)
        assert rep.status == "pass"
        assert rep.metrics["acs_residual"] == 0.0


def test_check_acs_twisted_exact(twisted):
    rep = check_acs(twisted, grid=twisted.default_grid(7))
    assert rep.status == "pass"
    assert rep.metrics["acs_residual"] == 0.0


def test_check_acs_flags_non_structure():
    box = Box((-1.0, -1.0), (1.0, 1.0))
    rows = [["x1", "-1"], ["1", "0"]]
    matrix = [[parse_polynomial(e, 2) for e in row] for row in rows]
    s = ACStructure(1, box, matrix)
    rep = check_acs(s)
    assert rep.status == "fail"
    assert rep.metrics["acs_residual"] > 0.1


def test_pullback_standard_rotates_covectors(std1):
    pts = np.array([[0.0, 0.0], [0.5, -0.5]])
    dx = np.array([[1.0, 0.0], [1.0, 0.0]])
    pulled = pullback(std1, dx, pts)
    assert np.allclose(pulled, [[0.0, -1.0], [0.0, -1.0]])


def test_pullback_is_linear_and_squares_to_minus_one(twisted):
    rng = np.random.default_rng(3)
    pts = rng.uniform(-0.5, 0.5, size=(6, 4))
    a = rng.standard_normal((6, 4))
    b = rng.standard_normal((6, 4))
    left = pullback(twisted, 2.0 * a + b, pts)
    right = 2.0 * pullback(twisted, a, pts) + pullback(twisted, b, pts)
    assert np.allclose(left, right, atol=1e-13)
    twice = pullback(twisted, pullback(twisted, a, pts), pts)
    assert np.allclose(twice, -a, atol=1e-12)


def test_split_type_dimensions_and_bases(std1, std2, twisted):
    for s, n in ((std1, 1), (std2, 2), (twisted, 2)):
        res = split_type(s)
        assert res.dims == (n, n)
        assert res.eigen_residual <= 1e-8


def test_split_type_standard_basis_vector(std1):
    res = split_type(std1, points=np.array([[0.0, 0.0]]))
    v = res.bases_plus[0][0]
    j = np.array([[0.0, -1.0], [1.0, 0.0]])
    assert np.allclose(j @ v, 1j * v, atol=1e-12)
    assert np.allclose(v / v[0], [1.0, -1.0j], atol=1e-12)


def test_split_type_rejects_non_structure():
    box = Box((-1.0, -1.0), (1.0, 1.0))
    matrix = [[parse_polynomial(e, 2) for e in row]
              for row in [["1", "0"], ["0", "1"]]]
    s = ACStructure(1, box, matrix)
    with pytest.raises(DegenerateStructureError):
        split_type(s)


def test_nijenhuis_standard_vanishes(std2):
    pts = np.random.default_rng(4).uniform(-1, 1, size=(5, 4))
    n = nijenhuis(std2, pts)
    assert np.max(np.abs(n)) == 0.0


def test_nijenhuis_twisted_components(twisted):
    pts = np.array([[0.3, 0.0, 0.0, 0.0]])
    n = nijenhuis(twisted, pts)[0]
    assert np.allclose(n[:, 0, 2], [0.0, 1.0, 0.0, 0.0])
    assert np.allclose(n[:, 0, 3], [1.0, 0.0, 0.0, 0.0])
    assert np.allclose(n[:, 1, 2], [1.0, 0.0, 0.0, 0.0])
    assert np.allclose(n[:, 2, 3], [0.0, -0.3, 0.0, 0.0])


def test_nijenhuis_is_antisymmetric(twisted):
    pts = np.random.default_rng(5).uniform(-0.5, 0.5, size=(7, 4))
    n = nijenhuis(twisted, pts)
    assert np.array_equal(n, -n.transpose(0, 1, 3, 2))


def test_nijenhuis_matches_symbolic_brackets(twisted):
    xs = sympy.symbols("x1:5")
    j = sympy.Matrix([
        [0, -1, -xs[0], 0],
        [1, 0, 0, xs[0]],
        [0, 0, 0, -1],
        [0, 0, 1, 0],
    ])

    def bracket(u, v):
        return sympy.Matrix([
            sum(u[k] * sympy.diff(v[i], xs[k]) - v[k] * sympy.diff(u[i], xs[k])
                for k in range(4))
            for i in range(4)
        ])

    e = [sympy.Matrix([1 if i == k else 0 for i in range(4)]) for k in range(4)]
    pts = np.random.default_rng(6).uniform(-0.5, 0.5, size=(3, 4))
    num = nijenhuis(twisted, pts)
    for a in range(4):
        for b in range(4):
            ja, jb = j * e[a], j * e[b]
            n_ab = (bracket(ja, jb) - j * bracket(ja, e[b])
                    - j * bracket(e[a], jb) - bracket(e[a], e[b]))
            for p, pt in enumerate(pts):
                subs = dict(zip(xs, pt))
                sym = np.array([complex(c.subs(subs)) for c in n_ab])
                assert np.allclose(num[p, :, a, b], sym, atol=1e-12)


def test_integrability_reports(std2, twisted):
    rep = integrability_report(std2)
    assert rep.status == "pass"
    assert rep.metrics["integrability_residual"] == 0.0
    rep = integrability_report(twisted)
    assert rep.status == "fail"
    assert rep.metrics["integrability_residual"] == 1.0


def test_conjugated_structure_stays_integrable(conjugated_integrable):
    rep = check_acs(conjugated_integrable)
    assert rep.status == "pass"
    rep = integrability_report(conjugated_integrable)
    assert rep.status == "pass"
    assert rep.metrics["integrability_residual"] <= 1e-12


def test_structure_validation_rejects_bad_input():
    box = Box((-1.0, -1.0), (1.0, 1.0))
    good = [[parse_polynomial(e, 2) for e in row]
            for row in [["0", "-1"], ["1", "0"]]]
    with pytest.raises(ConfigurationError):
        ACStructure(1, Box((-1.0,) * 4, (1.0,) * 4), good)
    complex_entry = [[parse_polynomial("(0+1i)*x1", 2), good[0][1]], good[1]]
    with pytest.raises(ConfigurationError):
        ACStructure(1, box, complex_entry)


def test_numerical_rank_counts_above_the_cutoff_per_row():
    # Relative cutoff 1e-3 * 2 on the first row; an all-zero row falls back
    # to the absolute 1e-3, which nothing exceeds.
    sigma = np.array([[2.0, 2.1e-3, 1.9e-3], [0.0, 0.0, 0.0],
                      [5e-4, 1e-7, 0.0]])
    assert numerical_rank(sigma, 1e-3).tolist() == [2, 0, 1]
    assert [int(numerical_rank(row, 1e-3)) for row in sigma] == [2, 0, 1]


# The per-point split_type loop that the stacked version replaced, kept
# verbatim as the bit-identity reference.
def _reference_canonical_vector(v):
    scale = np.max(np.abs(v))
    v = v / scale
    for c in v:
        if abs(c) > 1e-9:
            v = v * (abs(c) / c)
            break
    return v


def _reference_eigenspace_basis(j_matrix, eigenvalue, svd_rel_tol):
    a = j_matrix.astype(complex) - eigenvalue * np.eye(j_matrix.shape[0])
    _, sigma, vh = np.linalg.svd(a)
    rank = int(numerical_rank(sigma, svd_rel_tol))
    basis = [_reference_canonical_vector(v) for v in np.conj(vh[rank:])]
    basis.sort(key=lambda v: tuple(x for c in v for x in (round(c.real, 9), round(c.imag, 9))))
    return basis


def _reference_split_type(structure, pts, svd_rel_tol=1e-8):
    n, size = structure.n, structure.real_dim
    j = eval_j(structure, pts)
    plus = np.zeros((pts.shape[0], n, size), dtype=complex)
    minus = np.zeros((pts.shape[0], n, size), dtype=complex)
    for p in range(pts.shape[0]):
        b_plus = _reference_eigenspace_basis(j[p], 1j, svd_rel_tol)
        b_minus = _reference_eigenspace_basis(j[p], -1j, svd_rel_tol)
        if len(b_plus) != n or len(b_minus) != n:
            raise DegenerateStructureError(
                f"eigenspace dimensions ({len(b_plus)}, {len(b_minus)}) != ({n}, {n}) "
                f"at point {tuple(pts[p])}")
        plus[p] = np.array(b_plus)
        minus[p] = np.array(b_minus)
    res_plus = np.einsum("pij,pkj->pki", j.astype(complex), plus) - 1j * plus
    res_minus = np.einsum("pij,pkj->pki", j.astype(complex), minus) + 1j * minus
    residual = float(max(np.max(np.abs(res_plus)), np.max(np.abs(res_minus))))
    return plus, minus, residual


def _sheared_n3():
    """S^-1 J0 S for the shear S = I + N with polynomial N, N^2 = 0: the
    rows {2, 4, 5} that N fills are disjoint from its columns {0, 1, 3}."""
    size = 6
    x = [Polynomial.variable(size, k) for k in range(size)]
    shear = poly_identity_matrix(size, size)
    shear_inv = poly_identity_matrix(size, size)
    for (row, col), entry in {(2, 1): x[0] * 0.7 + x[3] * x[3],
                              (4, 0): x[1] * x[2] - x[5] * 0.3,
                              (5, 3): x[0] * x[4] + 0.25,
                              (5, 1): x[2] * -1.3}.items():
        shear[row][col] = shear[row][col] + entry
        shear_inv[row][col] = shear_inv[row][col] - entry
    base = standard_structure(3)
    return ACStructure(3, base.box,
                       poly_matmul(poly_matmul(shear_inv, base.matrix), shear))


@pytest.mark.parametrize("case", ["std1", "std2", "std3", "twisted", "sheared3"])
def test_split_type_is_bit_identical_to_the_per_point_loop(case, std1, std2, twisted):
    # The standard structures put exact zeros and ties into the sort keys.
    # On the sheared lattice at k = 4, some leading components get a phase
    # factor whose bits differ when their modulus comes from np.abs over an
    # array instead of the scalar abs.
    structure, k = {
        "std1": (std1, 5),
        "std2": (std2, 5),
        "std3": (standard_structure(3), 3),
        "twisted": (twisted, 5),
        "sheared3": (_sheared_n3(), 4),
    }[case]
    pts = structure.default_grid(k).points
    res = split_type(structure, pts)
    plus, minus, residual = _reference_split_type(structure, pts)
    assert np.array_equal(res.bases_plus, plus)
    assert np.array_equal(res.bases_minus, minus)
    assert res.eigen_residual == residual
    assert res.bases_plus.view(float).tobytes() == plus.view(float).tobytes()
    assert res.bases_minus.view(float).tobytes() == minus.view(float).tobytes()


def test_split_type_reports_the_first_degenerate_point_as_the_loop_does():
    # J = [[0, -1], [x1, 0]] squares to -I only where x1 = 1.
    box = Box((-1.0, -1.0), (1.0, 1.0))
    matrix = [[parse_polynomial(e, 2) for e in row]
              for row in [["0", "-1"], ["x1", "0"]]]
    s = ACStructure(1, box, matrix)
    pts = np.array([[1.0, 0.5], [1.0, -0.25], [-1.0, -1.0], [0.5, 0.0]])
    with pytest.raises(DegenerateStructureError) as ref:
        _reference_split_type(s, pts)
    with pytest.raises(DegenerateStructureError) as new:
        split_type(s, pts)
    assert str(ref.value).endswith(f"at point {tuple(pts[2])}")
    assert str(new.value) == (
        "eigenspace dimensions (0, 0) != (1, 1) at point (-1.0, -1.0)")


def test_split_type_bases_span_the_exact_projector_images():
    # With J^2 = -I, the columns of (I -/+ iJ)/2 span the +/-i eigenspace.
    data = builtin_scenarios()["twisted_r4"]
    structure = parse_scenario(data).structure
    xs = sympy.symbols("x1:5")
    j_sym = sympy.Matrix([[sympy.sympify(e, locals=dict(zip(map(str, xs), xs)))
                           for e in row] for row in data["J"]])
    rational_points = [
        (sympy.Rational(1, 4), sympy.Rational(-1, 3), 0, sympy.Rational(1, 2)),
        (sympy.Rational(-2, 5), sympy.Rational(1, 7), sympy.Rational(3, 8), 0),
        (sympy.Rational(1, 2), 0, sympy.Rational(-1, 2), sympy.Rational(5, 16)),
    ]
    pts = np.array([[float(c) for c in pt] for pt in rational_points])
    res = split_type(structure, pts)
    for p, pt in enumerate(rational_points):
        j_at = j_sym.subs(dict(zip(xs, pt)))
        for sign, bases in ((1, res.bases_plus), (-1, res.bases_minus)):
            projector = (sympy.eye(4) - sign * sympy.I * j_at) / 2
            assert projector.rank() == 2
            columns = np.array(projector.T.evalf(), dtype=complex)
            stacked = np.vstack([columns, bases[p]])
            assert np.linalg.matrix_rank(bases[p], tol=1e-9) == 2
            assert np.linalg.matrix_rank(stacked, tol=1e-9) == 2
