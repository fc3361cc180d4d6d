from __future__ import annotations

import inspect
import itertools
import tracemalloc

import numpy as np
import pytest
import sympy

from spencerkit import (
    ACStructure,
    Box,
    check_acs,
    eval_j,
    integrability_report,
    nijenhuis,
    parse_polynomial,
    split_type,
    standard_structure,
)
from spencerkit import defaults, jfield
from spencerkit.errors import (ConfigurationError, DegenerateStructureError,
                               NumericalError)
from spencerkit.jfield import acs_residual, lattice_points, numerical_rank
from spencerkit.poly import Polynomial, monomials_upto
from spencerkit.scenario import builtin_scenarios, parse_scenario, run_scenario

from conftest import (bench_scenarios, canonical_scenarios, every_point,
                      poly_identity_matrix, poly_matmul)


@pytest.mark.parametrize("dim", [2, 4])
def test_boxes_that_meet_pairwise_meet_all_together(dim):
    # On each axis the largest of three lower bounds is the lower bound of
    # one pair, and below that pair's and the other pairs' upper bounds.
    # Bounds from a coarse grid give shared faces, which are no overlap.
    rng = np.random.default_rng(3000 + dim)
    lo = rng.integers(0, 5, size=(20_000, 3, dim)) / 4.0
    hi = lo + rng.integers(1, 7, size=lo.shape) / 4.0
    met = 0
    for triple in zip(lo, hi):
        a, b, c = (Box(*bounds) for bounds in zip(*triple))
        if None in (a.intersect(b), b.intersect(c), a.intersect(c)):
            continue
        met += 1
        assert isinstance(a.intersect(b).intersect(c), Box)
    assert met > 1000


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


def test_lattice_points_match_box_lattice_and_allow_flat_axes():
    box = Box((-1.0, 0.0, 2.0), (1.0, 0.5, 3.0))
    assert np.array_equal(lattice_points(box.lo, box.hi, 4), box.lattice(4))
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


def test_box_lattice_is_lexicographic_and_frozen():
    box = Box((0.0, 0.0), (1.0, 1.0))
    points = box.lattice(2)
    assert np.allclose(points, [[0, 0], [0, 1], [1, 0], [1, 1]])
    with pytest.raises(ValueError):
        points[0, 0] = 5.0
    assert box.lattice().shape == (25, 2)
    for k in (1, 0):
        with pytest.raises(ConfigurationError,
                           match="grid needs at least 2 points per axis"):
            box.lattice(k)
        with pytest.raises(ConfigurationError,
                           match="grid needs at least 2 points per axis"):
            lattice_points([[0.0], [0.5]], [[1.0], [1.0]], k)


def test_standard_structure_matrix_value(std1):
    j = eval_j(std1, np.array([[0.3, -0.4]]))
    assert np.array_equal(j[0], np.array([[0.0, -1.0], [1.0, 0.0]]))


def test_check_acs_standard_is_exact(std1, std2):
    for s in (std1, std2):
        rep = check_acs(s)
        assert rep.status == "pass"
        assert rep.metrics["acs_residual"] == 0.0


def test_check_acs_twisted_exact(twisted):
    rep = check_acs(twisted, grid_k=7)
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


def test_split_type_dimensions_and_bases(std1, std2, twisted):
    for s, n in ((std1, 1), (std2, 2), (twisted, 2)):
        res = split_type(s, s.box.lattice())
        assert res.dims == (n, n)
        assert res.eigen_residual <= 1e-8


def test_split_type_standard_basis_vector(std1):
    # The flat J sends e1 to e2; its i eigenspace is spanned by (1, -i).
    res = split_type(std1, points=np.array([[0.0, 0.0]]))
    assert res.projector.tolist() == [[[0.5, 0.5j], [-0.5j, 0.5]]]
    assert np.array_equal(res.projector[0] @ [1.0, -1.0j], [1.0, -1.0j])


def test_split_type_rejects_non_structure():
    box = Box((-1.0, -1.0), (1.0, 1.0))
    matrix = [[parse_polynomial(e, 2) for e in row]
              for row in [["1", "0"], ["0", "1"]]]
    s = ACStructure(1, box, matrix)
    with pytest.raises(DegenerateStructureError):
        split_type(s, box.lattice())


def _dense_nijenhuis(structure, points):
    """N as a dense (P, 2n, 2n, 2n) tensor, from ``nijenhuis``'s components:
    N[i, a, b] for a <= b as returned, N[i, b, a] its negative, 0 where no
    component is returned."""
    size = structure.real_dim
    out = np.zeros((len(points), size, size, size))
    for (i, a, b), values in nijenhuis(structure, points).items():
        assert a <= b and values.shape == (len(points),)
        out[:, i, a, b] = values
        if a != b:
            out[:, i, b, a] = -values
    return out


def test_nijenhuis_standard_vanishes(std2):
    pts = np.random.default_rng(4).uniform(-1, 1, size=(5, 4))
    # Constant entries have no nonzero partial: no component has a term.
    assert nijenhuis(std2, pts) == {}
    n = _dense_nijenhuis(std2, pts)
    assert np.max(np.abs(n)) == 0.0


def test_nijenhuis_twisted_components(twisted):
    pts = np.array([[0.3, 0.0, 0.0, 0.0]])
    # N[0, 1, 2] = J_01 d_0 J_02 and N[1, 1, 3] = J_01 d_0 J_13 are products
    # of two constants, and still come back as (P,) arrays.
    result = nijenhuis(twisted, pts)
    for slot, value in (((0, 1, 2), 1.0), ((1, 1, 3), -1.0)):
        assert isinstance(result[slot], np.ndarray)
        assert result[slot].shape == (1,) and result[slot][0] == value
    n = _dense_nijenhuis(twisted, pts)[0]
    assert np.allclose(n[:, 0, 2], [0.0, 1.0, 0.0, 0.0])
    assert np.allclose(n[:, 0, 3], [1.0, 0.0, 0.0, 0.0])
    assert np.allclose(n[:, 1, 2], [1.0, 0.0, 0.0, 0.0])
    assert np.allclose(n[:, 2, 3], [0.0, -0.3, 0.0, 0.0])


def test_nijenhuis_is_antisymmetric(twisted):
    pts = np.random.default_rng(5).uniform(-0.5, 0.5, size=(7, 4))
    n = _dense_nijenhuis(twisted, pts)
    assert np.array_equal(n, -n.transpose(0, 1, 3, 2))


def _sheared(n, fill):
    """S^-1 J0 S for the shear S = I + N with polynomial N, N^2 = 0: the
    rows that ``fill`` gives N are disjoint from its columns."""
    size = 2 * n
    x = [Polynomial.variable(size, k) for k in range(size)]
    shear = poly_identity_matrix(size, size)
    shear_inv = poly_identity_matrix(size, size)
    for (row, col), entry in fill(x).items():
        shear[row][col] = shear[row][col] + entry
        shear_inv[row][col] = shear_inv[row][col] - entry
    base = standard_structure(n)
    return ACStructure(n, base.box,
                       poly_matmul(poly_matmul(shear_inv, base.matrix), shear))


def _sheared_n2():
    """Rows {2, 3} of N against its columns {0, 1}."""
    return _sheared(2, lambda x: {(2, 0): x[0] * x[1] * 0.6 - x[3],
                                  (3, 1): x[2] * x[2] + 0.2,
                                  (2, 1): x[0] * -1.1})


def _sheared_n3():
    """Rows {2, 4, 5} of N against its columns {0, 1, 3}."""
    return _sheared(3, lambda x: {(2, 1): x[0] * 0.7 + x[3] * x[3],
                                  (4, 0): x[1] * x[2] - x[5] * 0.3,
                                  (5, 3): x[0] * x[4] + 0.25,
                                  (5, 1): x[2] * -1.3})


def _random_dense_structure(n, seed):
    """Every entry of J a polynomial with all monomials of degree <= 2 and
    nonzero dyadic coefficients (exact in sympy).  J^2 != -I, which the
    Nijenhuis formula does not need."""
    rng = np.random.default_rng(seed)
    size = 2 * n
    monomials = monomials_upto(size, 2, include_constant=True)

    def entry():
        coefs = rng.integers(1, 9, len(monomials)) * rng.choice([-1, 1], len(monomials))
        return Polynomial(size, dict(zip(monomials, coefs / 8.0)))

    matrix = [[entry() for _ in range(size)] for _ in range(size)]
    return ACStructure(n, Box((-1.0,) * size, (1.0,) * size), matrix)


def _sympy_matrix(structure, xs):
    return sympy.Matrix([
        [sum((sympy.Rational(c.real) * sympy.prod([x ** e for x, e in zip(xs, exps)])
              for exps, c in entry.terms.items()), sympy.Integer(0))
         for entry in row]
        for row in structure.matrix])


def test_nijenhuis_matches_symbolic_brackets(twisted):
    xs = sympy.symbols("x1:5")
    j_twisted = sympy.Matrix([
        [0, -1, -xs[0], 0],
        [1, 0, 0, xs[0]],
        [0, 0, 0, -1],
        [0, 0, 1, 0],
    ])
    # The bracket formula holds for any matrix field, and a dense J gives
    # every term of both sums a nonzero product.  The chained R^6 structure
    # mixes products of two non-constant values, of one and a constant, and
    # of two constants.
    dense = _random_dense_structure(2, seed=11)
    chained = _chained_r6()
    xs6 = sympy.symbols("x1:7")
    for structure, j, symbols in (
            (twisted, j_twisted, xs), (dense, _sympy_matrix(dense, xs), xs),
            (chained, _sympy_matrix(chained, xs6), xs6)):
        _assert_matches_symbolic_brackets(structure, j, symbols)


def _chained_r6():
    """J = [[J0, a K, (a c / 2) J0], [0, J0, c K], [0, 0, J0]] on
    [-0.5, 0.5]^6 with a = x1, c = x3, J0 = [[0, -1], [1, 0]] and
    K = diag(1, -1): J^2 = -I, and N != 0."""
    rows = [["0", "-1", "x1", "0", "0", "-0.5*x1*x3"],
            ["1", "0", "0", "-x1", "0.5*x1*x3", "0"],
            ["0", "0", "0", "-1", "x3", "0"],
            ["0", "0", "1", "0", "0", "-x3"],
            ["0", "0", "0", "0", "0", "-1"],
            ["0", "0", "0", "0", "1", "0"]]
    matrix = [[parse_polynomial(e, 6) for e in row] for row in rows]
    return ACStructure(3, Box((-0.5,) * 6, (0.5,) * 6), matrix)


def _assert_matches_symbolic_brackets(structure, j, xs):
    size = structure.real_dim

    def bracket(u, v):
        return sympy.Matrix([
            sum(u[k] * sympy.diff(v[i], xs[k]) - v[k] * sympy.diff(u[i], xs[k])
                for k in range(size))
            for i in range(size)
        ])

    e = [sympy.Matrix([1 if i == k else 0 for i in range(size)])
         for k in range(size)]
    pts = np.random.default_rng(6).uniform(-0.5, 0.5, size=(3, size))
    num = _dense_nijenhuis(structure, pts)
    for a in range(size):
        for b in range(size):
            ja, jb = j * e[a], j * e[b]
            n_ab = (bracket(ja, jb) - j * bracket(ja, e[b])
                    - j * bracket(e[a], jb) - bracket(e[a], e[b]))
            for p, pt in enumerate(pts):
                exact = n_ab.xreplace(dict(zip(xs, map(sympy.Rational, pt))))
                sym = np.array([float(c) for c in exact])
                assert np.allclose(num[p, :, a, b], sym, rtol=1e-12, atol=1e-12)


# The dense einsum contraction that the sparse slot loop replaced, kept
# verbatim as the bit-identity reference.
def _reference_eval_j_derivatives(structure, points):
    """Exact entry partials at a batch (P, 2n): DJ[p, k, i, j] = d J_{ij} / dx^k at p."""
    pts = np.asarray(points, dtype=float)
    size = structure.real_dim
    out = np.zeros((len(pts), size, size, size))
    for i in range(size):
        for j in range(size):
            for k, entry in enumerate(structure.matrix[i][j].partials()):
                if not entry.is_zero:
                    out[:, k, i, j] = entry.evaluate(pts)
    return out


def _reference_nijenhuis(structure, points):
    j = eval_j(structure, points)
    dj = _reference_eval_j_derivatives(structure, points)
    # half[p, i, a, b] = sum_k J_{ka} d_k J_{ib} + sum_k J_{ik} d_b J_{ka}
    half = (np.einsum("pka,pkib->piab", j, dj)
            + np.einsum("pik,pbka->piab", j, dj))
    return half - half.transpose(0, 1, 3, 2)


CASES = ["std1", "std2", "std3", "twisted", "sheared2", "sheared3", "dense2",
         "dense3"]


def _case(case, std1, std2, twisted):
    return {
        "std1": std1,
        "std2": std2,
        "std3": standard_structure(3),
        "twisted": twisted,
        "sheared2": _sheared_n2(),
        "sheared3": _sheared_n3(),
        "dense2": _random_dense_structure(2, seed=12),
        "dense3": _random_dense_structure(3, seed=13),
    }[case]


@pytest.mark.parametrize("case", CASES)
def test_nijenhuis_is_bit_identical_to_the_dense_contraction(case, std1, std2, twisted):
    structure = _case(case, std1, std2, twisted)
    pts = structure.box.lattice(5)
    new = _dense_nijenhuis(structure, pts)
    ref = _reference_nijenhuis(structure, pts)
    assert new.shape == ref.shape
    assert np.array_equal(new, ref)
    assert np.abs(new).tobytes() == np.abs(ref).tobytes()


def test_nijenhuis_adds_each_sum_over_ascending_k():
    """Each sum of h starts from 0 and adds its products over ascending k,
    then h = sum_1 + sum_2.  Coefficients and points that are not dyadic
    make the rounding depend on that order, which the dense contraction
    above, exact on its dyadic inputs, does not see."""
    dense = _random_dense_structure(2, seed=14)
    matrix = [[Polynomial(4, {e: c.real * 0.3 + 0.0137
                              for e, c in entry.terms.items()})
               for entry in row] for row in dense.matrix]
    structure = ACStructure(2, dense.box, matrix)
    pts = np.random.default_rng(15).uniform(-1, 1, size=(50, 4))
    j = eval_j(structure, pts)
    dj = _reference_eval_j_derivatives(structure, pts)
    h = np.empty((len(pts), 4, 4, 4))
    for i, a, b in itertools.product(range(4), repeat=3):
        first = second = 0.0
        for k in range(4):
            first = first + j[:, k, a] * dj[:, k, i, b]
            second = second + j[:, i, k] * dj[:, b, k, a]
        h[:, i, a, b] = first + second
    expected = h - h.transpose(0, 1, 3, 2)
    assert _dense_nijenhuis(structure, pts).tobytes() == expected.tobytes()


def _overflowing_products(corner):
    """J and every partial are finite on [-2, 2]^2, but J_01 * d_1 J_01
    reaches 2e200 * 1e200: the Nijenhuis sums overflow, and N[0, 1, 1] =
    h - h is NaN.  With ``corner`` "x2" as J_00, finite components come
    before it, and Python's ``max`` over the components would drop it."""
    box = Box((-2.0, -2.0), (2.0, 2.0))
    matrix = [[parse_polynomial(e, 2) for e in row]
              for row in [[corner, "-1 - 1e200*x1"], ["1", "0"]]]
    return ACStructure(1, box, matrix)


OVERFLOWS = {"overflow": "0", "overflow_late": "x2"}


@pytest.mark.parametrize("case", CASES + list(OVERFLOWS))
def test_integrability_residual_has_the_bits_of_the_dense_maximum(
        case, monkeypatch, std1, std2, twisted):
    structure = (_overflowing_products(OVERFLOWS[case]) if case in OVERFLOWS
                 else _case(case, std1, std2, twisted))
    # The metrics before make_report, which refuses a NaN one.
    monkeypatch.setattr(jfield, "make_report",
                        lambda task, metrics, tolerances: metrics)
    with np.errstate(over="ignore", invalid="ignore"):
        residual = integrability_report(structure)["integrability_residual"]
        dense = np.max(np.abs(_reference_nijenhuis(structure,
                                                   structure.box.lattice(5))))
    assert np.isnan(residual) == (case in OVERFLOWS)
    assert np.float64(residual).tobytes() == dense.tobytes()


DENSE_TENSOR = 5 ** 6 * 6 ** 3 * 8              # 27 MB of float64


def test_nijenhuis_peak_memory_stays_below_half_the_dense_tensor():
    structure = _sheared_n3()
    pts = structure.box.lattice(5)
    nijenhuis(structure, pts[:1])       # builds the cached partials
    tracemalloc.start()
    try:
        nijenhuis(structure, pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * DENSE_TENSOR


@pytest.mark.parametrize("entry, point", [
    # J itself overflows at x2 = -100; its partial -6e297*x2^5 stays finite.
    ("-1 - 1e297*x2^6", (-100.0, -100.0)),
    # J stays finite at x2 = 1.5, its partial -6e307*x2^5 does not.
    ("-1 - 1e307*x2^6", (0.0, 1.5)),
])
def test_nijenhuis_refuses_non_finite_j_or_partials(entry, point):
    box = Box((-100.0, -100.0), (100.0, 100.0))
    matrix = [[parse_polynomial(e, 2) for e in row] for row in [["0", entry], ["1", "0"]]]
    s = ACStructure(1, box, matrix)
    pts = np.array([[0.5, 0.0], point, [1.0, -1.0]])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalError) as exc:
            nijenhuis(s, pts)
    assert str(exc.value).endswith(f"not finite at point {point}")


def test_integrability_report_peak_memory_stays_below_half_the_dense_tensor():
    # Only the components with a product term are made, and no |N| of
    # the dense tensor's size.
    structure = _sheared_n3()
    integrability_report(structure, grid_k=2)   # builds the cached partials
    tracemalloc.start()
    try:
        integrability_report(structure)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * DENSE_TENSOR


def test_integrability_report_keeps_no_j_at_its_peak():
    # J's entries are read one by one from its polynomials, the constant
    # ones as floats, and no (P, 2n, 2n) J is made: 0.265x the dense
    # tensor, against 0.288x when the kernel copied its entries out of J.
    structure = _sheared_n3()
    integrability_report(structure, grid_k=2)   # builds the cached partials
    tracemalloc.start()
    try:
        integrability_report(structure)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.276 * DENSE_TENSOR


@pytest.mark.parametrize("case", ["twisted", "sheared2", "sheared3"])
def test_integrability_evaluates_j_once_and_no_constant_partial(
        case, monkeypatch, std1, std2, twisted):
    """``nijenhuis`` reads J from its polynomials, not through ``eval_j``:
    each non-constant entry and nonzero partial of J is evaluated once, and
    a constant one never."""
    structure = _case(case, std1, std2, twisted)
    pts = structure.box.lattice(3)
    expected = _bits(nijenhuis(structure, pts))
    polys = [p for row in structure.matrix for entry in row
             for p in (entry,) + entry.partials() if not p.is_zero]
    assert any(p.degree == 0 for p in polys)
    evaluated = []
    evaluate = Polynomial.evaluate

    def refuse(*args):
        raise AssertionError("eval_j was called")

    def counting_evaluate(poly, points):
        evaluated.append(poly)
        return evaluate(poly, points)

    monkeypatch.setattr(jfield, "eval_j", refuse)
    monkeypatch.setattr(Polynomial, "evaluate", counting_evaluate)
    integrability_report(structure, grid_k=3)
    assert sorted(map(id, evaluated)) == sorted(id(p) for p in polys
                                                if p.degree)
    assert _bits(nijenhuis(structure, pts)) == expected


def _bits(result):
    """The bits of a ``split_type`` or ``nijenhuis`` result."""
    if isinstance(result, dict):
        return {key: value.tobytes() for key, value in result.items()}
    return (result.dims, float(result.eigen_residual).hex(),
            result.j.tobytes())


def test_a_holder_lends_its_sample_to_its_own_structure_and_points_only(
        monkeypatch, std2, twisted):
    """The holder's sample serves ``split_type`` of its structure at its
    very points array; any other call evaluates J afresh, with the bits of
    a call without a holder.  ``nijenhuis``, ``integrability_report`` and
    ``check_acs`` take no holder, and ``check_acs`` calls no ``eval_j``."""
    lattices = {}
    sample = jfield.lattice_sample(lattices, twisted, twisted.box, 3)
    pts = sample.points
    sample.j                                    # evaluated before counting
    calls = []
    eval_j = jfield.eval_j

    def counting(structure, points):
        calls.append(len(points))
        return eval_j(structure, points)

    cases = [(std2, pts), (twisted, pts[::-1]), (twisted, pts[:4]),
             (twisted, pts.copy())]
    expected = [_bits(split_type(s, p)) for s, p in [(twisted, pts)] + cases]
    monkeypatch.setattr(jfield, "eval_j", counting)
    assert _bits(split_type(twisted, pts, _lattices=lattices)) == expected[0]
    assert calls == []
    for (structure, points), bits in zip(cases, expected[1:]):
        calls.clear()
        assert _bits(split_type(structure, points, _lattices=lattices)) == bits
        assert calls == [len(points)]
    for kernel in (nijenhuis, integrability_report, check_acs):
        assert "_lattices" not in inspect.signature(kernel).parameters
    calls.clear()
    for structure in (std2, twisted):
        assert check_acs(structure, grid_k=3).metrics["grid_points"] == 3 ** 4
    assert calls == []


def test_nijenhuis_refuses_a_tensor_over_the_cap_before_evaluating_j(
        monkeypatch, twisted):
    # The twisted J holds 8 arrays: its 2 non-constant entries and 6 kept
    # slots; its partials are constants.
    def refuse(*args):
        raise AssertionError("J was evaluated")

    pts = twisted.box.lattice(3)                # 81 points x 8 arrays
    assert jfield.nijenhuis_arrays(twisted) == 8
    monkeypatch.setattr(defaults, "ENTRY_CAP", 81 * 8)
    assert not integrability_report(twisted, grid_k=3).passed
    monkeypatch.setattr(defaults, "ENTRY_CAP", 81 * 8 - 1)
    monkeypatch.setattr(jfield, "eval_j", refuse)
    monkeypatch.setattr(Polynomial, "evaluate", refuse)
    with pytest.raises(ConfigurationError, match="648 entries"):
        nijenhuis(twisted, pts)
    with pytest.raises(ConfigurationError, match="above the cap of 647"):
        integrability_report(twisted, grid_k=3)


@pytest.mark.parametrize("case, arrays", [
    ("std3", 0), ("twisted", 2 + 0 + 6), ("sheared2", 4 + 6 + 14),
    ("sheared3", 7 + 13 + 29), ("dense3", 36 + 216 + 126)])
def test_nijenhuis_arrays_counts_what_the_kernel_holds(
        case, arrays, std1, std2, twisted):
    """Non-constant entries, non-constant partials and kept slots: a
    dense degree-2 J has all 36 entries, all 216 partials and every one of
    the 126 slots with a <= b."""
    structure = _case(case, std1, std2, twisted)
    assert jfield.nijenhuis_arrays(structure) == arrays
    polys = [p for row in structure.matrix for entry in row
             for p in (entry,) + entry.partials()]
    slots = nijenhuis(structure, structure.box.lattice(2))
    assert arrays == sum(p.degree > 0 for p in polys) + len(slots)


def _random_sparse_structure(n, seed):
    """About half the entries of J the zero polynomial, the others one to
    three terms of degree <= 2 with dyadic coefficients."""
    rng = np.random.default_rng(seed)
    size = 2 * n
    monomials = monomials_upto(size, 2, include_constant=True)

    def entry():
        if rng.random() < 0.5:
            return Polynomial.zero(size)
        picks = rng.choice(len(monomials), rng.integers(1, 4), replace=False)
        coefs = rng.integers(1, 9, len(picks)) * rng.choice([-1, 1], len(picks))
        return Polynomial(size, {monomials[p]: c / 8.0
                                 for p, c in zip(picks, coefs)})

    matrix = [[entry() for _ in range(size)] for _ in range(size)]
    return ACStructure(n, Box((-1.0,) * size, (1.0,) * size), matrix)


@pytest.mark.parametrize("n, seed", [(n, seed) for n in (1, 2, 3)
                                     for seed in range(3)])
def test_acs_residual_is_bit_identical_to_the_dense_contraction(n, seed):
    structure = _random_sparse_structure(n, seed)
    pts = structure.box.lattice(5)
    entries = jfield.j_entries(structure, pts)
    j = eval_j(structure, pts)
    expected = float(np.max(np.abs(
        np.einsum("pik,pkj->pij", j, j) + np.eye(2 * n)))).hex()
    assert acs_residual(structure, entries).hex() == expected
    # Strided views of the dense J, as split_type passes them, read the same.
    views = {(k, a): j[:, k, a] for k, a in entries}
    assert acs_residual(structure, views).hex() == expected
    assert check_acs(structure).metrics["acs_residual"].hex() == expected
    # A nonzero entry at -0.0 is kept apart from the skipped zero ones.
    rng = np.random.default_rng(seed)
    for key, value in entries.items():
        if np.ndim(value):
            entries[key] = np.where(rng.random(len(pts)) < 0.2, -0.0, value)
    dense = np.zeros_like(j)
    for (k, a), value in entries.items():
        dense[:, k, a] = value
    dense = np.einsum("pik,pkj->pij", dense, dense) + np.eye(2 * n)
    assert acs_residual(structure, entries).hex() == \
        float(np.max(np.abs(dense))).hex()


def _bench_structures():
    """The structures of the bench's ``pointwise`` and ``solve`` scenarios
    at seed 1."""
    built = [data for workload in ("pointwise", "solve") for data in
             bench_scenarios().build(workload, 1, "full", builtin_scenarios())]
    return [parse_scenario(data).structure for data in built]


# J_00 = -x1*x2 vanishes on the axes, where its term is -1 * 0.0 = -0.0,
# which evaluate adds to its +0.0.
VANISHING = ACStructure(1, Box((-1.0, -1.0), (1.0, 1.0)), [
    [parse_polynomial(e, 2) for e in row]
    for row in [["-x1*x2", "-1 - x1*x2"], ["1", "x1*x2"]]])


def _eval_j_cases():
    builtins = [parse_scenario(data).structure
                for data in builtin_scenarios().values()]
    return (builtins + _bench_structures() + [VANISHING]
            + [_random_sparse_structure(n, seed) for n in (1, 2, 3)
               for seed in range(3)])


def test_eval_j_has_the_bits_of_a_per_entry_evaluate_fill(monkeypatch):
    """``eval_j`` is the fill of all (2n)^2 entries by
    ``Polynomial.evaluate``, byte for byte, and evaluates each nonzero
    entry once and no zero entry."""
    evaluated = []
    evaluate = Polynomial.evaluate

    def counting(poly, points):
        evaluated.append(poly)
        return evaluate(poly, points)

    cases = _eval_j_cases()
    assert len(cases) > 20
    for structure in cases:
        pts = structure.box.lattice(3)
        size = structure.real_dim
        fill = np.empty((len(pts), size, size))
        for k, a in itertools.product(range(size), repeat=2):
            fill[:, k, a] = structure.matrix[k][a].evaluate(pts)
        monkeypatch.setattr(Polynomial, "evaluate", counting)
        evaluated.clear()
        assert eval_j(structure, pts).tobytes() == fill.tobytes()
        monkeypatch.setattr(Polynomial, "evaluate", evaluate)
        assert sorted(map(id, evaluated)) == sorted(
            id(e) for row in structure.matrix for e in row if not e.is_zero)
    j00 = eval_j(VANISHING, VANISHING.box.lattice(3))[:, 0, 0]
    assert (j00 == 0).sum() == 5 and not np.signbit(j00[j00 == 0]).any()


def test_the_nijenhuis_slots_are_planned_once_per_integrability_run(
        monkeypatch):
    """The slot plan is built on the structure's first use and kept on it:
    once for a run's cap check and its ``integrability`` task, and not
    again for a second run; a flat J's empty plan is kept too."""
    builds = []
    plan = jfield._nijenhuis_slots

    def counting(structure):
        builds.append(structure)
        return plan(structure)

    monkeypatch.setattr(jfield, "_nijenhuis_slots", counting)
    for data in builtin_scenarios().values():
        builds.clear()
        scenario = parse_scenario(data)
        run_scenario(scenario, task_filter="integrability", grid_override=3)
        assert builds == [scenario.structure]
        run_scenario(scenario, task_filter="integrability", grid_override=3)
        assert builds == [scenario.structure]


def test_eval_j_names_the_first_non_finite_point_in_lattice_order():
    # 1e300*x2^2 overflows at x2 = 5e4 and 1e5, on 6 of the 9 points.
    box = Box((-1.0, 0.0), (1.0, 1e5))
    matrix = [[parse_polynomial(e, 2) for e in row]
              for row in [["0", "1e300*x2^2"], ["0", "0"]]]
    s = ACStructure(1, box, matrix)
    pts = box.lattice(3)
    with np.errstate(over="ignore"):
        for batch, point in ((pts, (-1.0, 50000.0)),
                             (pts[::-1], (1.0, 100000.0))):
            with pytest.raises(NumericalError) as exc:
                eval_j(s, batch)
            assert str(exc.value) == f"J is not finite at point {point}"


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


# The per-point loop that the stacked split_type replaced, cut to the
# eigenspace dimensions it found and the first point where they fail.
def _reference_dimension(j_matrix, eigenvalue, svd_rel_tol):
    a = j_matrix.astype(complex) - eigenvalue * np.eye(j_matrix.shape[0])
    _, sigma, _ = np.linalg.svd(a)
    return j_matrix.shape[0] - int(numerical_rank(sigma, svd_rel_tol))


def _reference_split_type(structure, pts, svd_rel_tol=1e-8):
    n = structure.n
    j = eval_j(structure, pts)
    for p in range(pts.shape[0]):
        dims = (_reference_dimension(j[p], 1j, svd_rel_tol),
                _reference_dimension(j[p], -1j, svd_rel_tol))
        if dims != (n, n):
            raise DegenerateStructureError(
                f"eigenspace dimensions {dims} != ({n}, {n}) "
                f"at point {tuple(pts[p])}")
    return (n, n)


@pytest.mark.parametrize("case", ["std1", "std2", "std3", "twisted", "sheared3"])
def test_split_type_is_bit_identical_to_the_per_point_loop(case, std1, std2, twisted):
    structure, k = {
        "std1": (std1, 5),
        "std2": (std2, 5),
        "std3": (standard_structure(3), 3),
        "twisted": (twisted, 5),
        "sheared3": (_sheared_n3(), 4),
    }[case]
    pts = structure.box.lattice(k)
    res = split_type(structure, pts)
    assert res.dims == _reference_split_type(structure, pts)
    eye = np.eye(structure.real_dim)
    for p, j in enumerate(eval_j(structure, pts)):
        assert res.projector[p].tobytes() == ((eye - 1j * j) / 2).tobytes()
    # J P - i P = -i (J^2 + I) / 2, and halving is exact.
    acs = check_acs(structure, grid_k=k).metrics["acs_residual"]
    assert res.eigen_residual == acs / 2


def test_split_type_takes_one_svd(monkeypatch, std2):
    calls = []
    svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls.append(kwargs)
        return svd(*args, **kwargs)
    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    split_type(std2, std2.box.lattice(3))
    assert calls == [{"compute_uv": False}]


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


def test_split_type_names_the_first_degenerate_point_before_its_class():
    # J = [[0, -1], [x1, 0]] is degenerate where x1 != 1.  Point 1 is the
    # first degenerate point in lattice order, but the bits of x1 = -1.0
    # sort first, so the first degenerate class decomposed is point 2's.
    box = Box((-1.0, -1.0), (1.0, 1.0))
    s = ACStructure(1, box, [[parse_polynomial(e, 2) for e in row]
                             for row in [["0", "-1"], ["x1", "0"]]])
    pts = np.array([[1.0, 0.5], [0.5, 0.0], [-1.0, -1.0], [0.5, 1.0]])
    first, inverse = jfield.distinct_points(pts, [s.matrix[1][0]])
    assert len(first) == 3 and first[0] == 2
    assert inverse[1] == inverse[3] != inverse[2]
    with pytest.raises(DegenerateStructureError) as ref:
        _reference_split_type(s, pts)
    with pytest.raises(DegenerateStructureError) as new:
        split_type(s, pts)
    assert str(ref.value).endswith(f"at point {tuple(pts[1])}")
    assert str(new.value) == (
        "eigenspace dimensions (0, 0) != (1, 1) at point (0.5, 0.0)")


def test_distinct_points_reads_only_the_variables_of_the_terms():
    pts = np.array([[1.0, 2.0, 0.0], [1.0, 3.0, -0.0], [1.0, 2.0, 0.0],
                    [4.0, 5.0, 0.0]])
    x2 = parse_polynomial("x2^2", 3)
    first, inverse = jfield.distinct_points(pts, [x2, Polynomial.zero(3)])
    assert pts[first, 1].tolist() == [2.0, 3.0, 5.0]
    assert inverse.tolist() == [0, 1, 0, 2]
    # +0.0 and -0.0 stay apart.
    first, inverse = jfield.distinct_points(pts, [parse_polynomial("x1*x3", 3)])
    assert len(first) == 3 and inverse[0] == inverse[2]
    assert len(set(inverse[[0, 1, 3]])) == 3
    # No variable, so one class; and no points, no class.
    constants = [Polynomial.constant(3, 2.0), Polynomial.zero(3)]
    for polys in ([], constants):
        first, inverse = jfield.distinct_points(pts, polys)
        assert first.tolist() == [0] and inverse.tolist() == [0] * 4
    for polys in ([], constants, [x2]):
        first, inverse = jfield.distinct_points(np.empty((0, 3)), polys)
        assert len(first) == len(inverse) == 0


@pytest.mark.parametrize("twisted_j", [False, True])
def test_split_type_of_no_points_fails_as_the_full_stack_did(twisted_j,
                                                             std2, twisted):
    with pytest.raises(ValueError, match="cannot reshape array of size 0"):
        split_type(twisted if twisted_j else std2, np.empty((0, 4)))


def _split_outcome(structure, pts):
    try:
        res = split_type(structure, pts)
    except DegenerateStructureError as exc:
        return str(exc)
    return res.dims, res.eigen_residual.hex()


def _split_type_cases():
    """Each structure of the packaged scenarios and of the bench's
    ``pointwise`` and ``solve`` scenarios at seeds 1-3, with the lattice of
    each of its split_type tasks and the default one; a dense J, which
    reads every variable; and twisted_r4's J at a lattice holding both
    +0.0 and -0.0 in x1."""
    cases = []
    for source, data in canonical_scenarios():
        structure = parse_scenario(data).structure
        grids = {defaults.GRID_PER_AXIS} | {
            spec.get("grid", defaults.GRID_PER_AXIS) for spec in data["tasks"]
            if spec["task"] == "split_type"}
        cases += [pytest.param(structure, structure.box.lattice(k),
                               id=f"{source}-{data['name']}-{k}")
                  for k in sorted(grids)]
    dense = _random_dense_structure(2, 0)
    twisted_r4 = parse_scenario(builtin_scenarios()["twisted_r4"]).structure
    signed = twisted_r4.box.lattice(3)
    signed = np.concatenate([signed, signed * np.array([-1.0, 1.0, 1.0, 1.0])])
    return cases + [pytest.param(dense, dense.box.lattice(4), id="dense"),
                    pytest.param(_sheared_n3(), _sheared_n3().box.lattice(4),
                                 id="sheared3"),
                    pytest.param(twisted_r4, signed, id="signed-zeros")]


@pytest.mark.parametrize("structure, pts", _split_type_cases())
def test_split_type_at_distinct_points_has_the_bits_of_the_full_stack(
        monkeypatch, structure, pts):
    """The singular values at the distinct points, spread back, have the
    bits of the SVD at every point; and split_type's dims, eigen_residual
    or degenerate point are those of the full stack."""
    size = structure.real_dim
    j = eval_j(structure, pts)
    first, inverse = jfield.distinct_points(
        pts, [e for row in structure.matrix for e in row])
    assert j[first][inverse].tobytes() == j.tobytes()
    shifted = j - 1j * np.eye(size)
    assert (np.linalg.svd(shifted[first], compute_uv=False)[inverse].tobytes()
            == np.linalg.svd(shifted, compute_uv=False).tobytes())
    outcome = _split_outcome(structure, pts)
    monkeypatch.setattr(jfield, "distinct_points", every_point)
    assert outcome == _split_outcome(structure, pts)


def test_split_type_bases_span_the_exact_projector_images():
    # With J^2 = -I, P = (I - iJ)/2 is idempotent and its image is the i
    # eigenspace.  The sheared n = 3 structure squares to -I exactly in
    # sympy, and its 3-dimensional eigenspaces move from point to point.
    r = sympy.Rational
    data = builtin_scenarios()["twisted_r4"]
    xs4, xs6 = sympy.symbols("x1:5"), sympy.symbols("x1:7")
    sheared = _sheared_n3()
    cases = [
        (parse_scenario(data).structure, xs4, sympy.Matrix(
            [[sympy.sympify(e, locals=dict(zip(map(str, xs4), xs4)))
              for e in row] for row in data["J"]]),
         [(r(1, 4), r(-1, 3), 0, r(1, 2)),
          (r(-2, 5), r(1, 7), r(3, 8), 0),
          (r(1, 2), 0, r(-1, 2), r(5, 16))]),
        (sheared, xs6, _sympy_matrix(sheared, xs6),
         [(r(1, 4), r(-1, 3), 0, r(1, 2), r(-3, 5), r(2, 7)),
          (r(-2, 5), r(6, 7), r(3, 8), r(-7, 9), 0, r(1, 3)),
          (r(-1, 2), r(2, 3), r(-5, 8), 0, r(9, 10), r(-1, 6))]),
    ]
    for structure, xs, j_sym, rational_points in cases:
        n, size = structure.n, structure.real_dim
        pts = np.array([[float(c) for c in pt] for pt in rational_points])
        res = split_type(structure, pts)
        assert res.projector.shape == (len(pts), size, size)
        for p, pt in enumerate(rational_points):
            j_at = j_sym.subs(dict(zip(xs, pt)))
            exact = (sympy.eye(size) - sympy.I * j_at) / 2
            assert (exact * exact - exact).expand() == sympy.zeros(size)
            assert (j_at * exact - sympy.I * exact).expand() == sympy.zeros(size)
            assert exact.rank() == n
            oracle = np.array(exact.evalf(), dtype=complex)
            proj, j = res.projector[p], eval_j(structure, pts[p:p + 1])[0]
            assert np.max(np.abs(proj - oracle)) <= 1e-15
            assert np.max(np.abs(proj @ proj - proj)) <= 1e-15
            assert np.max(np.abs(j @ proj - 1j * proj)) <= 1e-15


def test_distinct_rows_keeps_one_row_per_bit_pattern():
    """Rows are distinct by bits: +0.0 and -0.0, and two NaN payloads,
    stay apart; the inverse rebuilds the array, and the count of a
    complex array is that of its real view."""
    nan2 = np.frombuffer(np.array(0x7FF8000000000001, dtype=np.int64).tobytes())[0]
    a = np.array([[1.0, 0.0], [1.0, -0.0], [np.nan, 2.0], [nan2, 2.0],
                  [1.0, 0.0], [np.nan, 2.0], [-3.0, 5.0]])
    first, inverse = jfield._distinct_rows(a)
    assert len(first) == 5
    assert a[first][inverse].tobytes() == a.tobytes()
    assert sorted(inverse[[0, 4]]) == [inverse[0]] * 2
    assert len(set(inverse[[0, 1, 2, 3, 6]])) == 5
    # The first of each repeated row is the one kept.
    assert set(first) == {0, 1, 2, 3, 6}
    assert len(jfield._distinct_rows(a.view(complex))[0]) == 5
    first, inverse = jfield._distinct_rows(np.empty((0, 3)))
    assert len(first) == len(inverse) == 0
