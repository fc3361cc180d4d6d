from __future__ import annotations

import numpy as np
import pytest
import sympy

from spencerkit import charts, defaults, parse_polynomial
from spencerkit.errors import PolynomialParseError
from spencerkit.poly import (
    PolyMap,
    Polynomial,
    fmt_complex,
    fmt_float,
    format_polynomial,
    monomial_key,
    monomials_upto,
)


def test_fmt_float_is_17_digit_and_stable():
    assert fmt_float(0.1) == "0.10000000000000001"
    assert fmt_float(1.0) == "1"
    for v in (0.3, 1 / 3, 1e300, -2.5e-13, -0.0):
        assert float(fmt_float(v)) == v


def test_fmt_complex_round_trips_sign():
    assert fmt_complex(1 + 2j) == "(1+2i)"
    assert fmt_complex(-0.5 - 1j) == "(-0.5-1i)"


def test_monomials_upto_graded_order():
    monos = monomials_upto(2, 2)
    assert monos[0] == (0, 1)
    assert monos == sorted(monos, key=monomial_key)
    assert (0, 0) not in monos
    with_const = monomials_upto(2, 1, include_constant=True)
    assert with_const[0] == (0, 0)


def test_parse_basic_arithmetic():
    p = parse_polynomial("x1^2 - 2*x1*x2 + 1", 2)
    pts = np.array([[1.0, 2.0], [0.5, -0.25]])
    expected = pts[:, 0] ** 2 - 2 * pts[:, 0] * pts[:, 1] + 1
    assert np.allclose(p.evaluate(pts), expected)


def test_parse_complex_literal_and_scientific():
    p = parse_polynomial("(0+1i)*x2 + 2.5e-1*x1", 2)
    val = p.evaluate(np.array([[4.0, 3.0]]))
    assert val[0] == pytest.approx(1.0 + 3.0j)


def test_parse_unary_signs():
    p = parse_polynomial("-x1 - 2*x2", 2)
    assert p.evaluate(np.array([[5.0, 1.0]]))[0] == pytest.approx(-7.0)
    with pytest.raises(PolynomialParseError):
        parse_polynomial("x1 + -x2", 2)


def test_parse_error_reports_offset():
    with pytest.raises(PolynomialParseError) as err:
        parse_polynomial("x1 + x9", 2)
    assert err.value.position == 5
    assert "offset" in str(err.value)

    with pytest.raises(PolynomialParseError):
        parse_polynomial("x1 + ", 2)
    with pytest.raises(PolynomialParseError):
        parse_polynomial("", 2)
    with pytest.raises(PolynomialParseError, match="prefix 'w'"):
        parse_polynomial("x1 + w1", 2)


@pytest.mark.parametrize("text, offset", [
    ("1e999*x1", 0), ("x2 + (1e999+0i)*x1", 5), ("x1 - 2*(0-1e400i)", 7),
    ("1e200*1e200*x1", 0), ("x1 + 1e308*x2 + 1e308*x2", 16),
])
def test_parse_refuses_non_finite_coefficients(text, offset):
    with pytest.raises(PolynomialParseError, match="not finite") as err:
        parse_polynomial(text, 2)
    assert err.value.position == offset


def test_parse_degree_cap():
    parse_polynomial("x1^3", 2, max_degree=3)
    with pytest.raises(PolynomialParseError):
        parse_polynomial("x1^4", 2, max_degree=3)


def test_format_parse_round_trip():
    texts = [
        "x1^2 - 2*x1*x2 + 1",
        "(0+1i)*x2 + x1",
        "0.1*x1^3 + (0.25-0.5i)*x2^2 - 3",
    ]
    for text in texts:
        p = parse_polynomial(text, 2)
        q = parse_polynomial(format_polynomial(p), 2)
        assert p == q


def test_format_renders_unit_coefficients():
    p = parse_polynomial("x2 - x1", 2)
    s = format_polynomial(p)
    assert "1*x2" in s
    assert parse_polynomial(s, 2) == p


def test_arithmetic_matches_sympy():
    rng = np.random.default_rng(7)
    x = sympy.symbols("x1:4")
    for _ in range(20):
        exps = [tuple(rng.integers(0, 3, size=3)) for _ in range(4)]
        coefs = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        p = Polynomial(3, dict(zip(exps, coefs)))
        sp = sum(
            c * x[0] ** e[0] * x[1] ** e[1] * x[2] ** e[2]
            for e, c in p.terms_sorted()
        )
        q = (p * p - p) + 2
        sq = sympy.expand(sp * sp - sp + 2)
        pt = rng.uniform(-1, 1, size=3)
        subs = dict(zip(x, pt))
        assert complex(q.evaluate(pt[None, :])[0]) == pytest.approx(
            complex(sq.subs(subs)), abs=1e-10)


def test_diff_is_exact_against_sympy():
    rng = np.random.default_rng(11)
    x = sympy.symbols("x1:3")
    p = parse_polynomial("x1^3 - 2*x1*x2^2 + (0+0.5i)*x2^3", 2)
    sp = (x[0] ** 3 - 2 * x[0] * x[1] ** 2
          + sympy.I * sympy.Rational(1, 2) * x[1] ** 3)
    for axis in range(2):
        d = p.diff(axis)
        sd = sympy.diff(sp, x[axis])
        for _ in range(5):
            pt = rng.uniform(-2, 2, size=2)
            subs = dict(zip(x, pt))
            assert complex(d.evaluate(pt[None, :])[0]) == pytest.approx(
                complex(sd.subs(subs)), abs=1e-12)


def test_gradient_matches_componentwise_diff():
    p = parse_polynomial("x1^2*x2 + (0+1i)*x2^2", 2)
    pts = np.array([[0.3, -0.7], [1.0, 2.0]])
    grad = p.gradient(pts)
    for axis in range(2):
        assert np.allclose(grad[:, axis], p.diff(axis).evaluate(pts))


def test_gradient_reuses_cached_partials(monkeypatch):
    p = parse_polynomial("x1^2*x2 + x2^3", 2)
    pts = np.array([[0.3, -0.7], [1.0, 2.0]])
    first = p.gradient(pts)
    assert p.partials() == (p.diff(0), p.diff(1))
    calls = []
    monkeypatch.setattr(Polynomial, "diff", lambda self, axis: calls.append(axis))
    assert np.array_equal(p.gradient(pts), first)
    assert calls == []


def test_conjugate_and_is_real():
    p = parse_polynomial("x1 + (0+1i)*x2", 2)
    q = p.conjugate()
    pt = np.array([[0.25, -0.75]])
    assert q.evaluate(pt)[0] == pytest.approx(np.conj(p.evaluate(pt)[0]))
    assert not p.is_real
    assert (p * q).is_real


def test_evaluate_accepts_complex_points():
    p = parse_polynomial("x1^2 + x2", 2)
    w = np.array([[1 + 1j, 2.0], [0.5j, -1.0]])
    vals = p.evaluate(w)
    assert vals[0] == pytest.approx((1 + 1j) ** 2 + 2.0)
    assert vals[1] == pytest.approx((0.5j) ** 2 - 1.0)


def test_compose_matches_substitution():
    outer = parse_polynomial("x1^2 + x2", 2)
    inner = [parse_polynomial("x1 + x2", 2), parse_polynomial("x1*x2", 2)]
    comp = outer.compose(inner)
    pts = np.array([[0.2, 0.4], [-1.0, 0.5]])
    direct = outer.evaluate(
        np.stack([inner[0].evaluate(pts), inner[1].evaluate(pts)], axis=-1))
    assert np.allclose(comp.evaluate(pts), direct)


def test_polymap_identity_and_jacobian():
    ident = PolyMap.identity(3)
    pts = np.random.default_rng(0).uniform(-1, 1, size=(4, 3))
    assert np.allclose(ident.evaluate(pts), pts)
    jac = ident.jacobian(pts)
    assert np.allclose(jac, np.broadcast_to(np.eye(3), (4, 3, 3)))


def test_polymap_compose_is_symbolic():
    f = PolyMap([parse_polynomial("x1 + x2", 2), parse_polynomial("x1 - x2", 2)])
    g = PolyMap([parse_polynomial("2*x1", 2), parse_polynomial("3*x2", 2)])
    h = f.compose(g)
    pts = np.array([[0.1, 0.2], [0.5, -0.5]])
    assert np.allclose(h.evaluate(pts), f.evaluate(g.evaluate(pts)))


def _random_real_map(rng, nvars, degree):
    """A PolyMap of nvars components in nvars variables, each with a few
    quarter-integer coefficients and total degree at most ``degree``."""
    monos = monomials_upto(nvars, degree, include_constant=True)
    return PolyMap([
        Polynomial(nvars, {monos[i]: rng.integers(-8, 9) / 4
                           for i in rng.choice(len(monos), size=min(4, len(monos)),
                                               replace=False)})
        for _ in range(nvars)])


def _sympy_of(p, x):
    return sum(sympy.Rational(c.real) * sympy.Mul(*(v ** k for v, k in zip(x, e)))
               for e, c in p.terms.items())


@pytest.mark.parametrize("nvars", [2, 3, 4])
def test_polymap_compose_matches_sympy_substitution(nvars):
    rng = np.random.default_rng(nvars)
    x = sympy.symbols(f"x1:{nvars + 1}")
    for outer_degree, inner_degree in ((1, 3), (2, 2), (2, 3), (3, 2), (6, 1)):
        assert outer_degree * inner_degree <= defaults.DEGREE_CAP
        outer = _random_real_map(rng, nvars, outer_degree)
        inner = _random_real_map(rng, nvars, inner_degree)
        composite = outer.compose(inner)
        substitution = dict(zip(x, (_sympy_of(q, x) for q in inner.components)))
        for ours, component in zip(composite.components, outer.components):
            exact = sympy.Poly(sympy.expand(
                _sympy_of(component, x).xreplace(substitution)), *x)
            expected = {e: float(c) for e, c in exact.terms() if c != 0}
            assert ours.is_real
            assert set(ours.terms) == set(expected)
            for e, c in expected.items():
                assert ours.terms[e].real == pytest.approx(c, rel=1e-12, abs=1e-12)


def test_polynomial_immutable_and_hashable():
    p = parse_polynomial("x1", 2)
    with pytest.raises(AttributeError):
        p.nvars = 3
    assert hash(p) == hash(parse_polynomial("x1", 2))


def _random_real_polynomial(rng, nvars):
    """Up to six real terms of total degree <= DEGREE_CAP in a random subset
    of the variables, so some partials are zero; some coefficients are
    large enough to overflow on large points."""
    used = rng.random(nvars) < 0.7
    terms = {}
    for _ in range(rng.integers(1, 7)):
        exps = np.zeros(nvars, dtype=int)
        for _ in range(rng.integers(0, defaults.DEGREE_CAP + 1)):
            axis = rng.integers(nvars)
            if used[axis]:
                exps[axis] += 1
        scale = 1e300 if rng.random() < 0.1 else 10.0 ** rng.integers(-3, 4)
        terms[tuple(exps)] = rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 2.0) * scale
    p = Polynomial(nvars, terms)
    # Negation hands the constructor coefficients whose imaginary part is -0.0.
    return -p if rng.random() < 0.5 else p


def _reference_evaluate(poly, points):
    """The complex term loop of ``Polynomial.evaluate`` before the shared
    kernel, verbatim."""
    pts = np.asarray(points)
    out = np.zeros(pts.shape[0], dtype=complex)
    for e, c in poly.terms.items():
        term = np.full(pts.shape[0], c, dtype=complex)
        for k, power in enumerate(e):
            if power:
                term = term * pts[:, k] ** power
        out += term
    return out


def _reference_vandermonde(w, fit_degree):
    """The monomial loop of ``charts._vandermonde`` before the shared
    kernel, verbatim."""
    m = w.shape[1]
    monomials = monomials_upto(m, fit_degree, include_constant=True)
    cols = []
    for exps in monomials:
        col = np.ones(w.shape[0], dtype=complex)
        for j, e in enumerate(exps):
            if e:
                col = col * w[:, j] ** e
        cols.append(col)
    return np.stack(cols, axis=1), monomials


def _reference_map(pmap, points):
    """Reference values (P, c) and Jacobians (P, c, d) of a PolyMap."""
    values = np.stack([_reference_evaluate(c, points) for c in pmap.components],
                      axis=-1)
    jac = np.stack([np.stack([_reference_evaluate(d, points) for d in c.partials()],
                             axis=-1) for c in pmap.components], axis=1)
    return values, jac


def _kernel_outputs(pmap, points):
    """Every evaluator's output on a PolyMap, its reference, and the dtype
    the rule gives: float64 when every coefficient evaluated and every point
    is real, complex otherwise."""
    values, jac = _reference_map(pmap, points)
    first = pmap.components[0]
    partials = [d for c in pmap.components for d in c.partials()]

    def dtype(polys):
        real = np.isrealobj(points) and all(
            c.imag == 0 for p in polys for c in p.terms.values())
        return np.float64 if real else np.complex128

    return [(pmap.evaluate(points), values, dtype(pmap.components)),
            (pmap.jacobian(points), jac, dtype(partials)),
            (first.evaluate(points), values[:, 0], dtype([first])),
            (first.gradient(points), jac[:, 0], dtype(first.partials()))]


def _assert_same_bits(values, reference):
    """Complex values: both parts bit for bit.  Real values: the bits of the
    reference's real part wherever that is finite, non-finite where it is
    not.  Returns the (finite, non-finite) entry counts."""
    assert values.shape == reference.shape
    if values.dtype == np.complex128:
        assert values.tobytes() == reference.tobytes()
        return values.size, 0
    reference = reference.real
    finite = np.isfinite(reference)
    assert np.array_equal(np.isfinite(values), finite)
    assert values[finite].tobytes() == reference[finite].tobytes()
    return int(finite.sum()), int((~finite).sum())


@pytest.mark.parametrize("nvars", [1, 2, 3, 4])
def test_one_kernel_keeps_the_bits_of_the_parent_loops(nvars):
    rng = np.random.default_rng(100 + nvars)
    finite_entries = non_finite_entries = 0
    for _ in range(60):
        pmap = PolyMap([_random_real_polynomial(rng, nvars) for _ in range(nvars)])
        pts = rng.uniform(-3.0, 3.0, size=(50, nvars))
        pts[rng.random(pts.shape) < 0.1] = -0.0
        pts[rng.random(pts.shape) < 0.05] *= 1e60
        with np.errstate(all="ignore"):
            outputs = _kernel_outputs(pmap, pts)
        for values, reference, dtype in outputs:
            assert dtype == values.dtype == np.float64
            finite, non_finite = _assert_same_bits(values, reference)
            finite_entries += finite
            non_finite_entries += non_finite
    assert finite_entries > 4000 and non_finite_entries > 40

    for _ in range(20):
        real_map = PolyMap([_random_real_polynomial(rng, nvars) for _ in range(nvars)])
        twist = PolyMap([_random_real_polynomial(rng, nvars) for _ in range(nvars)])
        complex_map = PolyMap([a + b * (0.5 - 2j) for a, b in
                               zip(real_map.components, twist.components)])
        pts = rng.uniform(-3.0, 3.0, size=(30, nvars))
        pts[rng.random(pts.shape) < 0.1] = -0.0
        zs = pts + 1j * rng.uniform(-3.0, 3.0, size=pts.shape)
        for pmap, points in ((complex_map, pts), (complex_map, zs), (real_map, zs)):
            with np.errstate(all="ignore"):
                outputs = _kernel_outputs(pmap, points)
            for values, reference, dtype in outputs:
                assert values.dtype == dtype
                _assert_same_bits(values, reference)
            assert outputs[0][0].dtype == np.complex128

    # Chart coordinates on a lattice can have exactly zero parts.
    shape = (40, nvars)
    w = rng.uniform(-2.0, 2.0, size=shape) + 1j * rng.uniform(-2.0, 2.0, size=shape)
    w.real[rng.random(w.shape) < 0.1] = 0.0
    w.imag[rng.random(w.shape) < 0.1] = 0.0
    for points in (w, np.concatenate([w, np.conj(w)], axis=1)):
        matrix, monomials = charts._vandermonde(points, 3)
        reference, ref_monomials = _reference_vandermonde(points, 3)
        assert monomials == ref_monomials
        assert matrix.dtype == np.complex128
        # Bit for bit, except that the kernel adds each column to a zero
        # start, as Polynomial.evaluate always did: a zero part the column
        # loop left as -0.0 reads +0.0.
        assert matrix.tobytes() == (reference + 0.0).tobytes()


def test_kernel_dtype_rule():
    pts = np.array([[0.5, -0.0], [-2.0, 3.0]])
    real = parse_polynomial("x1^2 - 3*x2 + 1", 2)
    # A negated real coefficient arrives with imaginary part -0.0.
    negated = Polynomial(2, {(1, 0): complex(-2.0, -0.0)})
    for p in (real, -real, negated, Polynomial.zero(2)):
        assert p.is_real
        assert p.evaluate(pts).dtype == np.float64
        assert p.gradient(pts).dtype == np.float64
    cplx = parse_polynomial("x1 + (0+1i)*x2", 2)
    assert not cplx.is_real
    assert cplx.evaluate(pts).dtype == np.complex128
    assert real.evaluate(pts.astype(complex)).dtype == np.complex128
    assert cplx.gradient(pts).dtype == np.complex128
    # One complex component makes the whole map complex.
    assert PolyMap([real, cplx]).evaluate(pts).dtype == np.complex128
    assert PolyMap([real, negated]).jacobian(pts).dtype == np.float64
