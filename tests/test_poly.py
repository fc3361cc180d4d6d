from __future__ import annotations

import numpy as np
import pytest
import sympy

from spencerkit import parse_polynomial
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
    assert err.value.position is not None
    assert "offset" in str(err.value)

    with pytest.raises(PolynomialParseError):
        parse_polynomial("x1 + ", 2)
    with pytest.raises(PolynomialParseError):
        parse_polynomial("", 2)
    with pytest.raises(PolynomialParseError, match="prefix 'w'"):
        parse_polynomial("x1 + w1", 2)


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
    assert not p.is_real()
    assert (p * q).is_real(tol=0.0) or (p * q).is_real(tol=1e-15)


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


def test_polynomial_immutable_and_hashable():
    p = parse_polynomial("x1", 2)
    with pytest.raises(AttributeError):
        p.nvars = 3
    assert hash(p) == hash(parse_polynomial("x1", 2))
