"""Acceptance gate: one check per advertised guarantee of the toolkit.

Each test covers one numbered guarantee and prints a matching [PASS] line;
tolerances are pinned here and must not be loosened.
"""
from __future__ import annotations

import json
import subprocess
import sys
import time

import numpy as np
import pytest

from spencerkit import (
    Box,
    GlueTest,
    LocalMap,
    build_spencer_chart,
    check_acs,
    check_ah_map,
    check_over_diagram,
    cocycle_check,
    cr_equations_check,
    cr_residual,
    estimate_spencer_type,
    eval_j,
    factorize,
    generate,
    identity_map,
    independence_rank,
    integrability_report,
    parse_polynomial,
    solve_ah_polynomials,
    split_type,
    transition_map,
    validate_axioms,
)
from spencerkit.poly import Polynomial, monomials_upto, real_jacobian
from spencerkit.pseudogroup import OverDiagram
from spencerkit.scenario import builtin_scenarios

from conftest import cli_env


def _passed(number, text):
    print(f"[PASS] acceptance {number}: {text}")


def pmap(strs, lo, hi, name, inv=None):
    comps = [parse_polynomial(s, len(lo)) for s in strs]
    return LocalMap.from_polynomials(comps, Box(lo, hi), name,
                                     declared_inverse=inv)


def test_acceptance_01_structure_validity(std1, std2, twisted):
    for structure, exact in ((std1, True), (std2, True), (twisted, False)):
        start = time.perf_counter()
        rep = check_acs(structure, grid_k=7)
        elapsed = time.perf_counter() - start
        assert rep.status == "pass"
        if exact:
            assert rep.metrics["acs_residual"] == 0.0
        else:
            assert rep.metrics["acs_residual"] <= 1e-10
        assert elapsed < 1.0
    _passed(1, "all builtin structures satisfy J^2 = -I on k=7 grids in < 1 s")


def test_acceptance_02_type_splitting(std1, std2, twisted):
    for structure in (std1, std2, twisted):
        res = split_type(structure, structure.box.lattice())
        n = structure.n
        assert res.dims == (n, n)
        assert res.projector.shape == (len(res.points), 2 * n, 2 * n)
        assert res.eigen_residual <= 1e-8
    _passed(2, "eigenspace splitting is (n, n) with residual <= 1e-8 "
               "at every grid point")


def _real_pair_residual(structure, field, points):
    """Max-norm of the real-pair form of the CR equations for f = u + i v:
    du o J + dv and dv o J - du."""
    grad = field.gradient(points)
    du, dv = grad.real, grad.imag
    j = eval_j(structure, points)
    first = np.einsum("pi,pij->pj", du, j) + dv
    second = np.einsum("pi,pij->pj", dv, j) - du
    return float(max(np.max(np.abs(first)), np.max(np.abs(second))))


def test_acceptance_03_cr_definition(std1, z_field, zbar_field):
    points = std1.box.lattice()
    z_res, zbar_res = cr_residual(std1, [z_field, zbar_field], points)
    assert z_res == 0.0
    assert abs(zbar_res - 2.0) <= 1e-12
    rng = np.random.default_rng(123)
    monos = monomials_upto(2, 3, include_constant=True)
    for _ in range(100):
        coefs = rng.standard_normal(len(monos)) + 1j * rng.standard_normal(len(monos))
        f = Polynomial(2, dict(zip(monos, coefs)))
        rep = cr_equations_check(std1, f)
        rc = rep.metrics["cr_residual"]
        assert rc == cr_residual(std1, [f], points)[0]
        rr = _real_pair_residual(std1, f, points)
        assert rr <= rc <= 2.0 * rr
    _passed(3, "cr_residual(z) = 0, cr_residual(conj z) = 2, and the real "
               "form agrees within a factor of 2 on 100 random candidates")


def test_acceptance_04_solver_correctness(std1, std2):
    sol = solve_ah_polynomials(std2, degree=1)
    assert sol.nullity == 2
    assert sol.residual <= 1e-12
    grid = std2.box.lattice()
    assert independence_rank(real_jacobian(sol.fields, grid)) == 4
    z1 = parse_polynomial("x1 + (0+1i)*x2", 4)
    z2 = parse_polynomial("x3 + (0+1i)*x4", 4)
    basis = np.array(sol.coefficients)
    for target in (z1, z2):
        rhs = np.array([dict(target.terms_sorted()).get(e, 0.0)
                        for e in sol.monomials])
        coeffs, residual, _, _ = np.linalg.lstsq(basis.T, rhs, rcond=None)
        recon = basis.T @ coeffs
        assert np.max(np.abs(recon - rhs)) <= 1e-9
    assert estimate_spencer_type(std2, solve_ah_polynomials(std2, 2)).m == 2
    assert estimate_spencer_type(std1, solve_ah_polynomials(std1, 2)).m == 1
    start = time.perf_counter()
    solve_ah_polynomials(std2, degree=3)
    assert time.perf_counter() - start < 5.0
    _passed(4, "degree-1 solutions on C^2 span {z1, z2} with rank 4, "
               "types are 2 and 1, degree-3 solve takes < 5 s")


def test_acceptance_05_nonintegrable_consistency(twisted):
    rep = integrability_report(twisted)
    assert rep.status == "fail"
    assert rep.metrics["integrability_residual"] == 1.0
    assert rep.metrics["integrability_residual"] > 1e-6
    for degree in (1, 2, 3):
        solution = solve_ah_polynomials(twisted, degree)
        assert estimate_spencer_type(twisted, solution).m < 2
    _passed(5, "twisted structure has Nijenhuis metric exactly 1.0 and "
               "type < 2 at degrees up to 3")


def test_acceptance_06_factorization_theorem(std1, std2, z_field, zbar_field):
    chart1 = build_spencer_chart(std1, [z_field], label="c1")
    z1 = parse_polynomial("x1 + (0+1i)*x2", 4)
    z2 = parse_polynomial("x3 + (0+1i)*x4", 4)
    chart2 = build_spencer_chart(std2, [z1, z2], label="c2")
    rng = np.random.default_rng(77)
    for _ in range(10):
        monos = monomials_upto(1, 3, include_constant=True)
        coefs = rng.standard_normal(len(monos)) + 1j * rng.standard_normal(len(monos))
        h = sum((z_field ** e[0]) * c for e, c in zip(monos, coefs))
        fac = factorize(chart1, h, grid_k=7, fit_degree=3)
        scale = max(1.0, float(np.max(np.abs(coefs))))
        assert fac.fit_residual <= 1e-9 * scale
    for _ in range(10):
        monos = monomials_upto(2, 3, include_constant=True)
        coefs = rng.standard_normal(len(monos)) + 1j * rng.standard_normal(len(monos))
        h = sum((z1 ** e[0]) * (z2 ** e[1]) * c for e, c in zip(monos, coefs))
        fac = factorize(chart2, h, fit_degree=3)
        scale = max(1.0, float(np.max(np.abs(coefs))))
        assert fac.fit_residual <= 1e-9 * scale
    for fit_degree in range(1, 7):
        fac = factorize(chart1, zbar_field, grid_k=7, fit_degree=fit_degree)
        assert fac.fit_residual > 1.0
    _passed(6, "20 random holomorphic superpositions factor to 1e-9 x scale; "
               "conj z never factors below residual 1.0 at any fit degree")


def test_acceptance_07_transition_theorem(std1, z_field):
    cubic = parse_polynomial(
        "x1 + 0.1*x1^3 - 0.3*x1*x2^2 + (0+1i)*x2 "
        "+ (0+0.3i)*x1^2*x2 - (0+0.1i)*x2^3", 2)
    chart_a = build_spencer_chart(std1, [z_field], grid_k=7, label="a")
    chart_b = build_spencer_chart(std1, [cubic], grid_k=7, label="b")
    trans = transition_map(chart_a, chart_b, grid_k=7, fit_degree=4)
    assert trans.fit_residual <= 1e-9
    coeffs = dict(trans.map.components[0].terms_sorted())
    assert abs(coeffs[(3,)] - 0.1) <= 1e-8

    small = Box((-0.1, -0.1), (0.1, 0.1))
    quad = parse_polynomial(
        "x1 + 0.1*x1^2 - 0.1*x2^2 + (0+1i)*x2 + (0+0.2i)*x1*x2", 2)
    double = parse_polynomial("2*x1 + (0+2i)*x2", 2)
    triple = cocycle_check(
        build_spencer_chart(std1, [z_field], box=small, label="ca"),
        build_spencer_chart(std1, [quad], box=small, label="cb"),
        build_spencer_chart(std1, [double], box=small, label="cc"),
        grid_k=9, fit_degree=6)
    assert triple.defect <= 1e-8
    _passed(7, "cubic transition is holomorphic to 1e-9 with its coefficient "
               "recovered, and the chart triple satisfies the cocycle at 1e-8")


def test_acceptance_08_pseudogroup_axioms():
    t = pmap(["x1 + 0.8", "x2"], (-1.0, -1.0), (-0.7, 1.0), "t")
    t_inv = pmap(["x1 - 0.8", "x2"], (-0.2, -1.0), (0.1, 1.0), "t_inv")
    t.declared_inverse, t_inv.declared_inverse = t_inv, t
    s = pmap(["2*x1", "2*x2"], (0.2, 0.2), (0.45, 0.45), "s")
    s_inv = pmap(["0.5*x1", "0.5*x2"], (0.4, 0.4), (0.9, 0.9), "s_inv")
    s.declared_inverse, s_inv.declared_inverse = s_inv, s
    ambient = Box((-1.0, -1.0), (1.0, 1.0))
    fam = generate([t, s], ambient, depth=2)
    glue = GlueTest(("s", "s"),
                    (Box((0.2, 0.2), (0.35, 0.45)),
                     Box((0.3, 0.2), (0.45, 0.45))),
                    Box((0.2, 0.2), (0.45, 0.45)))
    reports = {r.task: r for r in validate_axioms(fam, glue_tests=[glue])}
    assert len(reports) == 5
    assert all(r.status == "pass" for r in reports.values())

    bare_t = pmap(["x1 + 0.8", "x2"], (-1.0, -1.0), (-0.7, 1.0), "t")
    bare_s = pmap(["2*x1", "2*x2"], (0.2, 0.2), (0.45, 0.45), "s")
    bare_m4 = pmap(["4*x1", "4*x2"], (0.2, 0.2), (0.225, 0.225), "m4")
    bare = generate([bare_t, bare_s, bare_m4], ambient, depth=0)
    flags = {r.task: r.status for r in validate_axioms(bare)}
    assert flags["axiom2_inversion"] == "fail"
    assert all(v == "pass" for k, v in flags.items() if k != "axiom2_inversion")
    _passed(8, "depth-2 closure passes all five axioms; dropping inverses "
               "flips exactly the inversion axiom")


def test_acceptance_09_almost_holomorphic_maps(std1):
    sq = pmap(["x1^2 - x2^2", "2*x1*x2"], (0.05, 0.05), (0.6, 0.6), "sq")
    rep = check_ah_map(sq, std1, tol=1e-12)
    assert rep.status == "pass"
    conj = pmap(["x1", "-x2"], (-1.0, -1.0), (1.0, 1.0), "conj")
    rep = check_ah_map(conj, std1, tol=1e-12)
    assert rep.status == "fail"
    assert abs(rep.metrics["ah_map_residual"] - 2.0) <= 1e-12
    tr = pmap(["x1 + 0.1", "x2 + 0.05"], (-0.5, -0.5), (0.5, 0.5), "tr")
    fam = generate([sq, tr], Box((-1.0, -1.0), (1.0, 1.0)), depth=2)
    for member in fam.members:
        assert check_ah_map(member, std1, tol=1e-12).status == "pass"
    _passed(9, "z^2 passes the compatibility check at 1e-12, conjugation "
               "fails with metric 2, and all depth-2 composites still pass")


def test_acceptance_10_over_diagrams(std1, std2, twisted, z_field):
    cubic = parse_polynomial(
        "x1 + 0.1*x1^3 - 0.3*x1*x2^2 + (0+1i)*x2 "
        "+ (0+0.3i)*x1^2*x2 - (0+0.1i)*x2^3", 2)
    chart_a = build_spencer_chart(std1, [z_field], grid_k=7, label="a")
    chart_b = build_spencer_chart(std1, [cubic], grid_k=7, label="b")
    trans = transition_map(chart_a, chart_b, grid_k=7, fit_degree=4)
    w_poly = parse_polynomial("x1 + (0+1i)*x2", 2)
    fitted = Polynomial.zero(2)
    for exps, coef in trans.map.components[0].terms_sorted():
        fitted = fitted + (w_poly ** exps[0]) * coef
    u = (fitted + fitted.conjugate()) * 0.5
    v = (fitted - fitted.conjugate()) * (-0.5j)
    unit = Box((-1.0, -1.0), (1.0, 1.0))
    wide = Box((-2.0, -2.0), (2.0, 2.0))
    psi = LocalMap.from_polynomials([u, v], wide, "fitted_transition")
    ident = identity_map(unit)
    projection_b = pmap(
        ["x1 + 0.1*x1^3 - 0.3*x1*x2^2", "x2 + 0.3*x1^2*x2 - 0.1*x2^3"],
        (-1.0, -1.0), (1.0, 1.0), "proj_b")
    diagram = OverDiagram(phi=ident, f_src=ident, f_dst=projection_b, psi=psi)
    rep = check_over_diagram(diagram)
    assert rep.metrics["diagram_residual"] <= 1e-8

    for structure, proj in (
            (std1, ["x1", "x2"]),
            (std2, ["x1", "x2", "x3", "x4"]),
            (twisted, ["x3", "x4"])):
        box = structure.box
        f = pmap(proj, box.lo, box.hi, "proj")
        image_box = Box(tuple(box.lo[:len(proj)]), tuple(box.hi[:len(proj)]))
        ident_n = identity_map(box)
        psi_id = identity_map(image_box)
        rep = check_over_diagram(
            OverDiagram(phi=ident_n, f_src=f, f_dst=f, psi=psi_id))
        assert rep.metrics["diagram_residual"] <= 1e-14
    _passed(10, "the fitted transition closes the projection square within "
                "1e-8 and identity-instantiated squares commute to 1e-14")


def test_acceptance_11_determinism(tmp_path):
    for name, data in builtin_scenarios().items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data))
        outputs = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-m", "spencerkit", "run", str(path)],
                capture_output=True, timeout=600, env=cli_env())
            assert proc.returncode == 0, proc.stderr.decode()
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
        parsed = json.loads(outputs[0])
        assert parsed["overall"] == "pass"
    _passed(11, "two consecutive runs of every builtin produce byte-identical "
                "JSON reports")
