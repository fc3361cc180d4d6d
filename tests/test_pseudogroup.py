from __future__ import annotations

import dataclasses
import random
import re
from pathlib import Path

import numpy as np
import pytest
import sympy

from spencerkit import (
    Box,
    GlueTest,
    LocalMap,
    Polynomial,
    check_ah_map,
    check_over_diagram,
    compose,
    covers,
    generate,
    identity_map,
    invert,
    parse_polynomial,
    restrict,
    validate_axioms,
)
from spencerkit import defaults, pseudogroup
from spencerkit.errors import (CompositionError, ConfigurationError,
                               DomainError, InversionError)
from spencerkit.jfield import lattice_points
from spencerkit.pseudogroup import (NEWTON_HALVINGS, NEWTON_MAX_ITER,
                                    NEWTON_SEED_BLOCK, OverDiagram)
from spencerkit.scenario import (builtin_scenarios, emit_json, parse_scenario,
                                 run_scenario)

BENCH = Path(__file__).resolve().parents[1] / "bench"


def pmap(strs, lo, hi, name, inv=None):
    comps = [parse_polynomial(s, len(lo)) for s in strs]
    return LocalMap.from_polynomials(comps, Box(lo, hi), name,
                                     declared_inverse=inv)


@pytest.fixture()
def translation():
    t = pmap(["x1 + 0.8", "x2"], (-1.0, -1.0), (-0.7, 1.0), "t")
    t_inv = pmap(["x1 - 0.8", "x2"], (-0.2, -1.0), (0.1, 1.0), "t_inv")
    t.declared_inverse = t_inv
    t_inv.declared_inverse = t
    return t


@pytest.fixture()
def doubling():
    s = pmap(["2*x1", "2*x2"], (0.2, 0.2), (0.45, 0.45), "s")
    s_inv = pmap(["0.5*x1", "0.5*x2"], (0.4, 0.4), (0.9, 0.9), "s_inv")
    s.declared_inverse = s_inv
    s_inv.declared_inverse = s
    return s


@pytest.fixture()
def squaring():
    return pmap(["x1^2 - x2^2", "2*x1*x2"], (0.05, 0.05), (0.6, 0.6), "sq")


def test_evaluate_checks_domain(translation):
    inside = np.array([[-0.8, 0.0]])
    assert np.allclose(translation.evaluate(inside)[0], [0.0, 0.0])
    with pytest.raises(DomainError):
        translation.evaluate(np.array([[0.5, 0.0]]))
    out = translation.evaluate(np.array([[0.5, 0.0]]), check_domain=False)
    assert np.allclose(out[0], [1.3, 0.0])


def fold_inverse():
    """A Newton inverse: the inverse of (x1^2 + x2, x2) on [0.5, 1] x [-1, 1]."""
    return invert(pmap(["x1^2 + x2", "x2"], (0.5, -1.0), (1.0, 1.0), "q"))


def through_newton():
    """A chain whose first step is a Newton inverse."""
    inv = fold_inverse()
    return LocalMap(LocalMap.CHAIN, inv.domain, "chain",
                    steps=(inv, identity_map(inv.domain)))


@pytest.mark.parametrize("call, error", [
    (lambda pt: parse_polynomial("x1 + x2", 2).evaluate(pt), ValueError),
    (lambda pt: pmap(["x1", "x2"], (-1.0, -1.0), (1.0, 1.0), "m").evaluate(
        pt, check_domain=False), ValueError),
    (lambda pt: pmap(["x1", "x2"], (-1.0, -1.0), (1.0, 1.0), "m").jacobian(pt),
     ValueError),
    (lambda pt: Box((-1.0, -1.0), (1.0, 1.0)).contains(pt), DomainError),
    (lambda pt: fold_inverse().evaluate(pt, check_domain=False), ValueError),
    (lambda pt: fold_inverse().try_evaluate(pt), ValueError),
    (lambda pt: through_newton().try_evaluate(pt), ValueError),
], ids=["Polynomial.evaluate", "LocalMap.evaluate", "LocalMap.jacobian",
        "Box.contains", "Newton.evaluate", "Newton.try_evaluate", "Chain.try_evaluate"])
def test_a_single_point_is_refused_not_promoted(call, error):
    with pytest.raises(error, match=r"must be a \(P, 2\) array, got shape \(2,\)"):
        call(np.array([0.5, 0.25]))


@pytest.mark.parametrize("make", [
    lambda: pmap(["x1^2 - x2", "x1*x2 + 0.5"], (-1.0, -1.0), (1.0, 1.0), "m"),
    fold_inverse, through_newton], ids=["polynomial", "newton", "chain"])
def test_evaluate_is_try_evaluate_raising_where_it_masks(make):
    map_ = make()
    lo, hi = map_.domain.lo, map_.domain.hi
    pts = np.concatenate([map_.domain.lattice(7), np.random.default_rng(5)
                          .uniform(lo, hi, size=(40, 2))])
    values, ok = map_.try_evaluate(pts)
    assert ok.all() if map_.kind == LocalMap.POLY else 0 < ok.sum() < len(ok)
    valid = map_.evaluate(pts[ok])
    assert valid.tobytes() == map_.try_evaluate(pts[ok])[0].tobytes()
    assert valid.tobytes() == values[ok].tobytes()
    for row, good in enumerate(ok):
        if good:
            assert map_.evaluate(pts[row:row + 1]).tobytes() == values[row].tobytes()
        else:
            with pytest.raises(InversionError):
                map_.evaluate(pts[row:row + 1])
    if not ok.all():
        first = tuple(map(float, pts[~ok][0]))
        expected = {
            LocalMap.NEWTON: f"Newton iteration for inv(q) failed to converge "
                             f"for target {first}",
            LocalMap.CHAIN: f"Newton iteration inside chain failed to converge "
                            f"for input {first}"}[map_.kind]
        with pytest.raises(InversionError) as exc:
            map_.evaluate(pts)
        assert str(exc.value) == expected


def test_identity_map_is_self_inverse():
    box = Box((0.0, 0.0), (1.0, 1.0))
    ident = identity_map(box)
    assert ident.label == "id[0,1]x[0,1]"
    assert ident.declared_inverse is ident
    pts = np.random.default_rng(0).uniform(0, 1, size=(5, 2))
    assert np.allclose(ident.evaluate(pts), pts)


def test_restrict_intersects_domain(translation):
    cut = restrict(translation, Box((-1.0, -1.0), (-0.8, 0.0)))
    assert cut.domain.lo == pytest.approx((-1.0, -1.0))
    assert cut.domain.hi == pytest.approx((-0.8, 0.0))
    with pytest.raises(DomainError):
        restrict(translation, Box((0.5, 0.5), (0.9, 0.9)))


def test_compose_symbolic_and_boundary(doubling):
    c = compose(doubling, [doubling])[0]
    assert c.kind == LocalMap.POLY
    assert c.label == "(s>>s)"
    assert c.domain.lo == pytest.approx((0.2, 0.2))
    assert c.domain.hi[0] == pytest.approx(0.225, abs=1e-11)
    assert c.domain.hi[0] >= 0.225
    pt = np.array([[0.21, 0.22]])
    assert np.allclose(c.evaluate(pt)[0], 4.0 * pt[0])


def test_compose_raises_when_images_miss(translation):
    c, = compose(translation, [translation])
    assert isinstance(c, CompositionError)


def test_compose_switches_to_chain_over_degree_cap():
    cubic = pmap(["x1^3 + 0.5", "x2"], (0.0, 0.0), (0.4, 0.4), "c1")
    cubic2 = pmap(["0.2*x1^3 + 0.1*x1", "x2"], (0.3, 0.0), (0.9, 0.4), "c2")
    c = compose(cubic, [cubic2])[0]
    assert c.kind == LocalMap.CHAIN
    pt = np.array([[0.2, 0.1]])
    direct = cubic2.evaluate(cubic.evaluate(pt), check_domain=False)
    assert np.allclose(c.evaluate(pt)[0], direct[0])


def sequential_compose_domain(first, second, grid_k=defaults.GRID_PER_AXIS):
    """Reference: the composite domain found by one bisection midpoint per
    evaluation, 60 halvings per side, as ``compose`` searched originally,
    with the CompositionError it raised."""
    lattice = first.domain.lattice(grid_k)
    images, evaluable = first.try_evaluate(lattice)
    slack = defaults.COMPOSE_MARGIN * max(second.domain.diameter, 1.0)
    ok = evaluable & second.domain.contains(images, slack=slack)
    if not np.any(ok):
        raise CompositionError(
            f"no lattice point of {first.label} maps into the domain of "
            f"{second.label}")

    def passes(lo, hi):
        img, good = first.try_evaluate(lattice_points(lo, hi, grid_k))
        if not np.all(good):
            return False
        return bool(np.all(second.domain.contains(img, slack=slack)))

    lo = np.array(lattice[int(np.argmax(ok))], dtype=float)
    hi = lo.copy()
    dom_lo, dom_hi = np.array(first.domain.lo), np.array(first.domain.hi)
    growth_tol = 1e-12 * max(first.domain.diameter, 1.0)
    for _ in range(6):
        grew = False
        for d in range(first.dim):
            for side in ("lo", "hi"):
                avail = lo[d] - dom_lo[d] if side == "lo" else dom_hi[d] - hi[d]
                if avail <= 0:
                    continue

                def stretched(t):
                    l2, h2 = lo.copy(), hi.copy()
                    if side == "lo":
                        l2[d] -= t
                    else:
                        h2[d] += t
                    return l2, h2

                if passes(*stretched(avail)):
                    best = avail
                else:
                    t_ok, t_bad = 0.0, avail
                    for _ in range(60):
                        mid = 0.5 * (t_ok + t_bad)
                        if passes(*stretched(mid)):
                            t_ok = mid
                        else:
                            t_bad = mid
                    best = t_ok
                if best > growth_tol:
                    lo, hi = stretched(best)
                    grew = True
        if not grew:
            break
    if np.any(hi - lo <= 0):
        raise CompositionError(
            f"composable region of {first.label} then {second.label} has no "
            f"interior")
    return Box(tuple(lo), tuple(hi))


def test_compose_domain_is_bit_identical_to_sequential_bisection(doubling,
                                                                 squaring):
    cubic = pmap(["x1^3 + 0.5", "x2"], (0.0, 0.0), (0.4, 0.4), "c1")
    cubic2 = pmap(["0.2*x1^3 + 0.1*x1", "x2"], (0.3, 0.0), (0.55, 0.4), "c2")
    newton = invert(squaring)
    cases = [(doubling, doubling, LocalMap.POLY),
             (cubic, cubic2, LocalMap.CHAIN),
             (newton, squaring, LocalMap.CHAIN)]
    for first, second, kind in cases:
        c = compose(first, [second])[0]
        assert c.kind == kind
        assert c.domain != first.domain
        assert c.domain == sequential_compose_domain(first, second)


def _reach_test_maps(doubling, squaring):
    """First maps of each kind, and seconds that reach or miss them."""
    cubic = pmap(["x1^3 + 0.5", "x2"], (0.0, 0.0), (0.4, 0.4), "c1")
    cubic2 = pmap(["0.2*x1^3 + 0.1*x1", "x2"], (0.3, 0.0), (0.55, 0.4), "c2")
    chain = compose(cubic, [cubic2])[0]
    assert chain.kind == LocalMap.CHAIN
    newton = invert(squaring)
    far = pmap(["x1 - 3", "x2"], (-1.0, -1.0), (-0.5, 1.0), "far")
    std = parse_scenario(builtin_scenarios()["std_c1"]).maps
    # After its x2 sides grow, the lattice no longer samples x2 = 0, where
    # x1 - x2^2 is largest, so the x1 hi side grows again in the second
    # sweep, to 0.305 past the 0.3 it reached in the first.
    bend = pmap(["x1 - x2^2", "x2"], (-0.3, -1.0), (1.0, 1.0), "bend")
    return {
        "poly": (doubling, [doubling, doubling.declared_inverse, squaring,
                            cubic2, far]),
        "newton": (newton, [squaring, doubling, newton, cubic, far]),
        "chain": (chain, [doubling, squaring, newton, cubic2, far]),
        "nonlinear": (squaring, [squaring, doubling, newton, cubic2, far]),
        # inv(sq) then tr has no interior: every side of that search fails.
        "std_c1": (invert(std["sq"]), [std["sq"], std["s"], std["tr"],
                                       std["t"]]),
        "second_sweep": (bend, [
            identity_map(Box((-0.5, -0.3), (0.3, 0.5))),
            identity_map(Box((-0.6, -0.2), (0.25, 0.6))),
            identity_map(Box((5.0, 5.0), (6.0, 6.0)))]),
    }


@pytest.mark.parametrize("kind", ["poly", "newton", "chain", "nonlinear",
                                  "std_c1", "second_sweep"])
def test_lockstep_searches_match_one_pair_at_a_time(kind, doubling, squaring):
    first, seconds = _reach_test_maps(doubling, squaring)[kind]
    results = compose(first, seconds)
    assert len(results) == len(seconds)
    found = failed = 0
    for second, result in zip(seconds, results):
        try:
            expected = sequential_compose_domain(first, second)
        except CompositionError as exc:
            assert isinstance(result, CompositionError)
            assert str(result) == str(exc)
            failed += 1
            continue
        assert result.domain == expected
        assert result.label == f"({first.label}>>{second.label})"
        found += 1
    assert found >= 2 and failed >= 1
    assert isinstance(results[-1], CompositionError)
    if kind == "std_c1":
        assert str(results[2]) == ("composable region of inv(sq) then tr has "
                                   "no interior")
    if kind == "second_sweep":
        assert results[0].domain.hi[0] > 0.305


def test_lockstep_evaluates_as_often_as_the_longest_search(monkeypatch,
                                                          doubling, squaring):
    first, seconds = _reach_test_maps(doubling, squaring)["newton"]
    calls = []
    original = first.try_evaluate

    def counting(points):
        calls.append(len(points))
        return original(points)

    monkeypatch.setattr(first, "try_evaluate", counting)
    alone = []
    for second in seconds:
        calls.clear()
        compose(first, [second])
        alone.append(len(calls))
    calls.clear()
    compose(first, seconds)
    assert len(calls) == max(alone)
    assert len(calls) < sum(alone)


def test_lockstep_after_an_affine_map_evaluates_only_the_first_lattice(
        monkeypatch, doubling, squaring):
    first, seconds = _reach_test_maps(doubling, squaring)["poly"]
    calls = []
    original = first.try_evaluate

    def counting(points):
        calls.append(len(points))
        return original(points)

    monkeypatch.setattr(first, "try_evaluate", counting)
    results = compose(first, seconds)
    assert len(seconds) == 5
    assert calls == [defaults.GRID_PER_AXIS ** first.dim]
    assert sum(not isinstance(r, CompositionError) for r in results) >= 2


@pytest.mark.parametrize("components, affine", [
    (["2*x1", "2*x2"], True),
    (["x1 - 0.8", "x2"], True),
    (["x1", "-x2"], True),
    (["0.5", "x2"], True),
    (["x2", "x1"], False),
    (["x1 + 0.1*x2", "x2"], False),
    (["x1^2 - x2^2", "2*x1*x2"], False),
])
def test_diagonal_affine_detector(components, affine):
    m = pmap(components, (-1.0, -1.0), (1.0, 1.0), "m")
    assert pseudogroup._is_diagonal_affine(m) is affine


def test_diagonal_affine_detector_refuses_chains_and_newton_inverses(doubling,
                                                                     squaring):
    maps = _reach_test_maps(doubling, squaring)
    for kind in ("chain", "newton"):
        assert not pseudogroup._is_diagonal_affine(maps[kind][0])


def _nudge(x, ulps):
    """``x`` moved by ``ulps`` units in the last place."""
    x = float(x)
    for _ in range(abs(ulps)):
        x = float(np.nextafter(x, np.inf if ulps > 0 else -np.inf))
    return x


def _random_affine_map(rng, lo, hi, wild):
    """A seeded map x -> (a_k x_k + b_k)_k on Box(lo, hi), its terms in a
    random order.  ``wild`` adds reflections, constant and zero components,
    -0.0 constants (dropped) and 1e300 coefficients that overflow."""
    dim = len(lo)
    zero = (0,) * dim
    components = []
    for k in range(dim):
        e_k = tuple(int(j == k) for j in range(dim))
        terms = [(e_k, float(rng.uniform(-3, 3))),
                 (zero, float(rng.uniform(-2, 2)))]
        kind = int(rng.integers(7 if wild else 3))  # 0 and 6: a x_k + b
        if kind == 1:  # reflection
            terms = [(e_k, -1.0)] + terms[1:] * int(rng.integers(2))
        elif kind == 2:  # constant
            terms = terms[1:]
        elif kind == 3:  # zero
            terms = [(zero, -0.0)] * int(rng.integers(2))
        elif kind == 4:  # inf once |x_k| > 1.8e8
            terms = [(e_k, float(rng.choice([1e300, -1e300])))] + terms[1:]
        elif kind == 5:  # linear
            terms = [(zero, -0.0), terms[0]]
        if rng.integers(2):
            terms = terms[::-1]
        components.append(Polynomial(dim, dict(terms)))
    return LocalMap.from_polynomials(components, Box(lo, hi), "a")


def _lattice_verdict(first, second, lo, hi):
    """The sampled verdict: ``first`` maps the whole lattice of [lo, hi]
    into the second domain, widened by the compose margin."""
    with np.errstate(all="ignore"):
        img, good = first.try_evaluate(
            lattice_points(lo, hi, defaults.GRID_PER_AXIS))
    slack = defaults.COMPOSE_MARGIN * max(second.domain.diameter, 1.0)
    return bool(good.all() and second.domain.contains(img, slack=slack).all())


def _domain_reaching(reach_lo, reach_hi):
    """A box whose bounds, widened by the compose margin, land on
    ``reach_lo`` and ``reach_hi`` (to the ulp where floats allow), or None."""
    lo, hi = list(reach_lo), list(reach_hi)
    for _ in range(2):  # the margin depends on the box it widens
        slack = defaults.COMPOSE_MARGIN * max(max(b - a for a, b in zip(lo, hi)), 1.0)
        for k, (target_lo, target_hi) in enumerate(zip(reach_lo, reach_hi)):
            lo[k], hi[k] = target_lo + slack, target_hi - slack
            for _ in range(8):
                if lo[k] - slack != target_lo:
                    lo[k] = _nudge(lo[k], 1 if lo[k] - slack < target_lo else -1)
                if hi[k] + slack != target_hi:
                    hi[k] = _nudge(hi[k], 1 if hi[k] + slack < target_hi else -1)
            if lo[k] >= hi[k]:  # flat images: reach past them on both sides
                lo[k], hi[k] = target_lo - slack, target_hi + slack
        if not all(np.isfinite(lo + hi)) or any(a >= b for a, b in zip(lo, hi)):
            return None
    return Box(tuple(lo), tuple(hi))


def test_moved_corner_decides_like_the_whole_lattice():
    """For a diagonal-affine first map, ``_corner_passes`` on a stretch of
    a box that passed equals the verdict on the stretched box's full 5^d
    lattice, bit for bit, down to bounds a few ulps off the corner images."""
    rng = np.random.default_rng(20260)
    verdicts = []
    for _ in range(2500):
        dim = int(rng.integers(1, 5))
        scale = float(rng.choice([1e-3, 1.0, 1e10]))
        lo = rng.uniform(-2, 2, dim) * scale
        hi = np.array([[v, _nudge(v, 1), v + rng.uniform(0, 1) * scale][
            int(rng.integers(3))] for v in lo])  # flat, one ulp or wide
        if rng.integers(4) == 0:
            hi = lo.copy()  # the seed point
        first = _random_affine_map(rng, tuple(lo - scale), tuple(hi + scale),
                                   wild=True)
        d, side = int(rng.integers(dim)), int(rng.integers(2))
        moved = lo[d] if side == 0 else hi[d]
        t = float(rng.choice([rng.uniform(0, 1) * scale, np.spacing(moved),
                              rng.uniform(0, 1e-12) * scale,
                              rng.uniform(0, 1e12)]))
        cand_lo, cand_hi = lo.copy(), hi.copy()
        if side == 0:
            cand_lo[d] = lo[d] - t
        else:
            cand_hi[d] = hi[d] + t
        with np.errstate(all="ignore"):
            img, cand = (first.evaluate(lattice_points(a, b, defaults.GRID_PER_AXIS),
                                        check_domain=False)
                         for a, b in ((lo, hi), (cand_lo, cand_hi)))
        # Bounds a few ulps outside the box's images on the other axes, and
        # a few ulps either side of two end images on axis d.
        ends = [v for v in (img[:, d].min(), img[:, d].max(),
                            cand[:, d].min(), cand[:, d].max()) if np.isfinite(v)]
        if not ends or not np.all(np.isfinite(img)):
            continue
        reach_lo = [_nudge(v, -int(rng.integers(4))) for v in img.min(axis=0)]
        reach_hi = [_nudge(v, int(rng.integers(4))) for v in img.max(axis=0)]
        reach_lo[d], reach_hi[d] = (_nudge(v, int(rng.integers(-3, 4)))
                                    for v in sorted(rng.choice(ends, 2)))
        domain = _domain_reaching(reach_lo, reach_hi)
        if domain is None:
            continue
        second = identity_map(domain)
        if not _lattice_verdict(first, second, lo, hi):
            continue  # the rule speaks only of stretches of a passing box
        slack = defaults.COMPOSE_MARGIN * max(domain.diameter, 1.0)
        bounds = (np.asarray(domain.lo) - slack, np.asarray(domain.hi) + slack)
        got = pseudogroup._corner_passes(first, bounds, np.array([lo, hi]), d,
                                         side, t)
        expected = _lattice_verdict(first, second, cand_lo, cand_hi)
        assert type(got) is bool
        assert got == expected, (first.poly, lo, hi, d, side, t, domain)
        verdicts.append(expected)
    assert len(verdicts) >= 1000
    assert 0.2 < np.mean(verdicts) < 0.8


def test_affine_lockstep_matches_the_sequential_search():
    rng = np.random.default_rng(7)
    found = failed = 0
    for _ in range(8):
        dim = int(rng.integers(1, 4))
        lo = rng.uniform(-1, 0, dim)
        first = _random_affine_map(rng, tuple(lo),
                                   tuple(lo + rng.uniform(0.2, 1.0, dim)),
                                   wild=False)
        assert pseudogroup._is_diagonal_affine(first)
        seconds = []
        for _ in range(3):
            centre = first.evaluate(first.domain.lattice()[
                [int(rng.integers(defaults.GRID_PER_AXIS ** dim))]])[0]
            half = rng.uniform(0.05, 0.8, dim)
            seconds.append(identity_map(Box(tuple(centre - half),
                                            tuple(centre + half))))
        seconds.append(identity_map(Box((50.0,) * dim, (51.0,) * dim)))
        results = compose(first, seconds)
        for second, result in zip(seconds, results):
            try:
                expected = sequential_compose_domain(first, second)
            except CompositionError as exc:
                assert isinstance(result, CompositionError)
                assert str(result) == str(exc)
                failed += 1
                continue
            assert result.domain == expected
            found += 1
    assert found >= 12 and failed >= 8


def _closure_fingerprint(family):
    """Labels, domains and composites of a family, comparable across runs."""
    composites = []
    for (f, g), c in family.composites.items():
        if isinstance(c, CompositionError):
            composites.append((f.label, g.label, str(c)))
        else:
            composites.append((f.label, g.label, c.label, c.kind, c.domain,
                               c.poly, [s.label for s in c.steps]))
    return (family.labels(), [m.domain for m in family.members],
            [m.kind for m in family.members], composites)


def test_affine_closure_matches_the_lattice_verdicts(monkeypatch):
    """``generate`` and ``validate_axioms`` give the same members, domains,
    composites and reports as with every search sampling lattices, on the
    ``std_c1`` families and on a conjugated copy of them."""
    monkeypatch.syspath_prepend(str(BENCH))
    import scenarios
    variant = scenarios.closure_variant(random.Random("closure:7"))
    scens = [parse_scenario(builtin_scenarios()["std_c1"]),
             parse_scenario(variant)]

    def closures():
        out = []
        for scen in scens:
            for name, spec in scen.family_specs.items():
                def closure(depth):
                    return generate([scen.maps[m] for m in spec.member_names],
                                    scen.box, depth=depth,
                                    dedup_tol=spec.dedup_tol)
                fam = closure(spec.depth)
                out.append(_closure_fingerprint(fam))
                # The axioms of the depth-2 fam_ah take long to check; its
                # depth-1 closure has members of every kind.
                if name == "fam_ah":
                    fam = closure(1)
                    out.append(_closure_fingerprint(fam))
                out.append(validate_axioms(fam, glue_tests=spec.glue_tests))
        return out

    fast = closures()
    monkeypatch.setattr(pseudogroup, "_is_diagonal_affine", lambda map_: False)
    assert closures() == fast
    assert len(fast) == 14


@pytest.fixture(scope="module")
def std_c1_fam():
    """std_c1's family ``fam`` and its declared glue tests."""
    scen = parse_scenario(builtin_scenarios()["std_c1"])
    spec = scen.family_specs["fam"]
    return generate([scen.maps[m] for m in spec.member_names], scen.box,
                    depth=spec.depth, dedup_tol=spec.dedup_tol), spec.glue_tests


def _square(x_lo, x_hi):
    """[x_lo, x_hi] x [0.2, 0.45], a part of the domain [0.2, 0.45]^2 of s."""
    return Box((x_lo, 0.2), (x_hi, 0.45))


IDENTITY_ON_S = "id[0.2,0.45]x[0.2,0.45]"


@pytest.mark.parametrize("labels, boxes, failures", [
    # s is 2x and the identity x: they differ on their common strip, by
    # up to |(0.35, 0.45)|_inf.
    ((("s", IDENTITY_ON_S), (_square(0.2, 0.35), _square(0.3, 0.45)),
      [r"pieces s\|\S+ and id\S+ disagree by 4\.500e-01",
       r"no member represents the glued map on \[0\.2,0\.45\]x"])),
    # The column x1 = 0.325 of the target's lattice lies between the pieces.
    ((("s", "s"), (_square(0.2, 0.3), _square(0.35, 0.45)),
      [r"5 target lattice points not covered by any glue piece"])),
    # Pieces that meet only on an edge never disagree, but s is 2x on the
    # first and x on the second, which no member is.
    ((("s", IDENTITY_ON_S), (_square(0.2, 0.3), _square(0.3, 0.45)),
      [r"no member represents the glued map on \[0\.2,0\.45\]x"])),
    ((("s", "s"), (_square(0.2, 0.35), Box((-1.0, -1.0), (-0.5, -0.5))),
      [r"glue piece s: restriction box does not meet the domain of s"])),
], ids=["disagree", "uncovered", "unrepresented", "missed"])
def test_each_gluing_failure_is_reported(std_c1_fam, labels, boxes,
                                         failures):
    fam, _ = std_c1_fam
    glue = GlueTest(labels, boxes, _square(0.2, 0.45))
    reports = {r.task: r for r in validate_axioms(fam, glue_tests=[glue])}
    gluing = reports.pop("axiom5_gluing")
    assert all(r.passed for r in reports.values())
    assert not gluing.passed
    assert gluing.metrics["failures"] == len(failures)
    assert len(gluing.notes) == len(failures)
    for note, pattern in zip(gluing.notes, failures):
        assert re.match("not represented: " + pattern, note), note


def test_glue_check_evaluates_each_piece_once(monkeypatch, std_c1_fam):
    fam, (test,) = std_c1_fam
    calls = []
    original = LocalMap.evaluate

    def counting(self, points, check_domain=True):
        calls.append(self.label)
        return original(self, points, check_domain)

    monkeypatch.setattr(LocalMap, "evaluate", counting)
    # Reversed, the identity on the target's box comes before s: the check
    # tries a member that disagrees before the one that represents the map.
    for family in (fam, dataclasses.replace(fam, members=fam.members[::-1])):
        calls.clear()
        assert pseudogroup._check_glue(family, test) == []
        pieces = [label for label in calls if "|" in label]
        # Once each on the overlap of the pair, once each on its own lattice.
        assert len(pieces) == 2 * len(test.boxes)
    assert len({label for label in calls if "|" not in label}) >= 2


def drive_bisect_stretch(passes, avail, floor=0.0):
    """Run the ``_bisect_stretch`` generator with a synthetic verdict rule."""
    search = pseudogroup._bisect_stretch(avail, lambda ts: ts, floor)
    ts = next(search)
    try:
        while True:
            ts = search.send(passes(ts))
    except StopIteration as done:
        return done.value


@pytest.mark.parametrize("threshold", [0.3, 0.7, 0.9])
def test_bisect_stretch_stops_once_the_interval_cannot_shrink(threshold):
    calls = []

    def passes(ts):
        calls.append(len(ts))
        return ts <= threshold

    # Reference: one midpoint per evaluation, all BISECTION_STEPS halvings.
    t_ok, t_bad = 0.0, 1.0
    for _ in range(pseudogroup.BISECTION_STEPS):
        mid = 0.5 * (t_ok + t_bad)
        if mid <= threshold:
            t_ok = mid
        else:
            t_bad = mid
    assert drive_bisect_stretch(passes, 1.0) == t_ok
    assert len(calls) < (pseudogroup.BISECTION_STEPS
                         // pseudogroup.BISECTION_LEVELS)


def reference_stretch(passes, avail):
    """The sequential search's stretch: ``avail`` when it passes, else the
    last passing midpoint of all BISECTION_STEPS halvings, one midpoint per
    evaluation."""
    if passes(np.array([avail]))[0]:
        return avail
    t_ok, t_bad = 0.0, avail
    for _ in range(pseudogroup.BISECTION_STEPS):
        mid = 0.5 * (t_ok + t_bad)
        if passes(np.array([mid]))[0]:
            t_ok = mid
        else:
            t_bad = mid
    return t_ok


def test_bisect_stretch_above_its_floor_is_the_sequential_stretch():
    """With a floor, the stretch is the sequential one wherever that one
    exceeds the floor, and at most the floor otherwise; the search stops
    once its failing bound is at most the floor, not once the interval is
    narrower than it.  A deep threshold puts the first pass past the first
    probe, on the left spine, and at depth 58 leaves fewer halvings than
    one heap probe decides.  A side that never passes ends in 2 probes."""
    rng = np.random.default_rng(19)
    above = below = 0
    probes = {"floor": 0, "none": 0}
    for case in range(800):
        rule = ("threshold", "never", "wiggle", "deep")[case % 4]
        avail = float(10.0 ** rng.uniform(-13, 0.5))
        floor = 0.0 if case % 3 == 0 else float(10.0 ** rng.uniform(-16, 0.5))
        if rule in ("threshold", "deep"):
            threshold = avail * (rng.uniform(0, 1.2) if rule == "threshold"
                                 else 2.0 ** -rng.uniform(3, 58))

            def passes(ts, threshold=threshold):
                return ts <= threshold
        elif rule == "never":
            def passes(ts):
                return np.zeros(len(ts), dtype=bool)
        else:  # non-monotone in the stretch
            freq = rng.uniform(1, 50) / avail
            phase, bias = rng.uniform(0, 6), rng.uniform(-0.5, 0.5)

            def passes(ts, freq=freq, phase=phase, bias=bias):
                return np.sin(ts * freq + phase) > bias
        expected = reference_stretch(passes, avail)

        def counted(key, passes=passes):
            def rule(ts):
                probes[key] += 1
                return passes(ts)
            return rule

        before = probes["floor"]
        got = drive_bisect_stretch(counted("floor"), avail, floor)
        if rule == "never" and floor > 0:
            assert probes["floor"] - before <= 2, (avail, floor)
        drive_bisect_stretch(counted("none"), avail)
        if expected > floor:
            assert got == expected, (rule, avail, floor)
            above += 1
        else:
            assert got <= floor, (rule, avail, floor, got)
            below += 1
    assert above >= 150 and below >= 150
    assert probes["floor"] < 0.8 * probes["none"]


def test_growth_exits_cut_the_rounds_of_a_lockstep_call(monkeypatch):
    """``inv(sq)`` against its 10 level-2 seconds in the depth-2 closure of
    ``std_c1``'s ``fam_ah``: 2 searches find a composite and most of the
    others have no interior.  Bisecting every side down to its last float
    and running every sweep to its end, the call takes 154 rounds; with
    heap rounds alone and the growth exits, 103."""
    scen = parse_scenario(builtin_scenarios()["std_c1"])
    spec = scen.family_specs["fam_ah"]
    calls = []
    lockstep = pseudogroup.compose

    def recording(first, seconds):
        calls.append((first, seconds))
        return lockstep(first, seconds)

    monkeypatch.setattr(pseudogroup, "compose", recording)
    generate([scen.maps[m] for m in spec.member_names], scen.box,
             depth=spec.depth, dedup_tol=spec.dedup_tol)
    (first, seconds), = [c for c in calls if c[0].label == "inv(sq)"]
    rounds = []
    lattice = pseudogroup.lattice_points

    def counting(*args):
        rounds.append(1)
        return lattice(*args)

    monkeypatch.setattr(pseudogroup, "lattice_points", counting)
    results = lockstep(first, seconds)
    assert len(seconds) == 10
    assert sum(not isinstance(r, CompositionError) for r in results) == 2
    assert len(rounds) == 62


def test_generate_and_axioms_compose_each_pair_once(monkeypatch, translation,
                                                    doubling):
    calls = {}
    original = pseudogroup._compose_search

    def counting(first, second, *args):
        key = (id(first), id(second))
        calls[key] = calls.get(key, 0) + 1
        return original(first, second, *args)

    monkeypatch.setattr(pseudogroup, "_compose_search", counting)
    ambient = Box((-1.0, -1.0), (1.0, 1.0))
    fam = generate([translation, doubling], ambient, depth=2)
    reports = validate_axioms(fam)
    assert reports[0].task == "axiom1_composition"
    assert len(calls) >= len(fam.members) ** 2
    assert max(calls.values()) == 1


@pytest.mark.parametrize("levels", [1, 5])
def test_closure_does_not_depend_on_bisection_levels(monkeypatch, levels,
                                                     translation, doubling,
                                                     squaring):
    ambient = Box((-1.0, -1.0), (1.0, 1.0))
    seeds = [translation, doubling, squaring]
    reference = generate(seeds, ambient, depth=1)
    monkeypatch.setattr(pseudogroup, "BISECTION_LEVELS", levels)
    fam = generate(seeds, ambient, depth=1)
    assert fam.labels() == reference.labels()
    assert [m.domain for m in fam.members] == [
        m.domain for m in reference.members]


@pytest.mark.parametrize("dedup_tol", [float("nan"), float("inf"), 0.0, -1e-9])
def test_generate_refuses_bad_dedup_tol(doubling, dedup_tol):
    with pytest.raises(ConfigurationError):
        generate([doubling], Box((0.0, 0.0), (1.0, 1.0)), dedup_tol=dedup_tol)


def test_invert_declared_round_trip(translation):
    inv = invert(translation)
    assert inv.label == "t_inv"
    pts = np.array([[-0.9, 0.3], [-0.75, -0.5]])
    back = inv.evaluate(translation.evaluate(pts))
    assert np.allclose(back, pts, atol=1e-12)


def test_invert_newton_path(squaring):
    inv = invert(squaring)
    assert inv.kind == LocalMap.NEWTON
    assert inv.label == "inv(sq)"
    pts = np.array([[0.3, 0.2], [0.5, 0.55], [0.1, 0.45]])
    images = squaring.evaluate(pts)
    back = inv.evaluate(images, check_domain=False)
    assert np.allclose(back, pts, atol=1e-9)
    jac = inv.jacobian(images)
    fwd = squaring.jacobian(pts)
    assert np.allclose(np.einsum("pij,pjk->pik", jac, fwd),
                       np.broadcast_to(np.eye(2), (3, 2, 2)), atol=1e-9)


def test_error_messages_print_points_as_plain_floats():
    fold = pmap(["x1^2 + x2", "x2"], (0.5, -1.0), (1.0, 1.0), "q")
    with pytest.raises(DomainError) as exc:
        fold.evaluate(np.array([[0.25, 0.0]]))
    assert str(exc.value) == "point (0.25, 0.0) outside the domain of q"
    with pytest.raises(InversionError) as exc:
        invert(fold).evaluate(np.array([[-1.0, 0.0]]), check_domain=False)
    assert str(exc.value) == (
        "Newton iteration for inv(q) failed to converge for target (-1.0, 0.0)")


def test_invert_rejects_degenerate_jacobian():
    fold = pmap(["x1^2", "x2"], (-1.0, -1.0), (1.0, 1.0), "fold")
    with pytest.raises(InversionError):
        invert(fold)


def test_try_evaluate_masks_unreachable_points(squaring):
    inv = invert(squaring)
    corners = np.array([inv.domain.lo, inv.domain.hi])
    values, ok = inv.try_evaluate(corners)
    assert ok.dtype == bool
    reachable = squaring.evaluate(np.array([[0.05, 0.05], [0.6, 0.6]]))
    vals2, ok2 = inv.try_evaluate(reachable)
    assert np.all(ok2)
    assert np.allclose(vals2, [[0.05, 0.05], [0.6, 0.6]], atol=1e-9)


def test_covers_requires_containment_and_agreement(monkeypatch, translation,
                                                   doubling):
    big = identity_map(Box((-1.0, -1.0), (1.0, 1.0)))
    small = identity_map(Box((0.0, 0.0), (0.5, 0.5)))
    assert covers([big], small, tol=1e-9)
    assert not covers([small], big, tol=1e-9)
    assert not covers([translation], doubling, tol=1e-9)
    shifted = pmap(["x1 + 1e-6", "x2"], (0.0, 0.0), (0.5, 0.5), "near_id")
    assert not covers([big], shifted, tol=1e-9)
    assert covers([big], shifted, tol=1e-5)
    assert not covers([], shifted, tol=1e-5)

    # The candidate's lattice is evaluated once, at the first member whose
    # domain contains it, and never when no member's domain does.
    calls = []
    original = shifted.try_evaluate

    def counting(points):
        calls.append(len(points))
        return original(points)

    monkeypatch.setattr(shifted, "try_evaluate", counting)
    inner = identity_map(Box((0.1, 0.1), (0.4, 0.4)))
    assert not covers([inner, translation, doubling], shifted, tol=1e-5)
    assert calls == []
    also_big = identity_map(Box((-0.5, -0.5), (0.8, 0.8)))
    assert not covers([translation, big, also_big, small], shifted, tol=1e-9)
    assert calls == [defaults.GRID_PER_AXIS ** 2]
    calls.clear()
    assert covers([translation, big, also_big], shifted, tol=1e-5)
    assert calls == [defaults.GRID_PER_AXIS ** 2]


def test_generate_reaches_fixpoint(translation, doubling):
    ambient = Box((-1.0, -1.0), (1.0, 1.0))
    fam = generate([translation, doubling], ambient, depth=2)
    labels = tuple(fam.labels())
    assert len(fam.members) == 10
    assert labels == (
        "t", "s", "id[-1,-0.7]x[-1,1]", "id[0.2,0.45]x[0.2,0.45]",
        "(s>>s)", "t_inv", "s_inv", "(t_inv>>t)", "(s_inv>>s)",
        "(s_inv>>s_inv)")
    deeper = generate([translation, doubling], ambient, depth=3)
    assert tuple(deeper.labels()) == labels
    again = generate([translation, doubling], ambient, depth=2)
    assert tuple(again.labels()) == labels
    for a, b in zip(fam.members, again.members):
        assert a.domain == b.domain


def test_axioms_pass_on_closed_family(translation, doubling):
    ambient = Box((-1.0, -1.0), (1.0, 1.0))
    fam = generate([translation, doubling], ambient, depth=2)
    glue = GlueTest(("s", "s"),
                    (Box((0.2, 0.2), (0.35, 0.45)),
                     Box((0.3, 0.2), (0.45, 0.45))),
                    Box((0.2, 0.2), (0.45, 0.45)))
    reports = validate_axioms(fam, glue_tests=[glue])
    assert [r.task for r in reports] == [
        "axiom1_composition", "axiom2_inversion", "axiom3_identity",
        "axiom4_restriction", "axiom5_gluing"]
    assert all(r.status == "pass" for r in reports)
    assert all(r.metrics["failures"] == 0.0 for r in reports)


def test_missing_inverses_fail_exactly_axiom_two(translation, doubling):
    t = pmap(["x1 + 0.8", "x2"], (-1.0, -1.0), (-0.7, 1.0), "t")
    s = pmap(["2*x1", "2*x2"], (0.2, 0.2), (0.45, 0.45), "s")
    m4 = pmap(["4*x1", "4*x2"], (0.2, 0.2), (0.225, 0.225), "m4")
    ambient = Box((-1.0, -1.0), (1.0, 1.0))
    fam = generate([t, s, m4], ambient, depth=0)
    assert len(fam.members) == 5
    reports = {r.task: r for r in validate_axioms(fam)}
    assert reports["axiom2_inversion"].status == "fail"
    assert reports["axiom2_inversion"].metrics["failures"] == 3.0
    for name in ("axiom1_composition", "axiom3_identity",
                 "axiom4_restriction", "axiom5_gluing"):
        assert reports[name].status == "pass"


def test_ah_map_closure_property(std1, squaring):
    tr = pmap(["x1 + 0.1", "x2 + 0.05"], (-0.5, -0.5), (0.5, 0.5), "tr")
    ambient = Box((-1.0, -1.0), (1.0, 1.0))
    fam = generate([squaring, tr], ambient, depth=2)
    assert len(fam.members) == 44
    worst = 0.0
    for member in fam.members:
        rep = check_ah_map(member, std1)
        assert rep.status == "pass"
        worst = max(worst, rep.metrics["ah_map_residual"])
    assert worst <= 1e-12


def test_ah_map_conjugation_fails_exactly(std1):
    conj = pmap(["x1", "-x2"], (-1.0, -1.0), (1.0, 1.0), "conj")
    rep = check_ah_map(conj, std1)
    assert rep.status == "fail"
    assert rep.metrics["ah_map_residual"] == 2.0


def test_ah_map_needs_valid_points(std1):
    escape = pmap(["x1 + 10", "x2"], (-1.0, -1.0), (1.0, 1.0), "escape")
    with pytest.raises(DomainError):
        check_ah_map(escape, std1)


def test_over_diagram_translation_commutes():
    box = Box((-0.5, -0.5), (0.5, 0.5))
    unit = Box((-1.0, -1.0), (1.0, 1.0))
    tr = pmap(["x1 + 0.1", "x2 + 0.05"], (-0.5, -0.5), (0.5, 0.5), "tr")
    ident = identity_map(unit)
    tr_wide = pmap(["x1 + 0.1", "x2 + 0.05"], (-1.0, -1.0), (1.0, 1.0), "tr_wide")
    diagram = OverDiagram(phi=tr, f_src=ident, f_dst=ident, psi=tr_wide)
    rep = check_over_diagram(diagram)
    assert rep.status == "pass"
    assert rep.metrics["diagram_residual"] == 0.0
    broken = OverDiagram(phi=tr, f_src=ident, f_dst=ident, psi=ident)
    rep = check_over_diagram(broken)
    assert rep.status == "fail"
    assert rep.metrics["diagram_residual"] == pytest.approx(0.1)


def test_over_diagram_identity_instantiation_is_exact():
    unit = Box((-1.0, -1.0), (1.0, 1.0))
    ident = identity_map(unit)
    diagram = OverDiagram(phi=ident, f_src=ident, f_dst=ident, psi=ident)
    rep = check_over_diagram(diagram)
    assert rep.metrics["diagram_residual"] <= 1e-14


def test_over_diagram_rejects_escaping_points():
    unit = Box((-1.0, -1.0), (1.0, 1.0))
    tiny = Box((-0.1, -0.1), (0.1, 0.1))
    far = pmap(["x1 + 5", "x2"], (-1.0, -1.0), (1.0, 1.0), "far")
    ident_tiny = identity_map(tiny)
    ident = identity_map(unit)
    diagram = OverDiagram(phi=far, f_src=ident, f_dst=ident_tiny, psi=ident)
    with pytest.raises(DomainError):
        check_over_diagram(diagram)


def test_invert_refuses_a_non_finite_jacobian_determinant():
    # The partial 1.8e308*x1 overflows to inf*x1, so the determinant is NaN
    # on the lattice column x1 = 0, while every image is finite.
    m = pmap(["0.9e308*x1^2 + x1", "x2"], (-0.5, -0.5), (0.5, 0.5), "m")
    pts = m.domain.lattice()
    with np.errstate(all="ignore"):
        assert np.all(np.isfinite(m.evaluate(pts)))
        assert np.sum(np.isnan(np.linalg.det(m.jacobian(pts)))) == 5
        with pytest.raises(InversionError) as exc:
            invert(m)
    assert str(exc.value) == "Jacobian of m is not finite on its lattice"


def _newton_inverse(map_):
    """The Newton inverse ``invert`` builds for a map with no exact one."""
    lattice = map_.domain.lattice()
    images = map_.evaluate(lattice)
    return LocalMap(LocalMap.NEWTON,
                    Box(tuple(images.min(axis=0)), tuple(images.max(axis=0))),
                    f"inv({map_.label})", forward=map_, seeds_x=lattice,
                    seeds_y=images, declared_inverse=map_)


def test_affine_inverse_is_polynomial_and_matches_the_newton_inverse():
    tr = pmap(["x1 + 0.1", "x2 + 0.05"], (-0.5, -0.5), (0.5, 0.5), "tr")
    inv = invert(tr)
    newton = _newton_inverse(tr)
    assert inv.kind == LocalMap.POLY and inv.label == "inv(tr)"
    assert inv.declared_inverse is tr
    assert inv.domain == newton.domain
    assert pseudogroup._is_diagonal_affine(inv)
    pts = newton.domain.lattice()
    values, ok = newton.try_evaluate(pts)
    assert ok.all()
    assert np.max(np.abs(inv.evaluate(pts) - values)) <= defaults.TOL_INVERT


def test_non_diagonal_affine_inverse_round_trips():
    # 1.5 times a rotation, plus a shift
    m = pmap(["0.9*x1 - 1.2*x2 + 0.3", "1.2*x1 + 0.9*x2 - 0.2"],
             (-0.5, -0.4), (0.6, 0.5), "rs")
    inv = invert(m)
    assert inv.kind == LocalMap.POLY and inv.poly.degree == 1
    assert not pseudogroup._is_diagonal_affine(inv)
    pts = m.domain.lattice(9)
    assert np.max(np.abs(inv.evaluate(m.evaluate(pts)) - pts)) <= defaults.TOL_INVERT
    assert inv.domain.contains(m.evaluate(pts)).all()


def test_affine_inverse_coefficients_match_exact_arithmetic():
    m = pmap(["2*x1 + x2 + 0.5", "x1 + 3*x2 - 0.25"], (-1.0, -1.0), (1.0, 1.0), "m")
    a = sympy.Matrix([[2, 1], [1, 3]])
    b = sympy.Matrix([sympy.Rational(1, 2), sympy.Rational(-1, 4)])
    linear, shift = a.inv(), -a.inv() * b
    inv = invert(m)
    assert inv.kind == LocalMap.POLY
    for k, comp in enumerate(inv.poly.components):
        expected = {(1, 0): linear[k, 0], (0, 1): linear[k, 1], (0, 0): shift[k]}
        assert set(comp.terms) == {e for e, c in expected.items() if c != 0}
        for e, c in comp.terms.items():
            assert c.imag == 0
            assert abs(c.real - float(expected[e])) <= 1e-15, (k, e)


def test_ill_conditioned_affine_map_falls_back_to_newton():
    # det 1, but the condition number is about 1e16: the exact inverse's
    # round trip misses tol_invert, so the Newton inverse stands in.
    m = pmap(["1e8*x1 + 99999999*x2", "x1 + x2"], (-1.0, -1.0), (1.0, 1.0), "ill")
    assert invert(m).kind == LocalMap.NEWTON


@pytest.mark.parametrize("components, text", [
    (["x1 + x2", "2*x1 + 2*x2 + 1"], "has |det| = 0.000e+00 <= 1e-06"),
    (["x1 - 0.5", "1e-7*x2"], "has |det| = 1.000e-07 <= 1e-06"),
])
def test_affine_map_with_small_determinant_is_still_refused(components, text):
    m = pmap(components, (-1.0, -1.0), (1.0, 1.0), "flat")
    with pytest.raises(InversionError) as exc:
        invert(m)
    assert str(exc.value) == f"flat {text} on its lattice; not invertible"


def test_fam_ah_members_by_kind():
    scen = parse_scenario(builtin_scenarios()["std_c1"])
    spec = scen.family_specs["fam_ah"]
    fam = generate([scen.maps[m] for m in spec.member_names], scen.box,
                   depth=spec.depth, dedup_tol=spec.dedup_tol)
    kinds = [m.kind for m in fam.members]
    assert len(kinds) == 44
    assert [kinds.count(k) for k in (LocalMap.POLY, LocalMap.CHAIN,
                                     LocalMap.NEWTON)] == [34, 7, 3]
    assert fam.find("inv(tr)").kind == LocalMap.POLY


def test_generate_does_not_swallow_errors_from_covers(monkeypatch, squaring):
    # Only the inverse's add raises: at depth 1 the composites and the
    # seeds come first, and their adds must pass.
    covers_ = pseudogroup.covers

    def failing(members, candidate, tol):
        if candidate.label.startswith("inv("):
            raise InversionError("covers failed")
        return covers_(members, candidate, tol)

    monkeypatch.setattr(pseudogroup, "covers", failing)
    with pytest.raises(InversionError, match="covers failed"):
        generate([squaring], Box((-1.0, -1.0), (1.0, 1.0)), depth=1)


# The Newton loop that gathered and scattered every live row on every step
# and halving, before the live rows were compacted; kept verbatim as the
# bit-identity reference.
def _reference_newton_solve_batch(self, ys):
    ys = np.asarray(ys, dtype=float)
    if ys.ndim != 2 or ys.shape[1] != self.dim:
        raise ValueError(
            f"points must be a (P, {self.dim}) array, got shape {ys.shape}")
    scale = np.maximum(1.0, np.max(np.abs(ys), axis=1))
    scale = np.maximum(scale, self.domain.diameter)
    nearest = np.empty(len(ys), dtype=int)
    block = max(1, NEWTON_SEED_BLOCK // len(self.seeds_y))
    for start in range(0, len(ys), block):
        chunk = ys[start:start + block]
        dist = np.abs(self.seeds_y[:, 0] - chunk[:, 0, None])
        for e in range(1, self.dim):
            np.maximum(dist, np.abs(self.seeds_y[:, e] - chunk[:, e, None]),
                       out=dist)
        nearest[start:start + block] = np.argmin(dist, axis=1)
    x = self.seeds_x[nearest].astype(float).copy()
    res = self.forward.evaluate(x, check_domain=False) - ys
    norm = np.max(np.abs(res), axis=1)
    stalled = np.zeros(len(ys), dtype=bool)
    for _ in range(NEWTON_MAX_ITER):
        active = ~stalled & (norm > defaults.NEWTON_STOP_TOL * scale)
        if not np.any(active):
            break
        idx = np.flatnonzero(active)
        jac = self.forward.jacobian(x[idx])
        try:
            step = np.linalg.solve(jac, res[idx][:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            step = np.zeros_like(res[idx])
            for row, j in enumerate(idx):
                try:
                    step[row] = np.linalg.solve(jac[row], res[j])
                except np.linalg.LinAlgError:
                    stalled[j] = True
            keep = ~stalled[idx]
            idx, step = idx[keep], step[keep]
            if idx.size == 0:
                continue
        t = np.ones(len(idx))
        pending = np.ones(len(idx), dtype=bool)
        for _ in range(NEWTON_HALVINGS):
            rows = np.flatnonzero(pending)
            if rows.size == 0:
                break
            trial = x[idx[rows]] - t[rows, None] * step[rows]
            trial_res = self.forward.evaluate(trial, check_domain=False) - ys[idx[rows]]
            trial_norm = np.max(np.abs(trial_res), axis=1)
            better = trial_norm < norm[idx[rows]]
            good = rows[better]
            x[idx[good]] = trial[better]
            res[idx[good]] = trial_res[better]
            norm[idx[good]] = trial_norm[better]
            pending[good] = False
            t[rows[~better]] *= 0.5
        stalled[idx[pending]] = True
    with np.errstate(invalid="ignore"):
        ok = norm <= defaults.NEWTON_ACCEPT_TOL * scale
    return x, ok


def _newton_batches(squaring):
    """(Newton inverse, targets) batches: converging rows, targets that
    stall, NaN targets, seeds on a singular Jacobian, and mixtures."""
    inv_sq = invert(squaring)
    reachable = squaring.evaluate(squaring.domain.lattice(13))
    fold = pmap(["x1^2 + x2", "x2"], (0.5, -1.0), (1.0, 1.0), "q")
    inv_fold = invert(fold)
    unreachable = np.array([[-1.0, 0.0], [-0.5, 0.3], [0.2, -0.9], [0.5, 0.2]])
    nan_rows = reachable[:6].copy()
    nan_rows[::2, 0] = np.nan
    nan_rows[1::2, 1] = np.nan
    # A seed at the fold line x1 = 0 of x1^2 has a singular Jacobian, so
    # the batched solve raises and the rows are solved one at a time.
    flat = pmap(["x1^2", "x2"], (-1.0, -1.0), (1.0, 1.0), "flat")
    seeds = np.array([[0.0, 0.0], [0.5, 0.0], [0.5, 0.5]])
    on_fold = LocalMap(LocalMap.NEWTON, Box((0.0, -1.0), (1.0, 1.0)), "inv(flat)",
                       forward=flat, seeds_x=seeds, seeds_y=flat.evaluate(seeds))
    singular = np.array([[0.01, 0.0], [0.3, 0.1], [0.02, 0.4], [0.25, 0.5]])
    # Rows on a singular seed (y near (0, 0)) between rows that converge
    # and rows with y1 < 0 that stall, in the bit order the batch sorts
    # its targets into: the per-row fallback drops rows from the middle.
    # A seed's image, (0.25, 0), leaves before the first step, so the
    # positions in the live rows are not the row numbers.
    mixed_singular = np.array([[0.05, -0.1], [0.6, -0.4], [0.01, 0.0],
                               [0.25, 0.0], [-0.02, 0.03], [0.0, 0.08],
                               [0.3, 0.1], [-0.05, 0.5], [0.2, 0.6],
                               [-0.02, 0.7], [-0.1, 0.9]])
    mixed = np.concatenate([reachable[:20], nan_rows, reachable[-30:]])
    # Shuffled copies of reachable rows, a +0.0/-0.0 pair, two NaN payloads
    # and repeated stalling rows: equal bits are one target, nothing else is.
    signed_zeros = np.array([[0.5, 0.0], [0.5, -0.0]])
    payloads = np.array([[0x7FF8000000000001, 0], [0x7FF8000000000002, 0]],
                        dtype=np.int64).view(float)
    repeated = np.concatenate([np.tile(fold.evaluate(fold.domain.lattice()), (3, 1)),
                               signed_zeros, payloads, np.tile(unreachable, (4, 1))])
    repeated = repeated[np.random.default_rng(5).permutation(len(repeated))]
    return [("converging", inv_sq, reachable), ("stalling", inv_fold, unreachable),
            ("nan", inv_sq, nan_rows), ("singular", on_fold, singular),
            ("mixed", inv_sq, mixed), ("repeated", inv_fold, repeated),
            ("mixed singular", on_fold, mixed_singular)]


def test_compacted_newton_loop_is_bit_identical_to_the_gathering_loop(squaring):
    outcomes = {}
    for name, inverse, ys in _newton_batches(squaring):
        with np.errstate(all="ignore"):
            x, ok = inverse._newton_solve_batch(ys)
            x_ref, ok_ref = _reference_newton_solve_batch(inverse, ys)
        assert x.tobytes() == x_ref.tobytes(), name
        assert ok.tolist() == ok_ref.tolist(), name
        outcomes[name] = (int(ok.sum()), len(ok))
    assert outcomes["converging"] == (169, 169)
    assert outcomes["stalling"][0] < 4
    assert outcomes["nan"] == (0, 6)
    assert 0 < outcomes["singular"][0] < 4
    # 77 reachable rows, 2 NaN rows, and 4 copies of each stalling row
    assert outcomes["repeated"] == (77 + 4 * outcomes["stalling"][0], 95)
    assert outcomes["mixed singular"] == (4, 11)  # the seed image, 3 converging


def test_newton_batch_solves_each_distinct_target_once(monkeypatch, squaring):
    _, inverse, ys = _newton_batches(squaring)[5]
    distinct = len({row.tobytes() for row in ys})
    assert distinct == 25 + 2 + 2 + 4 < len(ys)
    with np.errstate(all="ignore"):
        x_ref, ok_ref = _reference_newton_solve_batch(inverse, ys)
        alone = [inverse._newton_solve_batch(ys[i:i + 1]) for i in range(len(ys))]
        sizes = []
        try_evaluate = inverse.forward.try_evaluate

        def counting(points):
            sizes.append(len(points))
            return try_evaluate(points)

        monkeypatch.setattr(inverse.forward, "try_evaluate", counting)
        x, ok = inverse._newton_solve_batch(ys)
    assert sizes[0] == distinct
    assert x.tobytes() == x_ref.tobytes()
    assert ok.tolist() == ok_ref.tolist()
    assert x.tobytes() == b"".join(xa.tobytes() for xa, _ in alone)
    assert ok.tolist() == [bool(oa[0]) for _, oa in alone]


def test_closure_matches_the_undeduplicated_newton_loop(monkeypatch):
    # The axioms of the depth-2 family take about 20 s (44 members), so
    # they are checked on the depth-1 closure of the same seeds.
    scen = parse_scenario(builtin_scenarios()["std_c1"])
    spec = scen.family_specs["fam_ah"]
    seeds = [scen.maps[name] for name in spec.member_names]

    def closure():
        fam, shallow = (generate(seeds, scen.box, depth=depth,
                                 dedup_tol=spec.dedup_tol)
                        for depth in (spec.depth, 1))
        return fam, shallow, validate_axioms(shallow)

    fam, shallow, reports = closure()
    monkeypatch.setattr(LocalMap, "_newton_solve_batch",
                        _reference_newton_solve_batch)
    ref_fam, ref_shallow, ref_reports = closure()
    assert len(fam.members) > len(shallow.members) > 10
    assert any(m.kind == LocalMap.NEWTON for m in shallow.members)
    for a, b in ((fam, ref_fam), (shallow, ref_shallow)):
        assert a.labels() == b.labels()
        assert [m.domain for m in a.members] == [m.domain for m in b.members]
    assert reports == ref_reports  # metrics, tolerances, notes and status
    assert reports[0].metrics["failures"] > 0


def test_singular_seed_batch_takes_the_per_row_fallback(monkeypatch, squaring):
    _, inverse, ys = _newton_batches(squaring)[3]
    calls = []
    solve = np.linalg.solve

    def counting(a, b):
        calls.append(np.shape(a))
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counting)
    inverse._newton_solve_batch(ys)
    # The last target is a seed's image and needs no step; the batched
    # solve of the other three raises, and each row is solved alone.
    assert calls[:4] == [(3, 2, 2), (2, 2), (2, 2), (2, 2)]


def test_newton_inverse_of_sq_is_the_principal_square_root():
    scen = parse_scenario(builtin_scenarios()["std_c1"])
    inv = invert(scen.maps["sq"])
    ys = inv.domain.lattice(9)
    xs, ok = inv.try_evaluate(ys)
    assert ok.all()
    for y, x in zip(ys, xs):
        root = complex(sympy.sqrt(sympy.Float(y[0], 30) + sympy.I * sympy.Float(y[1], 30)))
        assert abs(x[0] - root.real) <= 1e-12 and abs(x[1] - root.imag) <= 1e-12


@pytest.fixture(scope="module")
def fam_ah():
    scen = parse_scenario(builtin_scenarios()["std_c1"])
    spec = scen.family_specs["fam_ah"]
    return scen, generate([scen.maps[m] for m in spec.member_names], scen.box,
                          depth=spec.depth, dedup_tol=spec.dedup_tol)


@pytest.mark.parametrize("label", ["(tr>>inv(sq))", "(inv(tr)>>inv(sq))"])
def test_newton_inverse_of_a_chain_through_newton_masks(fam_ah, label):
    """The forward chain's inner Newton solve fails on some trial steps; the
    outer solve masks where it used to raise.  Targets in the third quadrant
    have no preimage under the principal square root."""
    member = fam_ah[1].find(label)
    assert member.kind == LocalMap.CHAIN
    inv = invert(member)
    assert inv.kind == LocalMap.NEWTON
    unreachable = np.array([[-0.3, -0.2], [-0.25, -0.35]])
    ys = np.concatenate([inv.domain.lattice(), unreachable])
    with np.errstate(all="ignore"):
        xs, ok = inv.try_evaluate(ys)
    assert ok[:-2].all() and not ok[-2:].any()
    values, forward_ok = member.try_evaluate(xs[ok])
    assert forward_ok.all()
    assert np.max(np.abs(values - ys[ok])) <= defaults.NEWTON_ACCEPT_TOL
    # Row by row, the raising loop of old solves some rows without a mask
    # on the way; those keep their bits.
    kept = 0
    for row in np.flatnonzero(ok):
        try:
            x_ref, ok_ref = _reference_newton_solve_batch(inv, ys[row:row + 1])
        except InversionError:
            continue
        assert ok_ref[0] and x_ref[0].tobytes() == xs[row].tobytes()
        kept += 1
    assert 0 < kept < ok.sum()


def _rows_solved(monkeypatch):
    rows = []
    solve = LocalMap._newton_solve_batch

    def counting(self, ys):
        rows.append(len(ys))
        return solve(self, ys)

    monkeypatch.setattr(LocalMap, "_newton_solve_batch", counting)
    return rows


def test_ah_map_check_solves_each_newton_lattice_once(monkeypatch, fam_ah, std1):
    scen, fam = fam_ah
    rows = _rows_solved(monkeypatch)
    newton = [m for m in fam.members if m.kind == LocalMap.NEWTON]
    assert len(newton) == 3
    for member in newton:
        rows.clear()
        rep = check_ah_map(member, std1)
        # The forward maps are polynomial, so one batch of distinct rows.
        assert rows == [int(std1.box.contains(member.domain.lattice()).sum())]
        assert rep.metrics["checked_points"] > 0

    def ah_map_bytes():
        rows.clear()
        out = emit_json(run_scenario(scen, task_filter="ah_map_family"))
        return out, sum(rows)

    new, new_rows = ah_map_bytes()
    jacobian = LocalMap.jacobian
    # Without the values each Jacobian solves its points again.
    monkeypatch.setattr(LocalMap, "jacobian",
                        lambda self, points, values=None: jacobian(self, points))
    old, old_rows = ah_map_bytes()
    assert new == old
    assert new_rows < old_rows
