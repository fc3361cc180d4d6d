"""Local maps between coordinate boxes and families closed under the axioms.

A local map is a smooth map defined on a box.  Three representations cover
everything the toolkit builds: explicit polynomial maps, chains (step-by-step
composites kept numeric once symbolic degrees or coefficients would blow
up), and Newton inverses (evaluation-only root finding against a forward
map; an affine map's inverse is polynomial instead).  Families are
generated by breadth-first closure under composition and inversion, and
validated against the pseudogroup axioms:

  1. composition: composable pairs stay in the family,
  2. inversion: inverses stay in the family,
  3. identity: the identity on every source is present,
  4. restriction: members restricted to sub-boxes are represented,
  5. gluing: maps assembled from agreeing pieces are represented.

Membership is containment-based throughout: a candidate is represented when
some member's domain contains the candidate's domain and the two agree on the
candidate's lattice.  That convention keeps the axioms checkable on finitely
many boxes.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import defaults
from .errors import (CompositionError, ConfigurationError, DomainError,
                     InversionError, NumericalError)
from .jfield import Box, eval_j, lattice_points
from .poly import PolyMap, Polynomial
from .report import make_report


NEWTON_MAX_ITER = 50
# Step-length halvings a Newton step may take before its point stalls.
NEWTON_HALVINGS = 11
# Entries of the (rows, seeds) distance block a Newton batch holds at once.
NEWTON_SEED_BLOCK = 2 ** 16


def _box_label(box):
    parts = "x".join(f"[{lo:g},{hi:g}]" for lo, hi in zip(box.lo, box.hi))
    return parts


class LocalMap:
    """Map of a box into R^d, with one of three evaluation strategies."""

    POLY = "polynomial"
    CHAIN = "chain"
    NEWTON = "newton_inverse"

    def __init__(self, kind, domain, label, poly=None, steps=None,
                 forward=None, seeds_x=None, seeds_y=None,
                 declared_inverse=None):
        if kind not in (self.POLY, self.CHAIN, self.NEWTON):
            raise ValueError(f"unknown map kind {kind!r}")
        self.kind = kind
        self.domain = domain
        self.label = str(label)
        self.poly = poly
        self.steps = tuple(steps) if steps else ()
        self.forward = forward
        self.seeds_x = seeds_x
        self.seeds_y = seeds_y
        self.declared_inverse = declared_inverse
        if kind == self.POLY:
            if poly is None or poly.nvars != domain.dim:
                raise ValueError("polynomial map does not match its domain dimension")
            for comp in poly.components:
                if not comp.is_real:
                    raise ValueError("local map components must have real coefficients")

    # -- constructors --------------------------------------------------

    @classmethod
    def from_polynomials(cls, components, domain, label, declared_inverse=None):
        return cls(cls.POLY, domain, label, poly=PolyMap(components),
                   declared_inverse=declared_inverse)

    @property
    def dim(self):
        return self.domain.dim

    def __repr__(self):
        return f"LocalMap({self.label!r}, kind={self.kind}, domain={_box_label(self.domain)})"

    # -- evaluation ------------------------------------------------------

    def evaluate(self, points, check_domain=True):
        """Values (P, d) at a batch (P, d); DomainError for points outside
        the domain unless ``check_domain`` is False, and InversionError at
        the first point ``try_evaluate`` masks."""
        pts = np.asarray(points, dtype=float)
        if check_domain:
            inside = self.domain.contains(pts)
            if not np.all(inside):
                bad = pts[~inside][0]
                raise DomainError(
                    f"point {tuple(map(float, bad))} outside the domain of {self.label}")
        out, ok = self.try_evaluate(pts)
        if not np.all(ok):
            bad = tuple(map(float, pts[~ok][0]))
            raise InversionError(
                f"Newton iteration for {self.label} failed to converge for target {bad}"
                if self.kind == self.NEWTON else
                f"Newton iteration inside {self.label} failed to converge for input {bad}")
        return out

    __call__ = evaluate

    def jacobian(self, points, values=None):
        """Jacobians (P, d, d) at a batch (P, d).

        ``values``, the map's values at ``points`` where the caller has
        them already, spare a Newton inverse its solve; a chain hands each
        step the values it computes anyway.
        """
        pts = np.asarray(points, dtype=float)
        if self.kind == self.POLY:
            out = self.poly.jacobian(pts)
        elif self.kind == self.CHAIN:
            out = np.broadcast_to(np.eye(self.dim), (pts.shape[0], self.dim, self.dim)).copy()
            current = pts
            for step in self.steps:
                image = step.evaluate(current, check_domain=False)
                out = np.einsum("pij,pjk->pik", step.jacobian(current, image), out)
                current = image
        else:
            if values is None:
                values = self.evaluate(pts, check_domain=False)
            fwd = self.forward.jacobian(values)
            try:
                out = np.linalg.inv(fwd)
            except np.linalg.LinAlgError as exc:
                raise InversionError(
                    f"forward Jacobian of {self.label} is singular") from exc
        return out

    def try_evaluate(self, points):
        """Evaluate a batch (P, d) where possible: (values, valid mask).

        Polynomial maps are total.  Newton inverses (and chains through them)
        can fail on bounding-box points outside the true image; those points
        come back masked instead of raising.  This is the one place that
        evaluates by kind; ``evaluate`` raises where it masks.
        """
        pts = np.asarray(points, dtype=float)
        if self.kind == self.POLY:
            return self.poly.evaluate(pts), np.ones(len(pts), dtype=bool)
        if self.kind == self.CHAIN:
            current = pts
            valid = np.ones(len(pts), dtype=bool)
            for step in self.steps:
                current, ok = step.try_evaluate(current)
                valid &= ok
            return current, valid
        return self._newton_solve_batch(pts)

    def _newton_solve_batch(self, ys):
        """Solve forward(x) = y by damped Newton, one target per row.

        Each point starts at the nearest precomputed seed, takes full Newton
        steps with halving until the residual drops, and is accepted once the
        residual falls below ``defaults.NEWTON_ACCEPT_TOL`` of its scale.
        Points that stall come back with a False mask entry; garbage rows
        (NaN propagation) mask themselves out as well.  The forward map is
        evaluated through ``try_evaluate``, and a masked forward value reads
        as a NaN residual: a row whose seed masks stops as failed, and a
        trial step that masks does not improve its row.

        Every row is solved on its own, so each distinct target is solved
        once and its result copied to its repeats.  Rows are equal only when
        their bits are: +0.0 and -0.0, or two NaN payloads, stay apart.
        """
        ys = np.ascontiguousarray(ys, dtype=float)
        if ys.ndim != 2 or ys.shape[1] != self.dim:
            raise ValueError(
                f"points must be a (P, {self.dim}) array, got shape {ys.shape}")
        bits = ys.view(np.int64)
        order = np.lexsort(bits.T)
        repeat = np.zeros(len(ys), dtype=bool)
        repeat[1:] = (bits[order[1:]] == bits[order[:-1]]).all(axis=1)
        inverse = np.empty(len(ys), dtype=np.intp)
        inverse[order] = np.cumsum(~repeat) - 1
        ys = ys[order[~repeat]]
        scale = np.maximum(1.0, np.max(np.abs(ys), axis=1))
        scale = np.maximum(scale, self.domain.diameter)
        # The nearest seed of each row in the max norm, in blocks of rows so
        # the (rows, seeds) distances stay near NEWTON_SEED_BLOCK entries
        # however large the batch.
        nearest = np.empty(len(ys), dtype=int)
        block = max(1, NEWTON_SEED_BLOCK // len(self.seeds_y))
        for start in range(0, len(ys), block):
            chunk = ys[start:start + block]
            dist = np.abs(self.seeds_y[:, 0] - chunk[:, 0, None])
            for e in range(1, self.dim):
                np.maximum(dist, np.abs(self.seeds_y[:, e] - chunk[:, e, None]),
                           out=dist)
            nearest[start:start + block] = np.argmin(dist, axis=1)
        x = self.seeds_x[nearest].astype(float)
        res, norm = self._residuals(x, ys)
        # The rows still iterating.  A row that converges, stalls or turns
        # NaN never iterates again, so it leaves for good.
        live = np.arange(len(ys))
        for _ in range(NEWTON_MAX_ITER):
            live = live[norm[live] > defaults.NEWTON_STOP_TOL * scale[live]]
            if not live.size:
                break
            jac, rhs = self.forward.jacobian(x[live]), res[live]
            try:
                step = np.linalg.solve(jac, rhs[:, :, None])[:, :, 0]
            except np.linalg.LinAlgError:
                step = np.zeros_like(rhs)
                solved = np.ones(len(live), dtype=bool)
                for row in range(len(live)):
                    try:
                        step[row] = np.linalg.solve(jac[row], rhs[row])
                    except np.linalg.LinAlgError:
                        solved[row] = False
                live, step = live[solved], step[solved]
            # Positions in ``live`` of the rows whose step, at length t, has
            # not yet improved them; they all halve together.
            pending = np.arange(len(live))
            t = 1.0
            for _ in range(NEWTON_HALVINGS):
                if not pending.size:
                    break
                rows = live[pending]
                trial = x[rows] - t * step[pending]
                trial_res, trial_norm = self._residuals(trial, ys[rows])
                better = trial_norm < norm[rows]
                good = rows[better]
                x[good], res[good], norm[good] = (
                    trial[better], trial_res[better], trial_norm[better])
                pending = pending[~better]
                t *= 0.5
            live = np.delete(live, pending)
        with np.errstate(invalid="ignore"):
            ok = norm <= defaults.NEWTON_ACCEPT_TOL * scale
        return x[inverse], ok[inverse]

    def _residuals(self, x, ys):
        """forward(x) - y and its max norm per row; the norm is NaN where
        the forward map masks."""
        values, ok = self.forward.try_evaluate(x)
        res = values - ys
        return res, np.where(ok, np.max(np.abs(res), axis=1), np.nan)


def identity_map(box):
    """Identity on a box; it is its own declared inverse."""
    m = LocalMap.from_polynomials(
        [Polynomial.variable(box.dim, k) for k in range(box.dim)], box,
        f"id{_box_label(box)}")
    m.declared_inverse = m
    return m


def restrict(map_, box):
    """The same map on the intersection of its domain with ``box``."""
    new_domain = map_.domain.intersect(box)
    if new_domain is None:
        raise DomainError(
            f"restriction box does not meet the domain of {map_.label}")
    label = f"{map_.label}|{_box_label(new_domain)}"
    return LocalMap(map_.kind, new_domain, label, poly=map_.poly,
                    steps=map_.steps, forward=map_.forward,
                    seeds_x=map_.seeds_x, seeds_y=map_.seeds_y)


def _steps_of(map_):
    return map_.steps if map_.kind == LocalMap.CHAIN else (map_,)


# Each side of a composite's domain is found by BISECTION_STEPS halvings;
# one batched evaluation decides BISECTION_LEVELS of them (a divisor of
# BISECTION_STEPS).  Deeper batches cost more Newton work than they save
# in calls.
BISECTION_STEPS = 60
BISECTION_LEVELS = 3
# Sweeps over every side of a composite's domain; the growth stops earlier
# once every side in a row has failed to grow the same box.
COMPOSE_GROWTH_ROUNDS = 6


def _bisect_stretch(avail, probe, floor):
    """Generator of the stretch in [0, avail] the sequential search would
    keep, wherever that stretch exceeds ``floor``; otherwise of some
    stretch at most ``floor``.

    That search takes ``avail`` when it passes, and otherwise the last
    passing midpoint of BISECTION_STEPS halvings of (0, avail).  Here
    ``probe`` is a generator function that maps an array of stretches to
    an array of verdicts, yielding the evaluations it needs; each probe
    decides BISECTION_LEVELS halvings at once: it gets every midpoint they
    could visit, in heap order and with the same ``0.5 * (a + b)``
    arithmetic, and the verdicts pick the path.  The full stretch rides in
    the first probe.  It stops once no float lies strictly between t_ok and
    t_bad, where every later midpoint would repeat a known verdict, and
    once t_bad <= floor: t_ok never passes t_bad and t_bad only falls, so
    the sequential search would end at or below ``floor`` too.
    """
    t_ok, t_bad = 0.0, avail
    full = [avail]
    for _ in range(BISECTION_STEPS // BISECTION_LEVELS):
        bounds, mids = [(t_ok, t_bad)], []
        for node in range(2 ** BISECTION_LEVELS - 1):
            a, b = bounds[node]
            mid = 0.5 * (a + b)
            mids.append(mid)
            bounds += [(a, mid), (mid, b)]
        verdicts = yield from probe(np.array(full + mids))
        if full:
            if verdicts[0]:
                return avail
            full, verdicts = [], verdicts[1:]
        node = 0
        for _ in range(BISECTION_LEVELS):
            if verdicts[node]:
                t_ok, node = mids[node], 2 * node + 2
            else:
                t_bad, node = mids[node], 2 * node + 1
        if t_bad <= floor or 0.5 * (t_ok + t_bad) in (t_ok, t_bad):
            break
    return t_ok


def _is_diagonal_affine(map_):
    """True for a polynomial map x -> (a_k x_k + b_k)_k: every term of
    component k is a constant or a multiple of x_k."""
    if map_.kind != LocalMap.POLY or map_.poly.ncomponents != map_.dim:
        return False
    return all(all(power == 0 or (j == k and power == 1)
                   for j, power in enumerate(e))
               for k, comp in enumerate(map_.poly.components)
               for e in comp.terms)


def _corner_verdicts(first, bounds, box, d, side, ts):
    """The lattice verdicts on stretching side (d, side) of ``box`` by each
    of ``ts``, for a diagonal-affine ``first``, from the moved corner alone.

    Component d of ``first`` depends on x_d alone, and monotonically, also
    in float64: fl(a*x) and fl(y + b) are monotone in x.  The lattice puts
    the two ends of axis d exactly at its ends and the other points
    between them, so component d's images lie between the images of the
    ends.  The fixed end and every other axis are those of ``box``, which
    passed (or is the seed point, which passed the same test).  So a
    stretch passes when component d maps the moved corner coordinate into
    ``bounds`` = (lo, hi), the second domain widened by the compose margin.
    The image is summed as ``poly._values`` sums it, from 0.0 in term
    order, so the verdict is the lattice verdict bit for bit; a NaN fails
    both.
    """
    corner = box[0, d] - ts if side == 0 else box[1, d] + ts
    image = np.zeros(len(ts))
    for e, c in first.poly.components[d].terms.items():
        image += c.real * corner if e[d] else c.real
    lo, hi = bounds
    return (image >= lo[d]) & (image <= hi[d])


def _compose_search(first, second, bounds, lattice, images, evaluable, affine):
    """Generator of the composite "apply ``first``, then ``second``".

    ``bounds`` = (lo, hi) is the second domain widened by the compose
    margin.  ``images`` and ``evaluable`` are ``first.try_evaluate(lattice)``
    on the lattice of the first domain.  The search grows a box from one
    lattice point that maps into ``bounds``, one side at a time (see
    ``_bisect_stretch``).  Each yield is the (C, 2, d) array of the lo and
    hi corners of the candidate boxes it needs; it expects back their (C,)
    verdicts: True where ``first`` evaluates the box's whole lattice into
    ``bounds``.  When ``affine`` (``first`` is diagonal affine), the search
    decides its candidates by ``_corner_verdicts`` and never yields.
    Returns the composite; raises CompositionError when no lattice point
    maps into the second domain or the region found has no interior.
    """
    if first.dim != second.dim:
        raise CompositionError("maps act on spaces of different dimension")
    ok = evaluable & np.all((images >= bounds[0]) & (images <= bounds[1]), axis=1)
    if not np.any(ok):
        raise CompositionError(
            f"no lattice point of {first.label} maps into the domain of "
            f"{second.label}")

    seed = lattice[int(np.argmax(ok))]
    box = np.array([seed, seed], dtype=float)  # rows: the lo and hi corner
    dom_lo = np.array(first.domain.lo)
    dom_hi = np.array(first.domain.hi)
    growth_tol = defaults.GROWTH_TOL * max(first.domain.diameter, 1.0)
    # A side grows the box only by a stretch above growth_tol, and its
    # verdicts depend on the box and the side alone.  So a side with no
    # more than growth_tol to go is not searched, and once every side in
    # a row has failed on the same box, the sweeps would only repeat
    # those failures.
    sides = [(d, side) for d in range(first.dim) for side in (0, 1)]
    idle = 0  # sides in a row that failed to grow the current box
    for d, side in sides * COMPOSE_GROWTH_ROUNDS:
        if idle == len(sides):
            break
        idle += 1
        if side == 0:
            avail = box[0, d] - dom_lo[d]
        else:
            avail = dom_hi[d] - box[1, d]
        if avail <= growth_tol:
            continue

        def stretched(t):
            # Copies of the box that differ in one coordinate of the moving
            # corner.
            boxes = np.empty((np.size(t),) + box.shape)
            boxes[:] = box
            if side == 0:
                boxes[:, 0, d] = box[0, d] - t
            else:
                boxes[:, 1, d] = box[1, d] + t
            return boxes

        def probe(ts):
            if affine:
                return _corner_verdicts(first, bounds, box, d, side, ts)
            return (yield stretched(ts))

        best = yield from _bisect_stretch(avail, probe, growth_tol)
        if best > growth_tol:
            box = stretched(best)[0]
            idle = 0
    lo, hi = box
    if np.any(hi - lo <= 0):
        raise CompositionError(
            f"composable region of {first.label} then {second.label} has no "
            f"interior")
    domain = Box(tuple(lo), tuple(hi))
    label = f"({first.label}>>{second.label})"
    if (first.kind == LocalMap.POLY and second.kind == LocalMap.POLY
            and first.poly.degree * max(second.poly.degree, 1) <= defaults.DEGREE_CAP):
        poly = second.poly.compose(first.poly)
        if all(c.is_real and all(map(cmath.isfinite, c.terms.values()))
               for c in poly.components):
            return LocalMap(LocalMap.POLY, domain, label, poly=poly)
    return LocalMap(LocalMap.CHAIN, domain, label,
                    steps=_steps_of(first) + _steps_of(second))


def compose(first, seconds):
    """The composites "apply ``first``, then g" for every g in ``seconds``:
    a list holding each composite or the CompositionError its search raised.

    A composite lives on its effective domain: the largest sub-box of the
    first map's domain (found by seeded per-side bisection, see
    ``_compose_search``) whose lattice lands inside g's domain.

    The searches share the first map, so they run in lock-step: each round
    stacks the candidate boxes of every live search into one lattice, one
    ``first.try_evaluate`` call and one comparison with each box's second
    domain, then hands each search the verdicts on its boxes.  Every
    evaluator is row-independent, so each search sees the bits it would
    see alone, and the composites are those of one search at a time.
    After a diagonal-affine first map every search decides its own
    candidates, so it ends at its first step and no round is run.
    """
    lattice = first.domain.lattice()
    images, evaluable = first.try_evaluate(lattice)
    affine = _is_diagonal_affine(first)
    # Each second domain, widened as ``Box.contains`` widens it but by the
    # tighter COMPOSE_MARGIN: a composite's domain must sit strictly inside
    # what the general containment rule accepts, or members stop covering.
    bounds = []
    for g in seconds:
        slack = defaults.COMPOSE_MARGIN * max(g.domain.diameter, 1.0)
        bounds.append((np.asarray(g.domain.lo) - slack,
                       np.asarray(g.domain.hi) + slack))
    results = [None] * len(seconds)
    pending = []  # (index, search, candidate boxes) of every live search

    def advance(i, search, reply):
        try:
            pending.append((i, search, search.send(reply)))
        except StopIteration as done:
            results[i] = done.value
        except CompositionError as exc:
            # Without its traceback the error does not keep the search's
            # frame, and the lattices in it, alive.
            results[i] = exc.with_traceback(None)

    for i, second in enumerate(seconds):
        advance(i, _compose_search(first, second, bounds[i], lattice, images,
                                   evaluable, affine), None)
    while pending:
        live = pending[:]
        pending.clear()
        counts = [len(b) for _, _, b in live]
        boxes = np.concatenate([b for _, _, b in live])
        pts = lattice_points(boxes[:, 0], boxes[:, 1], defaults.GRID_PER_AXIS)
        img, good = first.try_evaluate(pts.reshape(-1, first.dim))
        img = img.reshape(pts.shape)
        lo = np.repeat([bounds[i][0] for i, _, _ in live], counts, axis=0)
        hi = np.repeat([bounds[i][1] for i, _, _ in live], counts, axis=0)
        inside = (img >= lo[:, None]) & (img <= hi[:, None])
        verdicts = (good.reshape(pts.shape[:2]) & inside.all(axis=2)).all(axis=1)
        for (i, search, _), end, count in zip(live, np.cumsum(counts), counts):
            advance(i, search, verdicts[end - count:end])
    return results


def invert(map_, tol_invert=defaults.TOL_INVERT, tol_det=defaults.TOL_DET):
    """Inverse of a local map.

    A declared inverse is validated by the round trip on the domain lattice.
    Otherwise the Jacobian must be uniformly nondegenerate on the lattice,
    and the inverse lives on the bounding box of the image: exact for an
    affine map whose round trip passes, a Newton inverse for any other.
    """
    lattice = map_.domain.lattice()
    images, evaluable = map_.try_evaluate(lattice)
    if not np.any(evaluable):
        raise InversionError(f"{map_.label} is not evaluable on its lattice")
    lattice, images = lattice[evaluable], images[evaluable]
    if map_.declared_inverse is not None:
        inv = map_.declared_inverse
        if not np.all(inv.domain.contains(images)):
            raise InversionError(
                f"declared inverse of {map_.label} does not cover its image")
        back, back_ok = inv.try_evaluate(images)
        if not np.all(back_ok):
            raise InversionError(
                f"declared inverse of {map_.label} is not evaluable on its image")
        defect = float(np.max(np.abs(back - lattice)))
        if defect > tol_invert:
            raise InversionError(
                f"declared inverse of {map_.label} fails the round trip: "
                f"defect {defect:.3e} > {tol_invert:g}")
        return inv
    jac = map_.jacobian(lattice)
    dets = np.linalg.det(jac)
    min_det = float(np.min(np.abs(dets)))
    if min_det <= tol_det:
        raise InversionError(
            f"{map_.label} has |det| = {min_det:.3e} <= {tol_det:g} on its "
            f"lattice; not invertible")
    if not np.all(np.isfinite(images)):
        raise InversionError(f"image of {map_.label} is not finite on its lattice")
    if not np.all(np.isfinite(dets)):  # a NaN det passes the |det| test
        raise InversionError(f"Jacobian of {map_.label} is not finite on its lattice")
    lo = tuple(np.min(images, axis=0))
    hi = tuple(np.max(images, axis=0))
    if any(a >= b for a, b in zip(lo, hi)):
        raise InversionError(f"image of {map_.label} has no interior")
    domain, label = Box(lo, hi), f"inv({map_.label})"
    if map_.kind == LocalMap.POLY and map_.poly.degree <= 1:
        # y = A x + b with A nonsingular is a bijection of R^d, inverted by
        # x = A^-1 y - A^-1 b; A is the (constant) Jacobian.  One solve
        # gives [A^-1 | -A^-1 b], and the round trip on the lattice guards
        # it; should the round trip fail, the Newton inverse stands in.
        d = map_.dim
        b = [c.terms.get((0,) * d, 0.0).real for c in map_.poly.components]
        coef = np.linalg.solve(jac[0], np.column_stack([np.eye(d), np.negative(b)]))
        exponents = [tuple(e) for e in np.eye(d, dtype=int)] + [(0,) * d]
        exact = LocalMap.from_polynomials(
            [Polynomial(d, dict(zip(exponents, row))) for row in coef],
            domain, label, declared_inverse=map_)
        if float(np.max(np.abs(exact.poly.evaluate(images) - lattice))) <= tol_invert:
            return exact
    return LocalMap(LocalMap.NEWTON, domain, label, forward=map_,
                    seeds_x=np.array(lattice), seeds_y=np.array(images),
                    declared_inverse=map_)


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------

def covers(members, candidate, tol):
    """True when some member contains ``candidate``: domain containment plus
    agreement on the candidate's lattice.  Members are tested in order; the
    candidate is evaluated once, at the first member whose domain contains
    it, and not at all when none does."""
    values = None
    for m in members:
        if m.dim != candidate.dim or not m.domain.contains_box(candidate.domain):
            continue
        if values is None:
            pts = candidate.domain.lattice()
            values, ok_c = candidate.try_evaluate(pts)
        a, ok_a = m.try_evaluate(pts)
        if np.all(ok_a & ok_c) and float(np.max(np.abs(a - values))) <= tol:
            return True
    return False


@dataclass
class GlueTest:
    """Pieces of declared members expected to assemble over a target box."""

    member_labels: tuple
    boxes: tuple
    target: Box


@dataclass
class PseudogroupFamily:
    """A finite family of local maps inside one ambient box."""

    ambient: Box
    members: list
    dedup_tol: float
    tol_invert: float
    tol_det: float
    # (f, g) -> compose(f, [g])[0], the composite or its CompositionError;
    # filled by ``generate`` and reused by ``validate_axioms``.
    composites: dict = dc_field(default_factory=dict, repr=False)

    def labels(self):
        return [m.label for m in self.members]

    def find(self, label):
        for m in self.members:
            if m.label == label:
                return m
        raise KeyError(f"no member labeled {label!r}")


MAX_FAMILY_SIZE = 500


def _composites(cache, f, seconds):
    """``compose(f, [g])[0]`` for each g in ``seconds``; pairs not yet in
    ``cache`` are searched together, so each pair is searched once.  Keys
    hold the maps themselves: LocalMap compares by identity, and a key
    keeps its maps alive, so no other map can take its place."""
    missing = [g for g in seconds if (f, g) not in cache]
    if missing:
        for g, c in zip(missing, compose(f, missing)):
            cache[(f, g)] = c
    return [cache[(f, g)] for g in seconds]


def generate(seeds, ambient, depth=2, dedup_tol=None,
             tol_invert=defaults.TOL_INVERT, tol_det=defaults.TOL_DET):
    """Breadth-first closure of seed maps under composition and inversion.

    Level by level, all ordered composites and all inverses of current
    members are formed; candidates already contained in a member are
    dropped.  A member covers its own restrictions, so none are formed.
    Identities are added for every seed up front and for every member
    domain at the end.  Insertion order is deterministic, so repeated runs
    agree exactly.  Each ordered pair is composed once, the pairs of one
    first map in one ``compose`` call; the family keeps the composites for
    ``validate_axioms``.
    """
    if dedup_tol is None:
        dedup_tol = defaults.DEDUP_TOL_FACTOR * ambient.diameter
    if not (math.isfinite(dedup_tol) and dedup_tol > 0):
        # With NaN no candidate is ever covered, and the family grows to
        # MAX_FAMILY_SIZE before anything fails.
        raise ConfigurationError(
            f"dedup_tol must be a finite positive number, got {dedup_tol!r}")
    members = []
    composites = {}

    def add(candidate):
        if len(members) >= MAX_FAMILY_SIZE:
            raise NumericalError(
                f"family exceeded the safety cap of {MAX_FAMILY_SIZE} members")
        if not ambient.contains_box(candidate.domain):
            return False
        if covers(members, candidate, dedup_tol):
            return False
        members.append(candidate)
        return True

    for seed in seeds:
        add(seed)
    for seed in list(members):
        add(identity_map(seed.domain))

    for _level in range(depth):
        current = list(members)
        for f in current:
            for c in _composites(composites, f, current):
                if not isinstance(c, CompositionError):
                    add(c)
        for f in current:
            try:
                inverse = invert(f, tol_invert=tol_invert, tol_det=tol_det)
            except InversionError:
                continue
            add(inverse)
        if len(members) == len(current):
            break

    for m in list(members):
        add(identity_map(m.domain))

    return PseudogroupFamily(ambient=ambient, members=members,
                             dedup_tol=float(dedup_tol),
                             tol_invert=float(tol_invert), tol_det=float(tol_det),
                             composites=composites)


def validate_axioms(family, glue_tests=()):
    """Check the five closure axioms; one report per axiom.

    Failures are counted and the first few offenders are named in the notes.
    Composition is checked over ordered pairs with a nonempty composable
    region; pairs with none are vacuous.  The inversion round trip and
    the inverses use the family's own ``tol_invert`` and ``tol_det``.
    """
    reports = []

    failures = []
    for f in family.members:
        for g, c in zip(family.members, _composites(
                family.composites, f, family.members)):
            if isinstance(c, CompositionError):
                continue
            if not covers(family.members, c, family.dedup_tol):
                failures.append(f"{f.label}>>{g.label}")
    reports.append(_axiom_report("axiom1_composition", failures))

    failures = []
    for f in family.members:
        try:
            inv = invert(f, tol_invert=family.tol_invert,
                         tol_det=family.tol_det)
        except InversionError as exc:
            failures.append(f"{f.label}: {exc}")
            continue
        if not covers(family.members, inv, family.dedup_tol):
            failures.append(f"inv({f.label})")
    reports.append(_axiom_report("axiom2_inversion", failures))

    failures = []
    for f in family.members:
        if not covers(family.members, identity_map(f.domain), family.dedup_tol):
            failures.append(f"id on {_box_label(f.domain)}")
    reports.append(_axiom_report("axiom3_identity", failures))

    failures = []
    for f in family.members:
        mid = 0.5 * (f.domain.lo[0] + f.domain.hi[0])
        for piece_box in (Box((mid,) + f.domain.lo[1:], f.domain.hi),
                          Box(f.domain.lo, (mid,) + f.domain.hi[1:])):
            piece = restrict(f, piece_box)
            if not covers(family.members, piece, family.dedup_tol):
                failures.append(piece.label)
    reports.append(_axiom_report("axiom4_restriction", failures))

    failures = []
    for test in glue_tests:
        failures.extend(_check_glue(family, test))
    report = _axiom_report("axiom5_gluing", failures)
    if not glue_tests:
        report.add_note("no glue tests declared; vacuous")
    reports.append(report)
    return reports


def _axiom_report(name, failures):
    report = make_report(
        task=name,
        metrics={"failures": float(len(failures))},
        tolerances={},
        extra_pass=not failures,
    )
    for item in failures[:10]:
        report.add_note(f"not represented: {item}")
    if len(failures) > 10:
        report.add_note(f"... and {len(failures) - 10} more")
    return report


def _check_glue(family, test):
    failures = []
    pieces = []
    for label, box in zip(test.member_labels, test.boxes):
        try:
            pieces.append(restrict(family.find(label), box))
        except (KeyError, DomainError) as exc:
            failures.append(f"glue piece {label}: {exc}")
    if failures:
        return failures
    for i in range(len(pieces)):
        for j in range(i + 1, len(pieces)):
            overlap = pieces[i].domain.intersect(pieces[j].domain)
            if overlap is None:
                continue
            pts = overlap.lattice()
            gap = float(np.max(np.abs(pieces[i].evaluate(pts, check_domain=False)
                                      - pieces[j].evaluate(pts, check_domain=False))))
            if gap > family.dedup_tol:
                failures.append(
                    f"pieces {pieces[i].label} and {pieces[j].label} disagree "
                    f"by {gap:.3e}")
    target_pts = test.target.lattice()
    covered_mask = np.zeros(len(target_pts), dtype=bool)
    for piece in pieces:
        covered_mask |= piece.domain.contains(target_pts)
    if not np.all(covered_mask):
        failures.append(
            f"{int(np.sum(~covered_mask))} target lattice points not covered "
            f"by any glue piece")
        return failures
    glued = None
    piece_points = [p.domain.lattice() for p in pieces]
    piece_values = [p.evaluate(pts, check_domain=False)
                    for p, pts in zip(pieces, piece_points)]
    for m in family.members:
        if m.domain.contains_box(test.target):
            agrees = all(
                float(np.max(np.abs(m.evaluate(pts, check_domain=False) - values)))
                <= family.dedup_tol
                for pts, values in zip(piece_points, piece_values))
            if agrees:
                glued = m
                break
    if glued is None:
        failures.append(
            f"no member represents the glued map on {_box_label(test.target)}")
    return failures


# ---------------------------------------------------------------------------
# structure compatibility and diagrams
# ---------------------------------------------------------------------------

def check_ah_map(map_, structure, grid_k=defaults.GRID_PER_AXIS,
                 tol=defaults.TOL_MAP):
    """Compatibility of a local map with the structure: DPhi J = J DPhi.

    Sampled on the lattice of the map's domain; points or images outside the
    structure's box are skipped and counted.  All points invalid is an error.
    """
    if map_.dim != structure.real_dim:
        raise DomainError(
            f"map dimension {map_.dim} does not match the structure dimension "
            f"{structure.real_dim}")
    pts = map_.domain.lattice(grid_k)
    src_ok = structure.box.contains(pts)
    pts = pts[src_ok]
    skipped = int(np.sum(~src_ok))
    if len(pts):
        images, evaluable = map_.try_evaluate(pts)
        dst_ok = evaluable & structure.box.contains(images)
        skipped += int(np.sum(~dst_ok))
        pts, images = pts[dst_ok], images[dst_ok]
    if not len(pts):
        raise DomainError(
            f"no lattice point of {map_.label} stays inside both structure boxes")
    dphi = map_.jacobian(pts, values=images)
    j_src = eval_j(structure, pts)
    j_dst = eval_j(structure, images)
    defect = (np.einsum("pij,pjk->pik", dphi, j_src)
              - np.einsum("pij,pjk->pik", j_dst, dphi))
    residual = float(np.max(np.abs(defect)))
    return make_report(
        task="ah_map",
        metrics={"ah_map_residual": residual,
                 "checked_points": float(len(pts)),
                 "skipped_points": float(skipped)},
        tolerances={"ah_map_residual": tol},
        notes=[f"map {map_.label}"],
    )


@dataclass
class OverDiagram:
    """Square of maps: horizontal phi upstairs, psi downstairs, bundle maps
    f_src and f_dst vertical."""

    phi: LocalMap
    f_src: LocalMap
    f_dst: LocalMap
    psi: LocalMap


def check_over_diagram(diagram, grid_k=defaults.GRID_PER_AXIS,
                       tol=defaults.TOL_DIAGRAM):
    """Commutation residual max |f_dst(phi(p)) - psi(f_src(p))| on a lattice.

    Lattice points must thread all four domains; more than a
    ``DIAGRAM_SKIP_SHARE`` of them falling out is treated as a mis-declared
    diagram.
    """
    pts = diagram.phi.domain.lattice(grid_k)
    total = len(pts)
    pts = pts[diagram.f_src.domain.contains(pts)]
    up = diagram.phi.evaluate(pts, check_domain=False)
    ok = diagram.f_dst.domain.contains(up)
    pts, up = pts[ok], up[ok]
    down = diagram.f_src.evaluate(pts, check_domain=False)
    ok = diagram.psi.domain.contains(down)
    pts, up, down = pts[ok], up[ok], down[ok]
    skipped = total - len(pts)
    if skipped > defaults.DIAGRAM_SKIP_SHARE * total:
        raise DomainError(
            f"{skipped} of {total} lattice points leave the diagram's domains")
    left = diagram.f_dst.evaluate(up, check_domain=False)
    right = diagram.psi.evaluate(down, check_domain=False)
    residual = float(np.max(np.abs(left - right)))
    return make_report(
        task="over_diagram",
        metrics={"diagram_residual": residual,
                 "checked_points": float(len(pts)),
                 "skipped_points": float(skipped)},
        tolerances={"diagram_residual": tol},
    )
