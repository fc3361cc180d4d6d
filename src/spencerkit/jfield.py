"""Almost complex structures on coordinate boxes.

A structure is a polynomial matrix field J on a closed box in R^{2n} with
J(p)^2 = -I.  The complex coordinate pairing is adjacent: z^j corresponds to
(x^{2j-1}, x^{2j}), and the standard structure sends d/dx^{2j-1} to
d/dx^{2j}.  Matrices act on columns: column j of J(p) is the image of the
j-th coordinate field.
"""
from __future__ import annotations

import collections
import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import defaults
from .errors import (ConfigurationError, DegenerateStructureError, DomainError,
                     NumericalError)
from .poly import Polynomial
from .report import make_report


def check_entries(entries, what, *args):
    """Refuse an array of ``entries`` entries over ``defaults.ENTRY_CAP``,
    before it is allocated, naming it ``what.format(*args)``: the name is
    made only for the refusal, off the hot paths that pass the check."""
    if entries > defaults.ENTRY_CAP:
        raise ConfigurationError(f"{what.format(*args)} has {entries} entries, "
                                 f"above the cap of {defaults.ENTRY_CAP}")


def _distinct_rows(a):
    """The rows of a 2-D array of 8-byte items, distinct by bits: +0.0 and
    -0.0, or two NaN payloads, stay apart.  Returns the index of one row
    of each, in the order of their bits, and for each row the position of
    its own among those."""
    bits = np.ascontiguousarray(a).view(np.int64)
    order = np.lexsort(bits.T)
    repeat = np.zeros(len(bits), dtype=bool)
    repeat[1:] = (bits[order[1:]] == bits[order[:-1]]).all(axis=1)
    inverse = np.empty(len(bits), dtype=np.intp)
    inverse[order] = np.cumsum(~repeat) - 1
    return order[~repeat], inverse


def distinct_points(points, polys):
    """The points of a batch (P, d) that ``polys`` can tell apart, as
    ``(first, inverse)`` of ``_distinct_rows``: the rows distinct by bits in
    the columns of the variables that some term of ``polys`` raises to a
    nonzero power, the only columns ``poly._add_terms`` reads.  Without such
    a variable every point is in one class, that of the first point; without
    points there is no class."""
    pts = np.asarray(points, dtype=float)
    used = sorted({k for p in polys for e in p.terms
                   for k, power in enumerate(e) if power})
    if not used:
        return np.arange(min(len(pts), 1)), np.zeros(len(pts), dtype=np.intp)
    return _distinct_rows(pts[:, used])


@dataclass(frozen=True)
class Box:
    """Closed axis-aligned box, the common domain type of the toolkit."""

    lo: tuple
    hi: tuple

    def __post_init__(self):
        lo = tuple(float(v) for v in self.lo)
        hi = tuple(float(v) for v in self.hi)
        if len(lo) != len(hi) or not lo:
            raise ConfigurationError("box bounds must be nonempty and of equal length")
        if len(lo) > 2 * defaults.DIM_CAP:
            raise ConfigurationError(
                f"box dimension {len(lo)} exceeds cap {2 * defaults.DIM_CAP}")
        if not np.all(np.isfinite(lo + hi)):
            raise ConfigurationError(f"box bounds must be finite: lo={lo}, hi={hi}")
        if any(a >= b for a, b in zip(lo, hi)):
            raise ConfigurationError(f"box has empty interior: lo={lo}, hi={hi}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dim(self):
        return len(self.lo)

    @property
    def center(self):
        return tuple(0.5 * (a + b) for a, b in zip(self.lo, self.hi))

    @property
    def widths(self):
        return tuple(b - a for a, b in zip(self.lo, self.hi))

    @property
    def diameter(self):
        """Longest side; the scale against which relative tolerances resolve."""
        return max(self.widths)

    @property
    def slack(self):
        """How far outside the box a point may lie and still count as inside."""
        return defaults.CONTAINMENT_SLACK * max(self.diameter, 1.0)

    def contains(self, points, slack=None):
        """Membership mask (P,) for a batch (P, d), up to ``slack``."""
        if slack is None:
            slack = self.slack
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.dim:
            raise DomainError(
                f"points must be a (P, {self.dim}) array, got shape {pts.shape}")
        lo = np.asarray(self.lo) - slack
        hi = np.asarray(self.hi) + slack
        return np.all((pts >= lo) & (pts <= hi), axis=1)

    def contains_box(self, other):
        """True when both corners of ``other`` are inside this box, up to ``slack``."""
        if other.dim != self.dim:
            raise DomainError(f"a {other.dim}-box is not inside a {self.dim}-box")
        slack = self.slack
        return all(lo - slack <= a and b <= hi + slack
                   for lo, hi, a, b in zip(self.lo, self.hi, other.lo, other.hi))

    def intersect(self, other):
        """Intersection box, or None when the interiors do not meet."""
        if self.dim != other.dim:
            raise DomainError("boxes of different dimension do not intersect")
        lo = tuple(max(a, b) for a, b in zip(self.lo, other.lo))
        hi = tuple(min(a, b) for a, b in zip(self.hi, other.hi))
        if any(a >= b for a, b in zip(lo, hi)):
            return None
        return Box(lo, hi)

    def lattice(self, k=defaults.GRID_PER_AXIS):
        """The box's read-only lattice, k points per axis (``lattice_points``)."""
        pts = lattice_points(self.lo, self.hi, k)
        pts.flags.writeable = False
        return pts

    def generic_points(self):
        """``defaults.RANK_POINTS`` read-only points in general position in
        the box's middle 90%: lo + (0.05 + 0.9 frac(i sqrt(p_k))) (hi - lo)
        for i = 1, 2, ... on axis k, p_k the k-th prime.  No random stream,
        and every step rounds correctly: the same bits on every platform."""
        i = np.arange(1.0, defaults.RANK_POINTS + 1.0)[:, None]
        primes = np.array([2.0, 3.0, 5.0, 7.0, 11.0, 13.0, 17.0, 19.0])
        frac = np.modf(i * np.sqrt(primes[:self.dim]))[0]
        pts = self.lo + (0.05 + 0.9 * frac) * np.subtract(self.hi, self.lo)
        pts.flags.writeable = False
        return pts


def lattice_points(lo, hi, k):
    """k points per axis from ``lo`` to ``hi``, in lexicographic order, as a
    (k^d, d) array.  An axis with lo == hi contributes k copies of its value.

    Bounds of shape (C, d) give C lattices stacked as (C, k^d, d), each bit
    for bit the lattice of its own row of bounds."""
    if k < 2:
        raise ConfigurationError(f"grid needs at least 2 points per axis, got {k}")
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if lo.ndim == 1:
        return lattice_points(lo[None, :], hi[None, :], k)[0]
    count, dim = lo.shape
    points = count * int(k) ** dim
    check_entries(points * dim, "the lattice of {} points in R^{}", points, dim)
    axes = _linspace_rows(lo.ravel(), hi.ravel(), k).reshape(count, dim, k)
    out = np.empty((count,) + (k,) * dim + (dim,))
    for e in range(dim):
        shape = [count] + [1] * dim
        shape[e + 1] = k
        out[..., e] = axes[:, e].reshape(shape)
    return out.reshape(count, -1, dim)


def _linspace_rows(a, b, k):
    """``np.linspace(a[i], b[i], k)`` for every row i, bit for bit.

    Over arrays, linspace takes its zero-step branch for every row as soon
    as one row has a zero step, which changes the other rows' bits; here
    each row takes the branch linspace takes for that row alone."""
    div = k - 1
    delta = (b - a)[:, None]
    step = delta / div
    i = np.arange(k, dtype=float)
    out = np.where(step == 0, (i / div) * delta, i * step) + a[:, None]
    out[:, -1] = b
    return out


class ACStructure:
    """Polynomial matrix field J on a box in R^{2n}."""

    __slots__ = ("n", "box", "matrix", "_nijenhuis_plan")

    def __init__(self, n, box, matrix):
        n = int(n)
        if not 1 <= n <= defaults.DIM_CAP:
            raise ConfigurationError(f"complex dimension {n} outside 1..{defaults.DIM_CAP}")
        if box.dim != 2 * n:
            raise ConfigurationError(f"box dimension {box.dim} != 2n = {2 * n}")
        size = 2 * n
        if len(matrix) != size or any(len(row) != size for row in matrix):
            raise ConfigurationError(f"structure matrix must be {size}x{size}")
        for i, row in enumerate(matrix):
            for j, entry in enumerate(row):
                if not isinstance(entry, Polynomial) or entry.nvars != size:
                    raise ConfigurationError(
                        f"entry ({i},{j}) is not a polynomial in {size} variables")
                if not entry.is_real:
                    raise ConfigurationError(f"entry ({i},{j}) has complex coefficients")
                if entry.degree > defaults.DEGREE_CAP:
                    raise ConfigurationError(
                        f"entry ({i},{j}) degree {entry.degree} exceeds cap "
                        f"{defaults.DEGREE_CAP}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "box", box)
        object.__setattr__(self, "matrix", tuple(tuple(row) for row in matrix))
        object.__setattr__(self, "_nijenhuis_plan", None)       # _slot_plan

    def __setattr__(self, name, value):
        raise AttributeError("ACStructure is immutable")

    @property
    def real_dim(self):
        return 2 * self.n


def eval_j(structure, points):
    """J at a batch (P, 2n), real (P, 2n, 2n), for the readers of all of J:
    its nonzero entries evaluated among zeros, refused before it is
    allocated over ``check_entries``'s cap and by ``refuse_non_finite``."""
    pts = np.asarray(points, dtype=float)
    size = structure.real_dim
    check_entries(len(pts) * size * size, "J at {} points of a structure "
                  "with n = {}", len(pts), structure.n)
    out = np.zeros((len(pts), size, size))
    for (k, a), e in _nonzero(structure):
        out[:, k, a] = e.evaluate(pts)
    refuse_non_finite("J", pts, out.reshape(len(pts), -1).T)
    return out


def _nonzero(structure):
    """J's nonzero entries, ((k, a), J_{ka}), row by row."""
    return [((k, a), e) for k, row in enumerate(structure.matrix)
            for a, e in enumerate(row) if not e.is_zero]


def j_entries(structure, points):
    """J's nonzero entries at a batch (P, 2n), {(k, a): J_{ka}}, by
    ``_read``: the one reader of J's entries for the sparse contractions."""
    return _read(_nonzero(structure), points, "J")


def _read(polys, points, what):
    """The nonzero ones of ``polys``, (key, real polynomial) pairs, at a
    batch (P, d): {key: (P,) array, or a constant's float coefficient, the
    value ``evaluate`` gives everywhere}, refused by ``refuse_non_finite``."""
    pts = np.asarray(points, dtype=float)
    out = {key: p.evaluate(pts) if p.degree else next(iter(p.terms.values())).real
           for key, p in polys if not p.is_zero}
    refuse_non_finite(what, pts, out.values())
    return out


def refuse_non_finite(what, pts, values):
    """Raise NumericalError at the first of the points ``pts`` where one of
    ``values``, each a float or a (P,) array over the points, is not finite."""
    finite = np.ones(len(pts), dtype=bool)
    for value in values:
        finite &= np.isfinite(value)
    if not finite.all():
        raise NumericalError(f"{what} is not finite at point "
                             f"{tuple(map(float, pts[np.argmin(finite)]))}")


def keep(kept, slot, key, make):
    """The value ``kept`` holds in ``slot`` if it was made under ``key``;
    otherwise ``make()``, kept there under ``key``.  The old value is freed
    before the new one is made, and a ``make`` that raises leaves the slot
    empty."""
    if slot not in kept or kept[slot][0] != key:
        kept.pop(slot, None)
        kept[slot] = (key, make())
    return kept[slot][1]


class Sample:
    """A point batch of one structure, and what was evaluated on it, in
    ``kept`` (see ``keep``): J, real as ``eval_j`` returns it, for the
    readers of all of J, and what the chart functions keep there."""

    def __init__(self, structure, points):
        self.structure = structure
        self.points = np.asarray(points, dtype=float)
        self.kept = {}

    @property
    def j(self):
        """J at the points, real (P, 2n, 2n)."""
        return keep(self.kept, "j", None, lambda: eval_j(
            self.structure, self.points))


def lattice_sample(lattices, structure, box, grid_k):
    """The ``Sample`` of the box's lattice at density grid_k, kept in the
    holder ``lattices`` until a call asks for another structure, box or
    density; without a holder, a fresh one.  One sample serves a run's
    tasks, whose uses of a lattice follow one another."""
    # The sample holds the structure, so its id is not reused meanwhile;
    # the bound bytes tell 0.0 from -0.0, which give different points.
    key = (id(structure), np.array(box.lo + box.hi).tobytes(), int(grid_k))
    return keep({} if lattices is None else lattices, "lattice", key,
                lambda: Sample(structure, box.lattice(grid_k)))


def standard_structure(n, box=None):
    """The flat structure: each adjacent pair (x^{2j-1}, x^{2j}) is one z^j."""
    if box is None:
        box = Box((-1.0,) * (2 * n), (1.0,) * (2 * n))
    size = 2 * n
    matrix = [[Polynomial.zero(size) for _ in range(size)] for _ in range(size)]
    for j in range(n):
        matrix[2 * j + 1][2 * j] = Polynomial.constant(size, 1.0)
        matrix[2 * j][2 * j + 1] = Polynomial.constant(size, -1.0)
    return ACStructure(n, box, matrix)


def acs_residual(structure, j):
    """max |J^2 + I| over a batch, from J's nonzero entries there, finite,
    as ``j_entries`` reads them.

    Each entry of J^2 is contracted component-major, by ``nijenhuis``'s
    rule: a sum from zero over ascending k of only the products of two
    entries in ``j``, then I added.  A skipped product of finite values is
    an exact zero, so the maximum has the bits of the dense contraction.
    """
    size = structure.real_dim
    worst = []
    for i, a in itertools.product(range(size), repeat=2):
        entry = 0.0
        for k in range(size):
            if (i, k) in j and (k, a) in j:
                entry = entry + j[i, k] * j[k, a]
        if i == a:
            entry = entry + 1.0
        worst.append(np.max(np.abs(entry)))
    return float(np.max(worst))


def check_acs(structure, grid_k=defaults.GRID_PER_AXIS, tol=defaults.TOL_ACS):
    """Verify J(p)^2 = -I over a lattice; metric is the worst max-norm
    defect, ``acs_residual``.  Refused before J is read where the lattice
    and J's non-constant entries on it are over ``check_entries``'s cap."""
    pts = structure.box.lattice(grid_k)
    arrays = structure.real_dim + sum(e.degree > 0 for _, e in _nonzero(structure))
    check_entries(len(pts) * arrays, "the J^2 = -I check at {} points of a "
                  "structure with n = {}", len(pts), structure.n)
    return make_report(
        task="check_acs",
        metrics={"acs_residual": acs_residual(structure, j_entries(structure, pts)),
                 "grid_points": float(len(pts))},
        tolerances={"acs_residual": tol},
    )


@dataclass
class SplitTypeResult:
    """Pointwise splitting of C^{2n} into the i and -i eigenspaces of J."""

    dims: tuple                 # (dim of i-eigenspace, dim of -i-eigenspace)
    eigen_residual: float       # worst |J P - i P| over all points
    points: np.ndarray
    j: np.ndarray               # J at the points

    @cached_property
    def projector(self):
        """(P, 2n, 2n) complex, (I - iJ)/2 at each point, built when read."""
        return (np.eye(self.j.shape[-1]) - 1j * self.j) / 2


def numerical_rank(sigma, svd_rel_tol):
    """Count of singular values above the rank cutoff, over the last axis.

    ``sigma`` is sorted in descending order along that axis, as
    ``np.linalg.svd`` returns it.  The cutoff is ``svd_rel_tol`` times the
    largest singular value, or ``svd_rel_tol`` itself when that is not
    positive.
    """
    lead = sigma[..., :1]
    cutoff = np.where(lead > 0, svd_rel_tol * lead, svd_rel_tol)
    return (sigma > cutoff).sum(axis=-1)


def split_type(structure, points, svd_rel_tol=defaults.SVD_REL_TOL, *,
               _lattices=None):
    """Split C^{2n} into the i and -i eigenspaces of J at each point.

    Where J^2 = -I, P = (I - iJ)/2 is the projector onto the i eigenspace,
    the (1,0) bundle, along the -i eigenspace; the complementary projector
    I - P is conj(P).  The singular values of the stacked J - iI, one SVD
    without factors at the ``distinct_points`` of J's nonzero entries, give
    the dimension of the i eigenspace; J is real, so the -i eigenspace is
    its conjugate, of the same dimension.  Raises DegenerateStructureError
    at the first point where it is not n.
    ``eigen_residual`` is the largest |J P - i P|, which is |J^2 + I| / 2:
    half ``acs_residual`` of J's nonzero entries, read from J.  A run's
    holder ``_lattices`` lends its sample, J included, when it is of this
    structure at this very points array."""
    pts = np.asarray(points, dtype=float)
    n, size = structure.n, structure.real_dim
    _, sample = (_lattices or {}).get("lattice", (None, None))
    if (sample is None or sample.structure is not structure
            or sample.points is not pts):
        sample = Sample(structure, pts)
    j, nonzero = sample.j, _nonzero(structure)
    first, inverse = distinct_points(pts, [e for _, e in nonzero])
    sigma = np.linalg.svd(j[first] - 1j * np.eye(size), compute_uv=False)
    dims = (size - numerical_rank(sigma, svd_rel_tol))[inverse]
    bad = np.flatnonzero(dims != n)
    if bad.size:
        p = bad[0]
        raise DegenerateStructureError(
            f"eigenspace dimensions ({dims[p]}, {dims[p]}) != ({n}, {n}) "
            f"at point {tuple(map(float, pts[p]))}")
    entries = {(k, a): j[:, k, a] for (k, a), _ in nonzero}
    return SplitTypeResult(dims=(n, n), points=pts, j=j,
                           eigen_residual=acs_residual(structure, entries) / 2)


def _nijenhuis_slots(structure):
    """Each slot (i, a, b), a <= b, of ``nijenhuis`` with a product term, from
    J's sparsity alone, with the keys of the factors of h[i, a, b] and of
    h[i, b, a] (one h where a = b), per sum by ascending k."""
    m, size = structure.matrix, structure.real_dim
    keys = [(k, i, b) for i, row in enumerate(m) for k in range(size)
            for b, entry in enumerate(row) if not entry.partials()[k].is_zero]
    sums = collections.defaultdict(lambda: ([], []))
    for (k, i, b), c in itertools.product(keys, range(size)):     # d_k J_{ib}
        if not m[k][c].is_zero:         # J_{kc} d_k J_{ib}, in h[i, c, b]
            sums[i, c, b][0].append(((k, c), (k, i, b)))
        if not m[c][i].is_zero:         # J_{ci} d_k J_{ib}, in h[c, b, k]
            sums[c, b, k][1].append(((c, i), (k, i, b)))
    return {(i, a, b): (sums[i, a, b],) if a == b else (sums[i, a, b], sums[i, b, a])
            for i, a, b in sorted({(i, min(a, b), max(a, b)) for i, a, b in sums})}


def _slot_plan(structure):
    """``_nijenhuis_slots``, built on first use and kept on the structure."""
    if structure._nijenhuis_plan is None:
        object.__setattr__(structure, "_nijenhuis_plan", _nijenhuis_slots(structure))
    return structure._nijenhuis_plan


def nijenhuis_arrays(structure):
    """The (P,) arrays ``nijenhuis`` holds: J's non-constant entries and
    partials, and its kept slots, counted from J's sparsity alone."""
    polys = [p for row in structure.matrix for e in row if not e.is_zero
             for p in (e,) + e.partials() if not p.is_zero]
    return sum(p.degree > 0 for p in polys) + len(_slot_plan(structure))


def nijenhuis(structure, points):
    """Nijenhuis tensor on coordinate fields, exact derivatives throughout.

    Returns {(i, a, b): N[:, i, a, b]} over a <= b at a batch (P, 2n), for
    each component i of N(d/dx^a, d/dx^b) with a product term.  With

        h[i, a, b] = sum_k J_{ka} d_k J_{ib} + sum_k J_{ik} d_b J_{ka},

    N[i, a, b] = h[i, a, b] - h[i, b, a]; the omitted components are 0, and
    N[i, a, a] = h - h is kept, NaN where h overflows.  Each sum adds, from
    zero over ascending k, only the products whose J entry and partial are
    nonzero polynomials; a skipped product of finite values is an exact
    zero, so N has the bits of the full contraction.  J's entries and
    partials are read by ``_read``; each kept component is (P,), even of
    constants alone.  Raises NumericalError where J, then a nonzero partial,
    is not finite (a skipped product would hide it), and ConfigurationError
    where ``nijenhuis_arrays`` at the points is over ``check_entries``'s cap.
    """
    pts, m = np.asarray(points, dtype=float), structure.matrix
    check_entries(len(pts) * nijenhuis_arrays(structure), "the Nijenhuis tensor "
                  "at {} points of a structure with n = {}", len(pts), structure.n)

    j = j_entries(structure, pts)                                   # J_{ka}
    dj = _read([((k, i, b), p) for i, row in enumerate(m)           # d_k J_{ib}
                for b, e in enumerate(row) for k, p in enumerate(e.partials())],
               pts, "a partial of J")

    def total(products):    # from zero over ascending k
        h = 0.0
        for entry, partial in products:
            h = h + j[entry] * dj[partial]
        return h

    out = {}
    for slot, halves in _slot_plan(structure).items():
        h = [total(first) + total(second) for first, second in halves]
        value = h[0] - h[-1]
        out[slot] = value if np.ndim(value) else np.full(len(pts), value)
    return out


def integrability_report(structure, grid_k=defaults.GRID_PER_AXIS,
                         tol=defaults.TOL_INTEGRABILITY):
    """Largest Nijenhuis component over a lattice, compared against ``tol``:
    ``np.max`` over ``nijenhuis``'s components, which keeps a NaN."""
    pts = structure.box.lattice(grid_k)
    residual = float(np.max([np.max(np.abs(c)) for c in nijenhuis(
        structure, pts).values()], initial=0.0))
    return make_report(
        task="integrability",
        metrics={"integrability_residual": residual, "grid_points": float(len(pts))},
        tolerances={"integrability_residual": tol},
    )
