"""Almost complex structures on coordinate boxes.

A structure is a polynomial matrix field J on a closed box in R^{2n} with
J(p)^2 = -I.  The complex coordinate pairing is adjacent: z^j corresponds to
(x^{2j-1}, x^{2j}), and the standard structure sends d/dx^{2j-1} to
d/dx^{2j}.  Matrices act on columns: column j of J(p) is the image of the
j-th coordinate field.
"""
from __future__ import annotations

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

    __slots__ = ("n", "box", "matrix")

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

    def __setattr__(self, name, value):
        raise AttributeError("ACStructure is immutable")

    @property
    def real_dim(self):
        return 2 * self.n


def eval_j(structure, points):
    """Evaluate J at a batch (P, 2n); real output (P, 2n, 2n).  Every J
    reader takes J from here: one over ``check_entries``'s cap is refused
    before it is allocated, one that is not finite at its first such point."""
    pts = np.asarray(points, dtype=float)
    size = structure.real_dim
    check_entries(len(pts) * size * size, "J at {} points of a structure "
                  "with n = {}", len(pts), structure.n)
    out = np.empty((len(pts), size, size))
    for i in range(size):
        for j in range(size):
            out[:, i, j] = structure.matrix[i][j].evaluate(pts)
    finite = np.isfinite(out).all(axis=(1, 2))
    if not finite.all():
        raise NumericalError(
            f"J is not finite at point {tuple(map(float, pts[np.argmin(finite)]))}")
    return out


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
    ``kept`` (see ``keep``): J, real as ``eval_j`` returns it, and its ACS
    residual for the sample's life, and what the chart functions keep
    there.
    """

    def __init__(self, structure, points):
        self.structure = structure
        self.points = np.asarray(points, dtype=float)
        self.kept = {}

    @property
    def j(self):
        """J at the points, real (P, 2n, 2n)."""
        return keep(self.kept, "j", None, lambda: eval_j(
            self.structure, self.points))

    @property
    def acs_residual(self):
        """max |J^2 + I| over the points, ``acs_residual``."""
        return keep(self.kept, "acs", None, lambda: acs_residual(
            self.structure, self.j))


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


def _sample_at(lattices, structure, points):
    """The holder's sample if it is of ``structure`` at this very
    ``points`` array, else a fresh ``Sample`` of the points."""
    _, sample = (lattices or {}).get("lattice", (None, None))
    if (sample is None or sample.structure is not structure
            or sample.points is not points):
        sample = Sample(structure, points)
    return sample


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
    """max |J^2 + I| over a batch, from J at it, (P, 2n, 2n) real and
    finite, as ``eval_j`` returns it.

    Each entry of J^2 is contracted component-major, by ``nijenhuis``'s
    rule: a sum from zero over ascending k of only the products of two
    nonzero polynomial entries, then I added.  A skipped product of
    finite values is an exact zero, so the maximum has the bits of the
    dense contraction.
    """
    m, size = structure.matrix, structure.real_dim
    j = np.ascontiguousarray(j.transpose(1, 2, 0))
    worst = []
    for i, a in itertools.product(range(size), repeat=2):
        entry = 0.0
        for k in range(size):
            if not (m[i][k].is_zero or m[k][a].is_zero):
                entry = entry + j[i, k] * j[k, a]
        if i == a:
            entry = entry + 1.0
        worst.append(np.max(np.abs(entry)))
    return float(np.max(worst))


def check_acs(structure, grid_k=defaults.GRID_PER_AXIS, tol=defaults.TOL_ACS,
              *, _lattices=None):
    """Verify J(p)^2 = -I over a lattice; metric is the worst max-norm
    defect, ``acs_residual``.  A run passes its holder as ``_lattices``
    (``lattice_sample``)."""
    sample = lattice_sample(_lattices, structure, structure.box, grid_k)
    return make_report(
        task="check_acs",
        metrics={"acs_residual": sample.acs_residual,
                 "grid_points": float(len(sample.points))},
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
    without factors, give the dimension of the i eigenspace; J is real, so
    the -i eigenspace is its conjugate, of the same dimension.  Raises
    DegenerateStructureError at the first point where it is not n.
    ``eigen_residual`` is the largest |J P - i P|, which is |J^2 + I| / 2:
    half ``acs_residual``.  The holder ``_lattices`` of a run lends its
    sample, and with it J and the residual, when the sample is of this
    structure at this very points array.
    """
    pts = np.asarray(points, dtype=float)
    n, size = structure.n, structure.real_dim
    sample = _sample_at(_lattices, structure, pts)
    j = sample.j
    sigma = np.linalg.svd(j - 1j * np.eye(size), compute_uv=False)
    dims = size - numerical_rank(sigma, svd_rel_tol)
    bad = np.flatnonzero(dims != n)
    if bad.size:
        p = bad[0]
        raise DegenerateStructureError(
            f"eigenspace dimensions ({dims[p]}, {dims[p]}) != ({n}, {n}) "
            f"at point {tuple(map(float, pts[p]))}")
    return SplitTypeResult(dims=(n, n), eigen_residual=sample.acs_residual / 2,
                           points=pts, j=j)


def nijenhuis(structure, points, *, _lattices=None):
    """Nijenhuis tensor on coordinate fields, exact derivatives throughout.

    Returns {(i, a, b): N[:, i, a, b]} over a <= b at a batch (P, 2n), for
    each component i of N(d/dx^a, d/dx^b) with a product term.  With

        h[i, a, b] = sum_k J_{ka} d_k J_{ib} + sum_k J_{ik} d_b J_{ka},

    N[i, a, b] = h[i, a, b] - h[i, b, a]; the omitted components are 0, and
    N[i, a, a] = h - h is kept, NaN where h overflows.  Each sum adds, from
    zero over ascending k, only the products whose J entry and partial are
    nonzero polynomials; a skipped product of finite values is an exact
    zero, so N has the bits of the full contraction.  A constant partial
    enters as its float coefficient, the value ``evaluate`` gives at every
    point, so each product keeps its bits and each component is (P,).
    Raises NumericalError where a nonzero partial is not finite, which a
    skipped product would hide, and ConfigurationError where the dense
    tensor is over ``check_entries``'s cap: it is counted, never built.

    Only the columns J_{ka} of nonzero entries are kept, copied from J.
    J is read from the holder ``_lattices`` by ``split_type``'s rule when
    its sample already keeps it; otherwise it is evaluated here and freed
    without filling the sample: J is kept by the readers that use all of
    it, and a later one on the same lattice evaluates it again.
    """
    pts = np.asarray(points, dtype=float)
    size, m = structure.real_dim, structure.matrix
    check_entries(len(pts) * size ** 3, "the Nijenhuis tensor at {} points "
                  "of a structure with n = {}", len(pts), structure.n)
    sample = _sample_at(_lattices, structure, pts)
    j = sample.j if "j" in sample.kept else eval_j(structure, pts)
    rows = {(k, a): np.ascontiguousarray(j[:, k, a]) for k, a in  # J_{ka}
            itertools.product(range(size), repeat=2) if not m[k][a].is_zero}
    del j

    def values(partial):    # a constant as its one coefficient, real in J
        if partial.degree:
            return partial.evaluate(pts)
        c, = partial.terms.values()
        return c.real

    dj = {(k, i, b): values(partial)                        # d_k J_{ib}
          for i, row in enumerate(m) for b, entry in enumerate(row)
          for k, partial in enumerate(entry.partials()) if not partial.is_zero}
    finite = np.ones(len(pts), dtype=bool)
    for value in dj.values():
        finite &= np.isfinite(value)
    if not np.all(finite):
        raise NumericalError(
            "a partial of J is not finite at point "
            f"{tuple(map(float, pts[np.argmin(finite)]))}")

    def half(i, a, b):      # h[i, a, b]; the float 0.0 without a product
        h1 = h2 = 0.0
        for k in range(size):
            if (k, a) in rows and (k, i, b) in dj:
                h1 = h1 + rows[k, a] * dj[k, i, b]
            if (i, k) in rows and (b, k, a) in dj:
                h2 = h2 + rows[i, k] * dj[b, k, a]
        return h1 + h2

    out = {}
    for i, a in itertools.product(range(size), repeat=2):
        for b in range(a, size):
            h_ab = half(i, a, b)
            h_ba = h_ab if a == b else half(i, b, a)
            if np.ndim(h_ab) or np.ndim(h_ba):
                out[i, a, b] = h_ab - h_ba
    return out


def integrability_report(structure, grid_k=defaults.GRID_PER_AXIS,
                         tol=defaults.TOL_INTEGRABILITY, *, _lattices=None):
    """Largest Nijenhuis component over a lattice, compared against ``tol``.

    The maximum is ``np.max`` over ``nijenhuis``'s components, which keeps
    a NaN.  A run passes its holder as ``_lattices`` (``lattice_sample``).
    """
    pts = lattice_sample(_lattices, structure, structure.box, grid_k).points
    residual = float(np.max([np.max(np.abs(c)) for c in nijenhuis(
        structure, pts, _lattices=_lattices).values()], initial=0.0))
    return make_report(
        task="integrability",
        metrics={"integrability_residual": residual, "grid_points": float(len(pts))},
        tolerances={"integrability_residual": tol},
    )
