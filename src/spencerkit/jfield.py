"""Almost complex structures on coordinate boxes.

A structure is a polynomial matrix field J on a closed box in R^{2n} with
J(p)^2 = -I.  The complex coordinate pairing is adjacent: z^j corresponds to
(x^{2j-1}, x^{2j}), and the standard structure sends d/dx^{2j-1} to
d/dx^{2j}.  Matrices act on columns: column j of J(p) is the image of the
j-th coordinate field.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import defaults
from .errors import ConfigurationError, DegenerateStructureError, DomainError
from .poly import Polynomial
from .report import make_report


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
    """Evaluate J at a batch (P, 2n); real output (P, 2n, 2n)."""
    pts = np.asarray(points, dtype=float)
    size = structure.real_dim
    out = np.empty((len(pts), size, size))
    for i in range(size):
        for j in range(size):
            out[:, i, j] = structure.matrix[i][j].evaluate(pts)
    return out


def eval_j_derivatives(structure, points):
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


def check_acs(structure, grid_k=defaults.GRID_PER_AXIS, tol=defaults.TOL_ACS):
    """Verify J(p)^2 = -I over a lattice; metric is the worst max-norm defect."""
    pts = structure.box.lattice(grid_k)
    j = eval_j(structure, pts)
    eye = np.eye(structure.real_dim)
    defect = np.einsum("pik,pkj->pij", j, j) + eye
    residual = float(np.max(np.abs(defect)))
    return make_report(
        task="check_acs",
        metrics={"acs_residual": residual, "grid_points": float(len(pts))},
        tolerances={"acs_residual": tol},
    )


@dataclass
class SplitTypeResult:
    """Pointwise eigenspace splitting of J into i and -i parts."""

    dims: tuple                 # (dim of i-eigenspace, dim of -i-eigenspace)
    eigen_residual: float       # worst |J v -/+ i v| over all basis vectors
    bases_plus: np.ndarray      # (P, n, 2n) complex, rows are basis vectors
    bases_minus: np.ndarray     # (P, n, 2n)
    points: np.ndarray


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


def _canonical_bases(vh):
    """Canonical kernel bases from stacked SVD rows ``vh`` (P, k, 2n).

    Each vector is scaled to unit max-norm and its first component above
    ``defaults.PHASE_THRESHOLD`` is rotated to the positive real axis; each
    point's vectors are then sorted by their components rounded to 9 digits.
    Magnitudes that decide a phase come from ``np.hypot``, which gives the
    bits of the scalar ``abs``; ``np.abs`` over a complex array does not.
    """
    v = np.conj(vh)
    v = v / np.max(np.abs(v), axis=-1, keepdims=True)
    first = np.argmax(np.hypot(v.real, v.imag) > defaults.PHASE_THRESHOLD, axis=-1)
    lead = np.take_along_axis(v, first[..., None], axis=-1)
    v = v * (np.hypot(lead.real, lead.imag) / lead)
    count, k, size = v.shape
    flat = v.reshape(count * k, size)
    # lexsort reads its last key first: the point, then the rounded real and
    # imaginary parts of component 0, component 1 and so on.
    keys = np.round(flat.view(float), 9).T[::-1]
    order = np.lexsort(np.vstack([keys, np.repeat(np.arange(count), k)]))
    return flat[order].reshape(count, k, size)


def split_type(structure, points, svd_rel_tol=defaults.SVD_REL_TOL):
    """Split C^{2n} into the i and -i eigenspaces of J at each point.

    Raises DegenerateStructureError unless both spaces have dimension n
    everywhere.  Basis vectors are canonically normalized and sorted, so the
    result is deterministic.  Each eigenspace takes one SVD over the stack
    of all points.
    """
    pts = np.asarray(points, dtype=float)
    n, size = structure.n, structure.real_dim
    j = eval_j(structure, pts).astype(complex)
    dims, kernels = [], []
    for eigenvalue in (1j, -1j):
        _, sigma, vh = np.linalg.svd(j - eigenvalue * np.eye(size))
        dims.append(size - numerical_rank(sigma, svd_rel_tol))
        kernels.append(vh[:, n:])
    bad = np.flatnonzero((dims[0] != n) | (dims[1] != n))
    if bad.size:
        p = bad[0]
        raise DegenerateStructureError(
            f"eigenspace dimensions ({dims[0][p]}, {dims[1][p]}) != ({n}, {n}) "
            f"at point {tuple(map(float, pts[p]))}")
    plus, minus = (_canonical_bases(vh) for vh in kernels)
    res_plus = np.einsum("pij,pkj->pki", j, plus) - 1j * plus
    res_minus = np.einsum("pij,pkj->pki", j, minus) + 1j * minus
    residual = float(max(np.max(np.abs(res_plus)), np.max(np.abs(res_minus))))
    return SplitTypeResult(
        dims=(n, n),
        eigen_residual=residual,
        bases_plus=plus,
        bases_minus=minus,
        points=pts,
    )


def nijenhuis(structure, points):
    """Nijenhuis tensor on coordinate fields, exact derivatives throughout.

    At a batch (P, 2n), returns N with shape (P, 2n, 2n, 2n): N[p, i, a, b]
    is component i of N(d/dx^a, d/dx^b) at point p.  Antisymmetry in (a, b)
    is exact because the two halves are computed once and subtracted.
    """
    j = eval_j(structure, points)
    dj = eval_j_derivatives(structure, points)
    # half[p, i, a, b] = sum_k J_{ka} d_k J_{ib} + sum_k J_{ik} d_b J_{ka}
    half = (np.einsum("pka,pkib->piab", j, dj)
            + np.einsum("pik,pbka->piab", j, dj))
    return half - half.transpose(0, 1, 3, 2)


def integrability_report(structure, grid_k=defaults.GRID_PER_AXIS,
                         tol=defaults.TOL_INTEGRABILITY):
    """Largest Nijenhuis component over a lattice, compared against ``tol``.

    The check passes when the tensor vanishes to tolerance (an integrable
    structure); scenarios that expect obstruction flip the expectation.
    """
    pts = structure.box.lattice(grid_k)
    n_tensor = nijenhuis(structure, pts)
    residual = float(np.max(np.abs(n_tensor)))
    return make_report(
        task="integrability",
        metrics={"integrability_residual": residual, "grid_points": float(len(pts))},
        tolerances={"integrability_residual": tol},
    )
