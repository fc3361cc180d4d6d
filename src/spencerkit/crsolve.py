"""Almost-holomorphic functions: residuals, polynomial solving, type estimates.

A scalar function f is almost holomorphic for a structure J when the pulled
back differential satisfies J* df = i df; equivalently, writing f = u + i v,
the real pair du o J + dv = 0 and dv o J - du = 0 holds.  The solver looks
for all polynomial solutions up to a degree as the numerical nullspace of the
exact linear map the CR operator induces between coefficient spaces (J is
polynomial, so no sampling is involved), and the type estimate counts how many
functionally independent solutions exist.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from . import defaults
from .errors import ConfigurationError, NumericalError
from .jfield import Sample, eval_j, lattice_sample, numerical_rank
from .poly import Polynomial, monomials_upto, real_jacobian
from .report import make_report


def cr_residual(structure, fields, points):
    """Max-norm of J* df - i df over a batch of points or a ``Sample`` of
    ``structure``, one float per field.

    J is evaluated once for all fields and stays real: each field's Re and
    Im rows (``poly.real_jacobian``) are contracted with it into the parts
    of one complex buffer, with the bits of the complex contraction.  On a
    batch the rows are taken one field at a time, so memory does not grow
    with the field count; a Sample keeps those of the fields last asked for.
    """
    if isinstance(points, Sample):
        if points.structure is not structure:
            raise ConfigurationError("the sample belongs to another structure")
        j, kept = points.j, points.jacobian_rows(fields)
        per_field = (kept[:, 2 * f:2 * f + 2] for f in range(len(fields)))
    else:
        j = eval_j(structure, points)
        per_field = (real_jacobian([f], points) for f in fields)
    defect = np.empty(j.shape[:2], dtype=complex)
    residuals = []
    for rows in per_field:
        np.einsum("pi,pij->pj", rows[:, 0], j, out=defect.real)
        np.einsum("pi,pij->pj", rows[:, 1], j, out=defect.imag)
        defect.real += rows[:, 1]
        defect.imag -= rows[:, 0]
        residuals.append(float(np.max(np.abs(defect))))
    return residuals


def cr_equations_check(structure, field, grid_k=defaults.GRID_PER_AXIS,
                       tol=defaults.TOL_CR, *, _lattices=None):
    """Report on almost-holomorphicity of one scalar function.  A run
    passes its holder as ``_lattices`` (``jfield.lattice_sample``)."""
    sample = lattice_sample(_lattices, structure, structure.box, grid_k)
    residual, = cr_residual(structure, [field], sample)
    return make_report(
        task="cr_check",
        metrics={"cr_residual": residual,
                 "grid_points": float(len(sample.points))},
        tolerances={"cr_residual": tol},
    )


# ---------------------------------------------------------------------------
# polynomial solver
# ---------------------------------------------------------------------------

@dataclass
class AHSolutionSet:
    """Canonical basis of polynomial almost-holomorphic solutions."""

    degree: int
    monomials: tuple            # exponent tuples, graded order; no constant
    coefficients: np.ndarray    # (nullity, len(monomials)) complex, reduced rows
    fields: tuple               # Polynomial per row of ``coefficients``
    residual: float             # worst bound of the CR defect on the box / |c|_inf
    singular_values: np.ndarray
    svd_rel_tol: float

    @property
    def nullity(self):
        return len(self.fields)


def _cr_system_matrix(structure, monomials):
    """Exact coefficient map of f -> sum_i d_i f J_ij - i d_j f.

    Each monomial of the ansatz gives one column; the rows are (component j,
    output monomial e), sorted by (j, monomial_key(e)).  Returns the matrix
    and the key of each row kept, as an integer array of rows (j, *e).
    A polynomial that vanishes on the box vanishes identically, so the
    nullspace is that of the CR operator on the box, whatever the box.

    The monomial x^e contributes -i e_j at (j, e - u_j) and, for each i and
    each term c x^t of J_ij, e_i c at (j, e - u_i + t).  The contributions
    are gathered for all columns from exponent arrays, a row of J at a time,
    and summed into each entry in one fixed order: the -i e_j term first,
    then i ascending, each J_ij in its term order.  Rows whose entries all
    cancel are dropped.
    """
    size = structure.real_dim
    exps = np.array(monomials, dtype=np.int64).reshape(len(monomials), size)
    shifts = np.eye(size, dtype=np.int64)
    comps, targets, cols, values = [], [], [], []

    def gather(axis, terms):     # a block per term (j, t, c), in order
        if not terms:
            return
        js, offsets, coefs = (np.array(v) for v in zip(*terms))
        live = np.flatnonzero(exps[:, axis])
        comps.append(np.repeat(js, len(live)))
        targets.append((exps[live] - shifts[axis] + offsets[:, None]).reshape(-1, size))
        cols.append(np.tile(live, len(js)))
        values.append((exps[live, axis].astype(complex) * coefs[:, None]).ravel())

    for j in range(size):
        gather(j, [(j, (0,) * size, -1j)])
    for i, row in enumerate(structure.matrix):
        gather(i, [(j, t, coef) for j, entry in enumerate(row)
                   for t, coef in entry.terms.items()])
    targets = np.concatenate(targets)
    keys = np.column_stack([np.concatenate(comps), targets.sum(axis=1), targets])
    keys, rows = np.unique(keys, axis=0, return_inverse=True)
    a = np.zeros((len(keys), len(monomials)), dtype=complex)
    np.add.at(a, (rows.ravel(), np.concatenate(cols)), np.concatenate(values))
    kept = np.any(a != 0, axis=1)
    return a[kept], np.delete(keys[kept], 1, axis=1)


def _defect_bound(a, keys, coefficients, box):
    """Per field, a row c of ``coefficients``: a bound of its CR defect
    max |J* df - i df| over the box, and the bound's scale.

    The defect of the field is the polynomial with coefficients A c, keyed
    by (component j, monomial e).  On the box |x^e| <= r^e with
    r_k = max(|lo_k|, |hi_k|), so the largest component is at most
    max_j sum_e |(A c)_{j,e}| r^e, up to rounding.  The scale is the same
    sum over |A| |c|, the size of the terms whose cancellation leaves the
    defect: eps times it is one rounding unit of the bound, and of a
    sampled residual.
    """
    radius = np.maximum(np.abs(box.lo), np.abs(box.hi))
    weights = np.prod(radius ** keys[:, 1:], axis=1)

    def sup(terms):
        per_component = np.zeros((box.dim, len(coefficients)))
        np.add.at(per_component, keys[:, 0], terms * weights[:, None])
        return np.max(per_component, axis=0)

    return (sup(np.abs(a @ coefficients.T)),
            sup(np.abs(a) @ np.abs(coefficients).T))


def cr_defect_bound(structure, fields, box):
    """``_defect_bound`` of each field over a box, as arrays (bound,
    scale), from the exact coefficient map of the fields' monomials:
    nothing is sampled and J is not evaluated."""
    monomials = tuple(dict.fromkeys(e for f in fields for e in f.terms))
    a, keys = _cr_system_matrix(structure, monomials)
    coefficients = np.array([[f.terms.get(e, 0) for e in monomials]
                             for f in fields], dtype=complex)
    return _defect_bound(a, keys, coefficients, box)


def _reduce_rows(rows, monomials, pivot_tol):
    """Deterministic reduced form of a nullspace basis.

    Pivots are chosen scanning monomial positions in graded order, taking the
    row with the largest entry at each position; an entry at or below
    ``pivot_tol`` is no pivot.  Pivots are normalized to a unit leading
    coefficient and eliminated from every other row.  Each position takes at
    most one pivot, so the rows come out in the order of their pivots.  Real
    and imaginary parts at or below the snap are set to zero, so bases are
    reproducible; an entry whose modulus is at or below it loses both.
    """
    remaining = [r / np.max(np.abs(r)) for r in rows]
    reduced = []
    for pos in range(len(monomials)):
        if not remaining:
            break
        scores = [abs(r[pos]) for r in remaining]
        best = int(np.argmax(scores))
        if scores[best] <= pivot_tol:
            continue
        row = remaining.pop(best)
        row = row / row[pos]
        for other in reduced:
            other -= other[pos] * row
        remaining = [r - r[pos] * row for r in remaining]
        reduced.append(row)
    for row in reduced:
        snap = defaults.REDUCE_SNAP_TOL * np.max(np.abs(row))
        row.real[np.abs(row.real) <= snap] = 0.0
        row.imag[np.abs(row.imag) <= snap] = 0.0
    return reduced


def solve_ah_polynomials(structure, degree, *,
                         svd_rel_tol=defaults.SVD_REL_TOL):
    """All polynomial almost-holomorphic functions up to total degree.

    Constants are trivially almost holomorphic and are excluded from the
    ansatz.  Nothing is sampled: the residual is the worst
    ``_defect_bound`` over the basis, from the coefficient map itself,
    relative to each field's largest coefficient.
    """
    if not 1 <= degree <= defaults.DEGREE_CAP:
        raise ConfigurationError(
            f"solver degree {degree} outside 1..{defaults.DEGREE_CAP}")
    size = structure.real_dim
    monomials = tuple(monomials_upto(size, degree))
    a, keys = _cr_system_matrix(structure, monomials)
    try:
        _, sigma, vh = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD of the CR system failed: {exc}") from exc
    if not np.all(np.isfinite(sigma)):
        raise NumericalError("CR system produced non-finite singular values")
    rank = int(numerical_rank(sigma, svd_rel_tol))
    # The kernel rows are accurate to about eps * sigma_1 / sigma_rank
    # (Wedin), so a smaller pivot would divide by noise.
    gap = sigma[0] / sigma[rank - 1] if rank else 1.0
    pivot_tol = max(defaults.REDUCE_PIVOT_TOL,
                    defaults.REDUCE_GAP_FACTOR * np.finfo(float).eps * gap)
    reduced = _reduce_rows([np.conj(v) for v in vh[rank:]], monomials,
                           pivot_tol)
    coeffs = (np.array(reduced) if reduced
              else np.zeros((0, len(monomials)), dtype=complex))
    fields = tuple(
        Polynomial(size, dict(zip(monomials, row))) for row in coeffs)
    bound, _ = _defect_bound(a, keys, coeffs, structure.box)
    residual = float(max(bound / np.max(np.abs(coeffs), axis=1), default=0.0))
    return AHSolutionSet(
        degree=int(degree),
        monomials=monomials,
        coefficients=coeffs,
        fields=fields,
        residual=residual,
        singular_values=sigma,
        svd_rel_tol=float(svd_rel_tol),
    )


# ---------------------------------------------------------------------------
# functional independence and the type estimate
# ---------------------------------------------------------------------------

def independence_rank(rows, svd_rel_tol=defaults.SVD_REL_TOL):
    """Largest pointwise rank of stacked real Jacobian rows (P, 2m, 2n).

    Each complex function contributes two real rows (real and imaginary part
    of its gradient, see ``poly.real_jacobian``); the returned rank is the
    maximum over the sample points, so it counts functions that are
    independent somewhere.  When the first point already has full rank no
    point can exceed it, and the other points are not decomposed.  The
    stacked SVD works matrix by matrix, so this gives the same integer as
    one SVD of every point.  Raises NumericalError on non-finite rows.
    """
    if not np.all(np.isfinite(rows)):
        raise NumericalError("field gradients are not all finite on the points")
    rank = int(numerical_rank(
        np.linalg.svd(rows[:1], compute_uv=False), svd_rel_tol)[0])
    if rank == min(rows.shape[1:]) or len(rows) == 1:
        return rank
    sigma = np.linalg.svd(rows[1:], compute_uv=False)
    return max(rank, int(np.max(numerical_rank(sigma, svd_rel_tol))))


@dataclass
class TypeEstimate:
    """Greedy count of independent almost-holomorphic coordinates."""

    m: int
    selected: tuple             # Polynomial fields realizing the count
    rank_evidence: int          # real Jacobian rank achieved by the selection
    notes: list = dc_field(default_factory=list)


def estimate_spencer_type(structure, solution,
                          svd_rel_tol=defaults.SVD_REL_TOL):
    """Estimate the number of independent almost-holomorphic coordinates.

    Greedily keeps the canonical basis fields of ``solution`` (an
    ``AHSolutionSet`` of ``structure``) while each one raises the real
    Jacobian rank by two at some point of ``Box.generic_points``, where
    polynomial fields attain their generic rank.  At most the complex
    dimension n: the rank of rows with 2n columns is at most 2n, and the
    search stops there.
    """
    pts = structure.box.generic_points()
    notes = [f"solution space dimension {solution.nullity} at degree {solution.degree}"]
    selected = []
    rows = np.zeros((len(pts), 0, structure.real_dim))
    rank = 0
    for candidate in solution.fields:
        if rank >= 2 * structure.n:
            break
        trial_rows = np.concatenate(
            [rows, real_jacobian([candidate], pts)], axis=1)
        trial = independence_rank(trial_rows, svd_rel_tol)
        gain = trial - rank
        if gain == 2:
            selected.append(candidate)
            rows = trial_rows
            rank = trial
        elif gain > 0:
            notes.append(
                f"candidate raised the Jacobian rank by {gain}; skipped as "
                f"numerically marginal")
    return TypeEstimate(
        m=len(selected),
        selected=tuple(selected),
        rank_evidence=rank,
        notes=notes,
    )
