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
from .jfield import SampleGrid, eval_j, numerical_rank
from .poly import Polynomial, monomial_key, monomials_upto
from .report import make_report


def _cr_defect(grad, j):
    """(J* df - i df) from gradients (P, 2n) and complex J values (P, 2n, 2n)."""
    return np.einsum("pi,pij->pj", grad, j) - 1j * grad


def cr_residual_vectors(structure, field, points):
    """Componentwise defect (J* df - i df)(p) at a batch of points (P, 2n);
    shape (P, 2n), complex."""
    pts = np.asarray(points, dtype=float)
    return _cr_defect(field.gradient(pts), eval_j(structure, pts).astype(complex))


def cr_residual(structure, field, points=None):
    """Max-norm of J* df - i df over a lattice (default grid of the box)."""
    if points is None:
        points = SampleGrid(structure.box).points
    return float(np.max(np.abs(cr_residual_vectors(structure, field, points))))


def cr_real_residual(structure, field, points=None):
    """Max-norm of the real-pair form: du o J + dv and dv o J - du."""
    if points is None:
        points = SampleGrid(structure.box).points
    pts = np.asarray(points, dtype=float)
    grad = field.gradient(pts)
    du = grad.real
    dv = grad.imag
    j = eval_j(structure, pts)
    first = np.einsum("pi,pij->pj", du, j) + dv
    second = np.einsum("pi,pij->pj", dv, j) - du
    return float(max(np.max(np.abs(first)), np.max(np.abs(second))))


def cr_equations_check(structure, field, grid=None, tol=defaults.TOL_CR):
    """Report on almost-holomorphicity of one scalar function.

    Both the complex-form residual and the real-pair residual are recorded;
    the complex form is the gate.  The two agree up to a factor sqrt(2) by
    construction, which the metrics expose for cross-checking.
    """
    if grid is None:
        grid = structure.default_grid()
    complex_res = cr_residual(structure, field, grid.points)
    real_res = cr_real_residual(structure, field, grid.points)
    return make_report(
        task="cr_check",
        metrics={"cr_residual": complex_res, "cr_real_residual": real_res,
                 "grid_points": float(len(grid))},
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
    residual: float             # worst lattice CR defect / |c|_inf over the basis
    singular_values: np.ndarray
    grid_k: int
    svd_rel_tol: float

    @property
    def nullity(self):
        return len(self.fields)


def _cr_system_matrix(structure, monomials):
    """Exact coefficient map of f -> sum_i d_i f J_ij - i d_j f.

    Each monomial of the ansatz gives one column; the rows are (component j,
    output monomial e), sorted by (j, monomial_key(e)).
    A polynomial that vanishes on the box vanishes identically, so the
    nullspace is that of the CR operator on the box, whatever the box.
    """
    size = structure.real_dim
    j_entries = structure.matrix
    images = []
    for exps in monomials:
        grad = [Polynomial(size, {exps: 1.0}).diff(i) for i in range(size)]
        images.append([
            sum((grad[i] * j_entries[i][j] for i in range(size)), -1j * grad[j])
            for j in range(size)])
    keys = sorted({(j, monomial_key(e)) for image in images
                   for j, comp in enumerate(image) for e in comp.terms})
    row_of = {key: r for r, key in enumerate(keys)}
    a = np.zeros((len(keys), len(monomials)), dtype=complex)
    for col, image in enumerate(images):
        for j, comp in enumerate(image):
            for e, coef in comp.terms.items():
                a[row_of[j, monomial_key(e)], col] = coef
    return a


def _reduce_rows(rows, monomials):
    """Deterministic reduced form of a nullspace basis.

    Pivots are chosen scanning monomial positions in graded order, taking the
    row with the largest entry at each position; pivots are normalized to a
    unit leading coefficient and eliminated from every other row.  Small
    coefficients are snapped to zero so bases are reproducible.
    """
    rows = [r / np.max(np.abs(r)) for r in rows]
    reduced = []
    remaining = list(rows)
    pivots = []
    for pos in range(len(monomials)):
        if not remaining:
            break
        scores = [abs(r[pos]) for r in remaining]
        best = int(np.argmax(scores))
        if scores[best] <= defaults.REDUCE_PIVOT_TOL:
            continue
        row = remaining.pop(best)
        row = row / row[pos]
        for other in reduced:
            other -= other[pos] * row
        remaining = [r - r[pos] * row for r in remaining]
        reduced.append(row)
        pivots.append(pos)
    order = np.argsort(pivots)
    out = []
    for idx in order:
        row = reduced[idx].copy()
        snap = defaults.REDUCE_SNAP_TOL * np.max(np.abs(row))
        row[np.abs(row) <= snap] = 0.0
        # drop negligible imaginary or real parts left over from elimination
        row.real[np.abs(row.real) <= snap] = 0.0
        row.imag[np.abs(row.imag) <= snap] = 0.0
        out.append(row)
    return out


def solve_ah_polynomials(structure, degree, grid_k=None,
                         svd_rel_tol=defaults.SVD_REL_TOL):
    """All polynomial almost-holomorphic functions up to total degree.

    Constants are trivially almost holomorphic and are excluded from the
    ansatz.  ``grid_k`` sets only the lattice of the independent residual
    check: the worst CR defect of each basis field over that lattice,
    relative to its largest coefficient.
    """
    if not 1 <= degree <= defaults.DEGREE_CAP:
        raise ConfigurationError(
            f"solver degree {degree} outside 1..{defaults.DEGREE_CAP}")
    if grid_k is None:
        grid_k = defaults.default_solver_grid(degree)
    grid = SampleGrid(structure.box, grid_k)
    size = structure.real_dim
    monomials = tuple(monomials_upto(size, degree))
    a = _cr_system_matrix(structure, monomials)
    try:
        _, sigma, vh = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD of the CR system failed: {exc}") from exc
    if not np.all(np.isfinite(sigma)):
        raise NumericalError("CR system produced non-finite singular values")
    rank = int(numerical_rank(sigma, svd_rel_tol))
    reduced = _reduce_rows([np.conj(v) for v in vh[rank:]], monomials)
    coeffs = (np.array(reduced) if reduced
              else np.zeros((0, len(monomials)), dtype=complex))
    fields = tuple(
        Polynomial(size, dict(zip(monomials, row))) for row in coeffs)
    j = eval_j(structure, grid.points).astype(complex)
    residual = max((float(np.max(np.abs(_cr_defect(f.gradient(grid.points), j))))
                    / f.max_abs_coeff() for f in fields), default=0.0)
    return AHSolutionSet(
        degree=int(degree),
        monomials=monomials,
        coefficients=coeffs,
        fields=fields,
        residual=residual,
        singular_values=sigma,
        grid_k=int(grid_k),
        svd_rel_tol=float(svd_rel_tol),
    )


# ---------------------------------------------------------------------------
# functional independence and the type estimate
# ---------------------------------------------------------------------------

def jacobian_rows(fields, points):
    """Stacked real Jacobian rows (P, 2m, 2n): Re, then Im, of each field's gradient."""
    blocks = []
    for f in fields:
        grad = f.gradient(points)
        blocks.append(grad.real)
        blocks.append(grad.imag)
    return np.stack(blocks, axis=1)


def independence_rank(fields, points, svd_rel_tol=defaults.SVD_REL_TOL):
    """Largest pointwise rank of the stacked real Jacobian of the fields.

    Each complex function contributes two real rows (real and imaginary part
    of its gradient); the returned rank is the maximum over the sample
    points, so it counts functions that are independent somewhere.  When
    the first point already has full rank no point can exceed it, and the
    other points are not decomposed.  The stacked SVD works matrix by
    matrix, so this gives the same integer as one SVD of every point.
    Raises NumericalError on non-finite rows.
    """
    fields = list(fields)
    if not fields:
        return 0
    rows = jacobian_rows(fields, np.asarray(points, dtype=float))
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
    degree: int
    grid_k: int
    svd_rel_tol: float
    notes: list = dc_field(default_factory=list)


def estimate_spencer_type(structure, degree=2, grid_k=None,
                          svd_rel_tol=defaults.SVD_REL_TOL):
    """Estimate the number of independent almost-holomorphic coordinates.

    Solves for all polynomial solutions up to ``degree`` and greedily keeps
    canonical basis fields while each one raises the real Jacobian rank by
    two.  The count is capped by the complex dimension.
    """
    solution = solve_ah_polynomials(structure, degree, grid_k=grid_k,
                                    svd_rel_tol=svd_rel_tol)
    grid = SampleGrid(structure.box, solution.grid_k)
    notes = [f"solution space dimension {solution.nullity} at degree {degree}"]
    selected = []
    rank = 0
    for candidate in solution.fields:
        if rank >= 2 * structure.n:
            break
        trial = independence_rank(selected + [candidate], grid.points,
                                  svd_rel_tol=svd_rel_tol)
        gain = trial - rank
        if gain == 2:
            selected.append(candidate)
            rank = trial
        elif gain > 0:
            notes.append(
                f"candidate raised the Jacobian rank by {gain}; skipped as "
                f"numerically marginal")
    m = len(selected)
    if m > structure.n:
        notes.append(f"estimate {m} exceeds the dimension cap {structure.n}")
        selected = selected[:structure.n]
        m = structure.n
    return TypeEstimate(
        m=m,
        selected=tuple(selected),
        rank_evidence=rank,
        degree=solution.degree,
        grid_k=solution.grid_k,
        svd_rel_tol=float(svd_rel_tol),
        notes=notes,
    )
