"""Spencer charts: independent almost-holomorphic coordinates and their use.

A chart on a sub-box consists of m almost-holomorphic functions whose real
Jacobian, completed by passively chosen coordinate pairs, is uniformly
nondegenerate.  Charts project the box to a cloud in C^m; functions constant
on fibers factor through the projection, overlapping charts are compared by
fitted transition maps, and triples of charts are checked for the cocycle
identity.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import defaults
from .crsolve import cr_residual, independence_rank, jacobian_rows
from .errors import (ChartError, ConfigurationError, FitError,
                     IndependenceError, NumericalError, OverlapError)
from .jfield import SampleGrid
from .poly import PolyMap, Polynomial, monomials_upto


def _pair_rows(count, n, j):
    """Jacobian rows (count, 2, 2n) of passive pair j: the real coordinates
    2j and 2j + 1, counted from 0."""
    rows = np.zeros((count, 2, 2 * n))
    rows[:, 0, 2 * j] = 1.0
    rows[:, 1, 2 * j + 1] = 1.0
    return rows


def _min_volume(rows):
    """Smallest over points of the product of singular values of the rows."""
    sigma = np.linalg.svd(rows, compute_uv=False)
    return float(np.min(np.prod(sigma, axis=1)))


@dataclass
class SpencerChart:
    """m almost-holomorphic coordinates on a box, with passive completion."""

    structure: object
    fields: tuple
    box: object
    passive_pairs: tuple        # complex coordinate pair indices appended
    certificate: float          # min |det| of the completed real Jacobian
    grid_k: int
    label: str = "chart"

    @property
    def m(self):
        return len(self.fields)

    def evaluate(self, points):
        """Chart coordinates w in C^m at a batch (P, 2n), shape (P, m)."""
        pts = np.asarray(points, dtype=float)
        return np.stack([f.evaluate(pts) for f in self.fields], axis=-1)


def build_spencer_chart(structure, fields, box=None,
                        grid_k=defaults.GRID_PER_AXIS,
                        tol_cr=defaults.TOL_CR, tol_det=defaults.TOL_DET,
                        svd_rel_tol=defaults.SVD_REL_TOL, label="chart"):
    """Validate chart data and choose the passive completion.

    The fields must be almost holomorphic and functionally independent on the
    box.  Passive coordinate pairs are chosen greedily to maximize the worst
    Gram volume of the growing Jacobian; the completed Jacobian must have a
    determinant that is bounded away from zero with constant sign.  A
    non-finite CR residual, Jacobian row or determinant raises
    NumericalError: no comparison against a tolerance can judge it.
    """
    if box is None:
        box = structure.box
    if not structure.box.contains_box(box):
        raise ChartError("chart box is not contained in the structure's box")
    fields = tuple(fields)
    n = structure.n
    if not 1 <= len(fields) <= n:
        raise ChartError(f"chart needs between 1 and {n} fields, got {len(fields)}")
    grid = SampleGrid(box, grid_k)
    for i, f in enumerate(fields):
        res = cr_residual(structure, f, grid.points)
        if not np.isfinite(res):
            raise NumericalError(
                f"field {i} has a non-finite CR residual on the chart box")
        if res > tol_cr:
            raise ChartError(
                f"field {i} is not almost holomorphic on the chart box: "
                f"residual {res:.3e} > {tol_cr:g}")
    m = len(fields)
    rank = independence_rank(fields, grid.points, svd_rel_tol=svd_rel_tol)
    if rank < 2 * m:
        raise IndependenceError(
            f"chart fields have Jacobian rank {rank} < {2 * m}; not independent")

    rows = jacobian_rows(fields, grid.points)
    available = list(range(n))
    chosen = []
    while len(chosen) < n - m:
        trials = {j: np.concatenate([rows, _pair_rows(len(grid), n, j)], axis=1)
                  for j in available}
        # On equal scores max keeps the first, the lowest pair index.
        best = max(available, key=lambda j: _min_volume(trials[j]))
        rows = trials[best]
        chosen.append(best)
        available.remove(best)

    dets = np.linalg.det(rows)
    if not np.all(np.isfinite(dets)):
        raise NumericalError("completed chart Jacobian has a non-finite "
                             "determinant on the chart box")
    min_abs = float(np.min(np.abs(dets)))
    if min_abs <= tol_det:
        raise ChartError(
            f"completed chart Jacobian degenerates: min |det| = {min_abs:.3e} "
            f"<= {tol_det:g}")
    if float(np.min(dets)) < 0 < float(np.max(dets)):
        raise ChartError("completed chart Jacobian changes orientation on the box")
    return SpencerChart(structure=structure, fields=fields, box=box,
                        passive_pairs=tuple(chosen), certificate=min_abs,
                        grid_k=int(grid_k), label=str(label))


@dataclass
class ProjectedCloud:
    """Sample points of a chart box together with their images in C^m."""

    chart: SpencerChart
    points: np.ndarray          # (P, 2n)
    w: np.ndarray               # (P, m) complex


def project(chart, grid_k=None):
    grid = SampleGrid(chart.box, chart.grid_k if grid_k is None else grid_k)
    return ProjectedCloud(chart=chart, points=grid.points,
                          w=chart.evaluate(grid.points))


def _vandermonde(w, fit_degree):
    """Columns of holomorphic monomials of w up to fit_degree, constant first."""
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


def _lstsq_checked(matrix, rhs, what):
    sigma = np.linalg.svd(matrix, compute_uv=False)
    if sigma[-1] == 0 or sigma[0] / sigma[-1] > defaults.FIT_COND_CAP:
        raise FitError(f"{what} is too ill-conditioned to fit "
                       f"(condition number above {defaults.FIT_COND_CAP:g})")
    solution, _, _, _ = np.linalg.lstsq(matrix, rhs, rcond=None)
    return solution, float(sigma[0] / sigma[-1])


@dataclass
class Factorization:
    """Least-squares factorization h = H(w) through a chart projection."""

    chart: SpencerChart
    factor: Polynomial          # H, a polynomial in the m chart variables
    coefficients: np.ndarray
    monomials: tuple
    fit_residual: float
    fiber_variance: float
    cond: float
    fit_degree: int
    cluster_tol: float
    n_points: int


def factorize(chart, h, grid_k=None, fit_degree=defaults.FIT_DEGREE):
    """Fit h as a holomorphic polynomial of the chart coordinates.

    Two diagnostics come back: the fiber variance (how far h is from being
    constant on the fibers of the projection, measured by clustering the
    cloud) and the max-norm residual of the fit itself.
    """
    cloud = project(chart, grid_k)
    h_vals = h.evaluate(cloud.points)
    cluster_tol = defaults.CLUSTER_TOL_FACTOR * chart.box.diameter
    keys = np.floor(
        np.concatenate([cloud.w.real, cloud.w.imag], axis=1) / cluster_tol
    ).astype(np.int64)
    buckets = {}
    for row, key in enumerate(map(tuple, keys)):
        buckets.setdefault(key, []).append(row)
    fiber_variance = 0.0
    for rows in buckets.values():
        if len(rows) < 2:
            continue
        vals = h_vals[rows]
        spread = float(np.max(np.abs(vals[:, None] - vals[None, :])))
        fiber_variance = max(fiber_variance, spread)
    matrix, monomials = _vandermonde(cloud.w, fit_degree)
    coeffs, cond = _lstsq_checked(matrix, h_vals, "chart Vandermonde system")
    fit_residual = float(np.max(np.abs(matrix @ coeffs - h_vals)))
    factor = Polynomial(chart.m, dict(zip(monomials, coeffs)))
    return Factorization(chart=chart, factor=factor, coefficients=coeffs,
                         monomials=tuple(monomials), fit_residual=fit_residual,
                         fiber_variance=float(fiber_variance), cond=cond,
                         fit_degree=int(fit_degree),
                         cluster_tol=float(cluster_tol),
                         n_points=len(cloud.points))


@dataclass
class TransitionMap:
    """Fitted change of chart coordinates on an overlap."""

    source: str
    target: str
    map: PolyMap                # holomorphic polynomial fit in w
    overlap: object
    fit_residual: float         # max-norm defect of the holomorphic fit
    holo_residual: float        # largest conjugate-monomial coefficient
    jacobian_min_det: float     # min |det| of the fitted map over the cloud
    cond: float
    fit_degree: int
    grid_k: int


def transition_map(chart_a, chart_b, grid_k=None,
                   fit_degree=defaults.FIT_DEGREE):
    """Fit the map taking chart_a coordinates to chart_b coordinates.

    Holomorphy is measured by refitting with conjugate monomials admitted:
    on a genuine transition all conjugate coefficients vanish.
    """
    if chart_a.m != chart_b.m:
        raise ConfigurationError(
            f"charts have different sizes: {chart_a.m} and {chart_b.m}")
    overlap = chart_a.box.intersect(chart_b.box)
    if overlap is None:
        raise OverlapError(
            f"charts {chart_a.label} and {chart_b.label} do not overlap")
    grid = SampleGrid(overlap, chart_a.grid_k if grid_k is None else grid_k)
    wa = chart_a.evaluate(grid.points)
    wb = chart_b.evaluate(grid.points)
    matrix, monomials = _vandermonde(wa, fit_degree)
    coeffs, cond = _lstsq_checked(matrix, wb, "transition Vandermonde system")
    fit_residual = float(np.max(np.abs(matrix @ coeffs - wb)))
    full_matrix, full_monomials = _vandermonde(
        np.concatenate([wa, np.conj(wa)], axis=1), fit_degree)
    full_coeffs, _ = _lstsq_checked(full_matrix, wb, "augmented transition system")
    m = chart_a.m
    conj_rows = [any(e[m:]) for e in full_monomials]
    holo_residual = (float(np.max(np.abs(full_coeffs[conj_rows])))
                     if any(conj_rows) else 0.0)
    components = [Polynomial(m, dict(zip(monomials, coeffs[:, j])))
                  for j in range(m)]
    fitted = PolyMap(components)
    jac = fitted.jacobian(wa)
    dets = np.linalg.det(jac)
    return TransitionMap(
        source=chart_a.label, target=chart_b.label, map=fitted,
        overlap=overlap, fit_residual=fit_residual,
        holo_residual=float(holo_residual),
        jacobian_min_det=float(np.min(np.abs(dets))), cond=cond,
        fit_degree=int(fit_degree),
        grid_k=int(chart_a.grid_k if grid_k is None else grid_k))


@dataclass
class CocycleResult:
    """Transitions of a chart triple and their composition defect."""

    ab: TransitionMap
    bc: TransitionMap
    ac: TransitionMap
    triple_overlap: object
    defect: float


def cocycle_check(chart_a, chart_b, chart_c, grid_k=None,
                  fit_degree=defaults.FIT_DEGREE):
    """Composition defect of the three pairwise transitions on the triple
    overlap: max |t_bc(t_ab(w)) - t_ac(w)|."""
    ab = transition_map(chart_a, chart_b, grid_k=grid_k, fit_degree=fit_degree)
    bc = transition_map(chart_b, chart_c, grid_k=grid_k, fit_degree=fit_degree)
    ac = transition_map(chart_a, chart_c, grid_k=grid_k, fit_degree=fit_degree)
    triple = chart_a.box.intersect(chart_b.box)
    triple = triple.intersect(chart_c.box) if triple is not None else None
    if triple is None:
        raise OverlapError("charts have no common triple overlap")
    grid = SampleGrid(triple, chart_a.grid_k if grid_k is None else grid_k)
    wa = chart_a.evaluate(grid.points)
    via_b = bc.map.evaluate(ab.map.evaluate(wa))
    direct = ac.map.evaluate(wa)
    defect = float(np.max(np.abs(via_b - direct)))
    return CocycleResult(ab=ab, bc=bc, ac=ac, triple_overlap=triple,
                         defect=defect)
