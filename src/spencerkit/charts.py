"""Spencer charts: independent almost-holomorphic coordinates and their use.

A chart on a sub-box consists of m almost-holomorphic functions whose real
Jacobian, completed by passively chosen coordinate pairs, is uniformly
nondegenerate.  Charts project the box to a cloud in C^m; a function factors
through the projection when a holomorphic polynomial of the chart coordinates
fits it, overlapping charts are compared by fitted transition maps, and
triples of charts are checked for the cocycle identity.  Each fit is its own
holomorphy witness: a conjugate component, or a value that differs between
two points of one fiber, cannot be fitted away and stays in the residual.

Every chart function samples a lattice of a box at a density, as a
``jfield.Sample``.  A scenario run passes its chart calls one dict, in the
private ``_lattices`` keyword, that keeps the latest sample by the rule of
``jfield.keep`` (``jfield.lattice_sample``), so consecutive calls on one
lattice share chart coordinates and the latest fit matrix, and J where a
chart build samples its CR gate, with each other and with the run's
sampled checks.  A call on its own samples afresh; the bits are the same.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from functools import cached_property

import numpy as np

from . import defaults
from .crsolve import cr_defect_bound, cr_residual, independence_rank
from .errors import (ChartError, ConfigurationError, FitError,
                     IndependenceError, NumericalError, OverlapError)
from .jfield import _distinct_rows, check_entries, keep, lattice_sample
from .poly import PolyMap, Polynomial, monomials_upto, real_jacobian


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
    label: str = "chart"

    @property
    def m(self):
        return len(self.fields)

    def evaluate(self, points):
        """Chart coordinates w in C^m at a batch (P, 2n), shape (P, m)."""
        return PolyMap(self.fields).evaluate(np.asarray(points, dtype=float))


def _values(sample, chart):
    """The chart's coordinates at the sample's points, (P, m), kept for
    the sample's life under the ids of the fields, which the key holds."""
    return keep(sample.kept, tuple(map(id, chart.fields)), chart.fields,
                lambda: chart.evaluate(sample.points))


def _kept_fit_matrix(sample, chart, fit_degree, what):
    """``_fit_matrix`` of the chart's coordinates on the sample, kept until
    another is asked for; a refused fit is not kept."""
    # _values keeps the fields, so their ids are not reused meanwhile.
    return keep(sample.kept, "fit", (tuple(map(id, chart.fields)), fit_degree),
                lambda: _fit_matrix(_values(sample, chart), fit_degree, what))


def _certified(structure, fields, box, tol_cr):
    """Whether every field passes the CR gate from its exact defect bound
    over the box (``crsolve.cr_defect_bound``): the bound plus one rounding
    unit of its scale is finite and at most tol_cr.  Nothing is bounded,
    and the fields take the sampled gate, when a field has another number
    of variables (which the sampled gate refuses) or when the coefficient
    system, at most M^2 (2n + the terms of J) entries for M monomials,
    could exceed ``defaults.ENTRY_CAP``."""
    size = structure.real_dim
    monomials = len(set().union(*(f.terms for f in fields)))
    j_terms = sum(len(entry.terms) for row in structure.matrix for entry in row)
    if (any(f.nvars != size for f in fields)
            or monomials ** 2 * (size + j_terms) > defaults.ENTRY_CAP):
        return False
    # A bound that overflows is not finite, and certifies nothing.
    with np.errstate(over="ignore", invalid="ignore"):
        bound, scale = cr_defect_bound(structure, fields, box)
        total = bound + np.finfo(float).eps * scale
    return bool(np.all(np.isfinite(total) & (total <= tol_cr)))


def _sampled_gate(structure, fields, sample, tol_cr):
    """The CR gate on the sample, field by field."""
    for i, res in enumerate(cr_residual(structure, fields, sample)):
        if not np.isfinite(res):
            raise NumericalError(
                f"field {i} has a non-finite CR residual on the chart box")
        if res > tol_cr:
            raise ChartError(
                f"field {i} is not almost holomorphic on the chart box: "
                f"residual {res:.3e} > {tol_cr:g}")


def build_spencer_chart(structure, fields, box=None,
                        grid_k=defaults.GRID_PER_AXIS,
                        tol_cr=defaults.TOL_CR, tol_det=defaults.TOL_DET,
                        svd_rel_tol=defaults.SVD_REL_TOL, label="chart", *,
                        _lattices=None):
    """Validate chart data and choose the passive completion.

    The fields must be almost holomorphic and functionally independent on the
    box.  Passive coordinate pairs are chosen greedily to maximize the worst
    Gram volume of the growing Jacobian; the completed Jacobian must have a
    determinant that is bounded away from zero with constant sign.

    When the fields are ``_certified`` the CR gate reads no J.  Otherwise
    every field takes the sampled gate, in field order, which evaluates J
    once.  Either way the fields' Jacobian rows are then taken once, for
    the rank and the completion.  A non-finite
    CR residual, Jacobian row or determinant raises NumericalError: no
    comparison against a tolerance can judge it.
    """
    if box is None:
        box = structure.box
    if not structure.box.contains_box(box):
        raise ChartError("chart box is not contained in the structure's box")
    fields = tuple(fields)
    n = structure.n
    if not 1 <= len(fields) <= n:
        raise ChartError(f"chart needs between 1 and {n} fields, got {len(fields)}")
    sample = lattice_sample(_lattices, structure, box, grid_k)
    if not _certified(structure, fields, box, tol_cr):
        _sampled_gate(structure, fields, sample, tol_cr)
    rows = real_jacobian(fields, sample.points)
    m = len(fields)
    rank = independence_rank(rows, svd_rel_tol)
    if rank < 2 * m:
        raise IndependenceError(
            f"chart fields have Jacobian rank {rank} < {2 * m}; not independent")

    available = list(range(n))
    chosen = []
    while len(chosen) < n - m:
        trials = {j: np.concatenate([rows, _pair_rows(len(rows), n, j)], axis=1)
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
                        label=str(label))


def _vandermonde(w, fit_degree):
    """Columns of holomorphic monomials of w up to fit_degree, constant first."""
    m = w.shape[1]
    monomials = monomials_upto(m, fit_degree, include_constant=True)
    return PolyMap([Polynomial(m, {e: 1.0}) for e in monomials]).evaluate(w), monomials


def _fit_matrix(w, fit_degree, what):
    """What fits over the values w share, whatever their targets: the
    Vandermonde matrix of the holomorphic monomials of w up to fit_degree,
    the monomials and the matrix's condition number.

    Refused before the matrix is built: a fit with at least as many
    monomials, C(m + fit_degree, m), as distinct rows of w (distinct by
    bits), which could interpolate any target, so its residual would
    witness nothing; and a matrix over ``check_entries``'s cap.  An
    ill-conditioned fit is refused after its singular values.
    """
    if fit_degree < 0:
        raise ConfigurationError(f"fit_degree must be nonnegative, got {fit_degree}")
    rows, m = w.shape
    columns = math.comb(m + fit_degree, m)
    # A prefix with more distinct rows than monomials settles it; else all
    # rows are counted, for the refusal's number.
    distinct = len(_distinct_rows(w[:2 * columns])[0])
    if distinct <= columns:
        distinct = len(_distinct_rows(w)[0])
    if distinct <= columns:
        raise ConfigurationError(
            f"fit_degree {fit_degree} gives {columns} monomials for "
            f"{distinct} distinct chart values; the fit could interpolate")
    check_entries(rows * columns, "the {} x {} fit matrix of fit_degree {}",
                  rows, columns, fit_degree)
    matrix, monomials = _vandermonde(w, fit_degree)
    sigma = np.linalg.svd(matrix, compute_uv=False)
    if sigma[-1] == 0 or sigma[0] / sigma[-1] > defaults.FIT_COND_CAP:
        raise FitError(f"{what} is too ill-conditioned to fit "
                       f"(condition number above {defaults.FIT_COND_CAP:g})")
    return matrix, monomials, float(sigma[0] / sigma[-1])


def _fit(matrix, rhs):
    """Least-squares coefficients of rhs in the columns of matrix, and the
    max-norm residual."""
    solution, _, _, _ = np.linalg.lstsq(matrix, rhs, rcond=None)
    return solution, float(np.max(np.abs(matrix @ solution - rhs)))


@dataclass
class Factorization:
    """Least-squares factorization h = H(w) through a chart projection."""

    coefficients: np.ndarray    # of H, one per monomial of the m chart variables
    monomials: tuple
    fit_residual: float
    cond: float


def factorize(chart, h, grid_k=defaults.GRID_PER_AXIS,
              fit_degree=defaults.FIT_DEGREE, *, _lattices=None):
    """Fit h as a holomorphic polynomial of the chart coordinates.

    The max-norm residual of the fit is the verdict: where two lattice
    points share a fiber, it is at least half the spread of h there.
    """
    sample = lattice_sample(_lattices, chart.structure, chart.box, grid_k)
    matrix, monomials, cond = _kept_fit_matrix(sample, chart, fit_degree,
                                               "chart Vandermonde system")
    coeffs, fit_residual = _fit(matrix, h.evaluate(sample.points))
    return Factorization(coefficients=coeffs, monomials=tuple(monomials),
                         fit_residual=fit_residual, cond=cond)


@dataclass
class TransitionMap:
    """Fitted change of chart coordinates on an overlap."""

    map: PolyMap                # holomorphic polynomial fit in w
    fit_residual: float         # max-norm defect of the holomorphic fit
    cond: float
    w: np.ndarray = dc_field(repr=False)   # chart a's coordinates, the cloud

    @cached_property
    def jacobian_min_det(self):
        """min |det| of the fitted map's Jacobian over the cloud, taken
        when read."""
        return float(np.min(np.abs(np.linalg.det(self.map.jacobian(self.w)))))


def transition_map(chart_a, chart_b, grid_k=defaults.GRID_PER_AXIS,
                   fit_degree=defaults.FIT_DEGREE, *, _lattices=None):
    """Fit the map taking chart_a coordinates to chart_b coordinates.

    The fit is holomorphic in chart_a's coordinates, so a conjugate
    component of the true transition stays in its residual.
    """
    if chart_a.m != chart_b.m:
        raise ConfigurationError(
            f"charts have different sizes: {chart_a.m} and {chart_b.m}")
    overlap = chart_a.box.intersect(chart_b.box)
    if overlap is None:
        raise OverlapError(
            f"charts {chart_a.label} and {chart_b.label} do not overlap")
    sample = lattice_sample(_lattices, chart_a.structure, overlap, grid_k)
    matrix, monomials, cond = _kept_fit_matrix(
        sample, chart_a, fit_degree, "transition Vandermonde system")
    coeffs, fit_residual = _fit(matrix, _values(sample, chart_b))
    m = chart_a.m
    components = [Polynomial(m, dict(zip(monomials, coeffs[:, j])))
                  for j in range(m)]
    return TransitionMap(map=PolyMap(components), fit_residual=fit_residual,
                         cond=cond, w=_values(sample, chart_a))


@dataclass
class CocycleResult:
    """Transitions of a chart triple and their composition defect."""

    ab: TransitionMap
    bc: TransitionMap
    ac: TransitionMap
    defect: float


def cocycle_check(chart_a, chart_b, chart_c, grid_k=defaults.GRID_PER_AXIS,
                  fit_degree=defaults.FIT_DEGREE, *, _lattices=None):
    """Composition defect of the three pairwise transitions on the triple
    overlap: max |t_bc(t_ab(w)) - t_ac(w)|.  The transitions and the
    triple overlap share a lattice where their boxes agree; ab and ac,
    fitted first, also share chart a's fit matrix.  Once the three
    transitions have found their overlaps, the triple overlap is not empty:
    on each axis open intervals that meet pairwise share a point."""
    lattices = {} if _lattices is None else _lattices
    ab, ac, bc = (transition_map(x, y, grid_k=grid_k, fit_degree=fit_degree,
                                 _lattices=lattices)
                  for x, y in ((chart_a, chart_b), (chart_a, chart_c),
                               (chart_b, chart_c)))
    triple = chart_a.box.intersect(chart_b.box).intersect(chart_c.box)
    wa = _values(lattice_sample(lattices, chart_a.structure, triple, grid_k),
                 chart_a)
    via_b = bc.map.evaluate(ab.map.evaluate(wa))
    direct = ac.map.evaluate(wa)
    defect = float(np.max(np.abs(via_b - direct)))
    return CocycleResult(ab=ab, bc=bc, ac=ac, defect=defect)
