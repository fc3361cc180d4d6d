"""Default tolerances and size caps shared across the toolkit."""

TOOLKIT_VERSION = "0.1.0"

# Dimension and degree envelope.
DIM_CAP = 4            # largest complex dimension n; real dimension is 2n
DEGREE_CAP = 6         # largest polynomial total degree handled symbolically

# Named tolerances.  Scenario tasks and the CLI --tol flag override by name.
TOL_ACS = 1e-10        # max-norm of J(p)^2 + I over a verification grid
TOL_EIGEN = 1e-8       # max |J P - iP| = max |J^2 + I| / 2 of the (1,0)
                       # projector P = (I - iJ)/2 over a grid
TOL_CR = 1e-10         # Cauchy-Riemann residual for pass/fail checks
TOL_INTEGRABILITY = 1e-6   # max-norm of the Nijenhuis tensor over a grid
TOL_DET = 1e-6         # smallest acceptable |det| of a chart Jacobian
TOL_FIT = 1e-8         # max residual of a polynomial least-squares fit
TOL_COCYCLE = 1e-8     # max cocycle defect on a triple overlap
TOL_MAP = 1e-9         # structure-compatibility residual for local maps
TOL_DIAGRAM = 1e-8     # commutation residual for defined-over diagrams
TOL_INVERT = 1e-9      # round-trip residual for local-map inverses
SVD_REL_TOL = 1e-8     # relative singular-value cutoff (rank / nullspace)

# Internal decision thresholds (module constants, not --tol names).  The
# snap, Newton and growth values are relative to a row maximum, a point's
# scale and max(domain diameter, 1) respectively.
REDUCE_PIVOT_TOL = 1e-10    # smallest pivot when reducing a nullspace basis
REDUCE_GAP_FACTOR = 1e3     # ... or this * eps * sigma_1 / sigma_r if larger
REDUCE_SNAP_TOL = 1e-12     # reduced coefficients at or below this become 0
NEWTON_STOP_TOL = 1e-13     # Newton residual at which a point stops iterating
NEWTON_ACCEPT_TOL = 1e-9    # Newton residual up to which a point is accepted
GROWTH_TOL = 1e-12          # smallest domain growth ``compose`` still pursues
FIT_COND_CAP = 1e12         # largest condition number of a fit matrix
# Most entries of one sampled array (``jfield.check_entries``): a lattice,
# J on it, a fit matrix (1 GiB as complex128, and its SVD takes about as
# much again), or the dense Nijenhuis tensor (512 MiB as float64), which
# is counted but not built: ``nijenhuis`` keeps only its nonzero components.
ENTRY_CAP = 2 ** 26
# solve_ah's solver_residual bound is this * svd_rel_tol * max(sigma_max, 1).
SOLVER_RESIDUAL_FACTOR = 10.0
DIAGRAM_SKIP_SHARE = 0.2    # largest share of diagram points off its domains

# Relative factors resolved against a box diameter at call time.
DEDUP_TOL_FACTOR = 1e-9     # map-equality tolerance inside a family

# Containment slack of a box, relative to max(diameter, 1) (``Box.slack``);
# ``compose`` alone tests against the tighter COMPOSE_MARGIN.
CONTAINMENT_SLACK = 1e-9
COMPOSE_MARGIN = 1e-12

# Fit and grid defaults.
FIT_DEGREE = 4
GRID_PER_AXIS = 5           # lattice density for map/axiom checks
RANK_POINTS = 8             # points of the type estimate (``Box.generic_points``)


def default_solver_grid(degree):
    """The type estimate's former lattice density; ``bench/tracer.py`` reads it."""
    return 2 * degree + 1


DEFAULT_TOLERANCES = {
    "tol_acs": TOL_ACS,
    "tol_eigen": TOL_EIGEN,
    "tol_cr": TOL_CR,
    "tol_integrability": TOL_INTEGRABILITY,
    "tol_det": TOL_DET,
    "tol_fit": TOL_FIT,
    "tol_cocycle": TOL_COCYCLE,
    "tol_map": TOL_MAP,
    "tol_diagram": TOL_DIAGRAM,
    "tol_invert": TOL_INVERT,
    "svd_rel_tol": SVD_REL_TOL,
}
