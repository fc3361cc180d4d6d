"""Outside-in tracing of spencerkit's layers.

The tracer wraps public functions of the package modules and the
``numpy.linalg`` routines the package calls, from the benchmark's side.  A
wrapper only sees a call when it replaces the name the caller looks up, so
``install`` rebinds every reference to a wrapped function: the module
attribute, each copy made by ``from .x import name`` in any spencerkit
module, and class attributes (including aliases such as
``Polynomial.__call__``).

Each call records a span (name, parent span, request, start, end) in flat
arrays kept in memory; ``write`` saves them when the run ends.  A layer's
self time is its span time minus the time covered by its child spans.
Counts such as points evaluated or SVD flops are computed from the call's
arguments and result, so they repeat exactly from run to run.
"""
import collections
import contextlib
import functools
import math
import sys
import time
from array import array

COUNT, SECONDS, RATIO, FLOP, BYTES = "count", "s", "ratio", "flop", "B"


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _rows(points):
    shape = getattr(points, "shape", None)
    if shape is None:
        import numpy as np
        shape = np.shape(points)
    return 1 if len(shape) == 1 else int(shape[0])


def _is_complex(a):
    return a.dtype.kind == "c"


def svd_cost(a, full_matrices=True, compute_uv=True):
    """Flops and bytes of one (batched) SVD, computed from the shapes.

    Golub-Reinsch operation counts (Golub & Van Loan, Matrix Computations,
    4th ed., section 8.6.3) for an m x n matrix with m >= n: singular values
    only 4mn^2 - 4n^3/3; thin U, V 14mn^2 + 8n^3; full U, V
    4m^2n + 8mn^2 + 9n^3.  A complex flop counts as four real ones.  Bytes
    are the input plus every output array.
    """
    import numpy as np
    a = np.asarray(a)
    m, n = a.shape[-2:]
    batch = math.prod(a.shape[:-2])
    big, small = max(m, n), min(m, n)
    if not compute_uv:
        flops = 4 * big * small ** 2 - 4 * small ** 3 / 3
    elif full_matrices:
        flops = 4 * big ** 2 * small + 8 * big * small ** 2 + 9 * small ** 3
    else:
        flops = 14 * big * small ** 2 + 8 * small ** 3
    cx = _is_complex(a)
    real_size = a.itemsize // 2 if cx else a.itemsize
    out = small * real_size
    if compute_uv:
        u_cols, vh_rows = (m, n) if full_matrices else (small, small)
        out += (m * u_cols + vh_rows * n) * a.itemsize
    return (round(batch * flops * (4 if cx else 1)),
            a.nbytes + batch * out)


def lstsq_cost(a, b):
    """Flops and bytes of one least-squares solve, computed from the shapes.

    LAPACK gelsd reduces A (m x n, m >= n) to bidiagonal form, solves the
    bidiagonal problem and applies the reflectors to the k right-hand
    sides: modelled as 4mn^2 - 4n^3/3 + 4mnk flops.  Bytes are A, B and
    the solution.
    """
    import numpy as np
    a, b = np.asarray(a), np.asarray(b)
    m, n = a.shape
    k = 1 if b.ndim == 1 else b.shape[1]
    big, small = max(m, n), min(m, n)
    flops = 4 * big * small ** 2 - 4 * small ** 3 / 3 + 4 * m * n * k
    cx = _is_complex(a) or _is_complex(b)
    itemsize = 16 if cx else 8
    return (round(flops * (4 if cx else 1)),
            a.nbytes + b.nbytes + n * k * itemsize)


# -- per-target counters ------------------------------------------------------
# Each hook gets (counts, span name, args, kwargs, result, ok) and adds to
# ``counts``; ``ok`` is False when the call raised.

def _points_of(arg_index):
    def hook(counts, name, args, kwargs, result, ok):
        counts[name + ".points"] += _rows(_arg(args, kwargs, arg_index, "points"))
    return hook


def _split_points(counts, name, args, kwargs, result, ok):
    points = _arg(args, kwargs, 1, "points")
    if points is None:
        from spencerkit import defaults
        points_n = defaults.GRID_PER_AXIS ** args[0].real_dim
    else:
        points_n = _rows(points)
    counts[name + ".points"] += points_n


def _system_entries(counts, name, args, kwargs, result, ok):
    from spencerkit import defaults
    structure, degree = args[0], int(_arg(args, kwargs, 1, "degree"))
    grid_k = _arg(args, kwargs, 2, "grid_k")
    if grid_k is None:
        grid_k = defaults.default_solver_grid(degree)
    size = structure.real_dim
    rows = grid_k ** size * size
    unknowns = math.comb(size + degree, degree) - 1
    counts[name + ".system_entries"] += rows * unknowns


def _members(counts, name, args, kwargs, result, ok):
    if ok:
        counts[name + ".members"] += len(result.members)


def _ok(counts, name, args, kwargs, result, ok):
    counts[name + ".ok"] += 1 if ok else 0


def _hit(counts, name, args, kwargs, result, ok):
    counts[name + ".hit"] += 1 if ok and result else 0


def _try_points(counts, name, args, kwargs, result, ok):
    rows = _rows(_arg(args, kwargs, 1, "points"))
    counts[name + ".points"] += rows
    if args[0].kind == "newton_inverse":
        counts[name + ".newton_points"] += rows


def _json_bytes(counts, name, args, kwargs, result, ok):
    if ok:
        counts[name + ".bytes"] += len(result.encode("utf-8"))


def _svd(counts, name, args, kwargs, result, ok):
    flops, nbytes = svd_cost(_arg(args, kwargs, 0, "a"),
                             _arg(args, kwargs, 1, "full_matrices", True),
                             _arg(args, kwargs, 2, "compute_uv", True))
    counts[name + ".flops"] += flops
    counts[name + ".bytes"] += nbytes


def _lstsq(counts, name, args, kwargs, result, ok):
    flops, nbytes = lstsq_cost(_arg(args, kwargs, 0, "a"),
                               _arg(args, kwargs, 1, "b"))
    counts[name + ".flops"] += flops
    counts[name + ".bytes"] += nbytes


# (span name, module, attribute path, hook, reported fields)
TARGETS = (
    ("poly.evaluate", "spencerkit.poly", "Polynomial.evaluate",
     _points_of(1), ("calls", "points", "self_s")),
    ("poly.gradient", "spencerkit.poly", "Polynomial.gradient",
     None, ("calls", "self_s")),
    ("poly.map_evaluate", "spencerkit.poly", "PolyMap.evaluate",
     None, ("calls", "self_s")),
    ("poly.map_jacobian", "spencerkit.poly", "PolyMap.jacobian",
     None, ("calls", "self_s")),
    ("poly.map_compose", "spencerkit.poly", "PolyMap.compose",
     None, ("calls", "self_s")),
    ("jfield.eval_j", "spencerkit.jfield", "eval_j",
     _points_of(1), ("calls", "points", "self_s")),
    ("jfield.split_type", "spencerkit.jfield", "split_type",
     _split_points, ("calls", "points", "self_s")),
    ("jfield.nijenhuis", "spencerkit.jfield", "nijenhuis",
     None, ("calls", "self_s")),
    ("jfield.check_acs", "spencerkit.jfield", "check_acs", None, ("self_s",)),
    ("crsolve.solve_ah", "spencerkit.crsolve", "solve_ah_polynomials",
     _system_entries, ("calls", "self_s", "system_entries")),
    ("crsolve.independence_rank", "spencerkit.crsolve", "independence_rank",
     None, ("calls", "self_s")),
    ("crsolve.cr_residual", "spencerkit.crsolve", "cr_residual",
     None, ("calls", "self_s")),
    ("crsolve.spencer_type", "spencerkit.crsolve", "estimate_spencer_type",
     None, ("self_s",)),
    ("charts.build_chart", "spencerkit.charts", "build_spencer_chart",
     None, ("calls", "self_s")),
    ("charts.factorize", "spencerkit.charts", "factorize", None, ("self_s",)),
    ("charts.transition_map", "spencerkit.charts", "transition_map",
     None, ("calls", "self_s")),
    ("charts.cocycle_check", "spencerkit.charts", "cocycle_check",
     None, ("self_s",)),
    ("pseudogroup.generate", "spencerkit.pseudogroup", "generate",
     _members, ("calls", "self_s", "members")),
    ("pseudogroup.compose", "spencerkit.pseudogroup", "compose",
     _ok, ("calls", "self_s", "ok_ratio")),
    ("pseudogroup.covers", "spencerkit.pseudogroup", "covers",
     _hit, ("calls", "self_s", "hit_ratio")),
    ("pseudogroup.invert", "spencerkit.pseudogroup", "invert",
     None, ("calls", "self_s")),
    ("pseudogroup.validate_axioms", "spencerkit.pseudogroup",
     "validate_axioms", None, ("self_s",)),
    ("pseudogroup.check_ah_map", "spencerkit.pseudogroup", "check_ah_map",
     None, ("calls", "self_s")),
    ("pseudogroup.try_evaluate", "spencerkit.pseudogroup",
     "LocalMap.try_evaluate", _try_points, ("calls", "points", "newton_points")),
    ("scenario.parse", "spencerkit.scenario", "load_scenario",
     None, ("self_s",)),
    ("scenario.run", "spencerkit.scenario", "run_scenario", None, ("self_s",)),
    ("scenario.emit_json", "spencerkit.scenario", "emit_json",
     _json_bytes, ("self_s", "bytes")),
    ("linalg.svd", "numpy.linalg", "svd", _svd,
     ("calls", "self_s", "flops", "bytes")),
    ("linalg.lstsq", "numpy.linalg", "lstsq", _lstsq,
     ("calls", "self_s", "flops", "bytes")),
    ("linalg.solve", "numpy.linalg", "solve", None, ("calls", "self_s")),
    ("linalg.det", "numpy.linalg", "det", None, ("calls",)),
    ("linalg.inv", "numpy.linalg", "inv", None, ("calls",)),
)

# Bindings that a wrapper must replace besides the defining attribute; a
# missed one would hide calls.  ``install`` verifies each is rebound.
REQUIRED_BINDINGS = (
    "spencerkit.scenario.generate", "spencerkit.scenario.split_type",
    "spencerkit.crsolve.eval_j", "spencerkit.pseudogroup.eval_j",
    "spencerkit.charts.independence_rank", "spencerkit.charts.cr_residual",
    "spencerkit.poly.Polynomial.__call__",
)

FIELD_UNITS = {"calls": COUNT, "points": COUNT, "newton_points": COUNT,
               "members": COUNT, "system_entries": COUNT, "self_s": SECONDS,
               "ok_ratio": RATIO, "hit_ratio": RATIO, "flops": FLOP,
               "bytes": BYTES}


def metric_units():
    """Every per-layer metric name with its unit."""
    units = {f"{name}.{field}": FIELD_UNITS[field]
             for name, _, _, _, fields in TARGETS for field in fields}
    units["trace.overhead_s"] = SECONDS
    return units


class Tracer:
    """Span recorder plus the bindings it replaced."""

    ROOT = "cli.main"

    def __init__(self):
        self.names = [self.ROOT]
        self.parent = array("q")
        self.name = array("q")
        self.request = array("q")
        self.t0 = array("d")
        self.t1 = array("d")
        self.stack = [-1]
        self.current_request = -1
        self.counts = collections.Counter()
        self.wrappers = {}         # original function -> wrapper
        self.patched = []          # (owner, attribute, original)
        self.bound = set()         # "module.attr" names rebound

    def _open(self, name_id):
        sid = len(self.t0)
        self.parent.append(self.stack[-1])
        self.name.append(name_id)
        self.request.append(self.current_request)
        self.t1.append(0.0)
        self.stack.append(sid)
        self.t0.append(time.perf_counter())
        return sid

    def _close(self, sid):
        self.t1[sid] = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def root(self, request):
        """Root span of one CLI call; its descendants share ``request``."""
        self.current_request = request
        sid = self._open(0)
        try:
            yield
        finally:
            self._close(sid)

    def _wrap(self, name, fn, hook):
        name_id = len(self.names)
        self.names.append(name)
        counts = self.counts
        calls = name + ".calls"
        open_, close = self._open, self._close

        def wrapper(*args, **kwargs):
            sid = open_(name_id)
            ok = False
            result = None
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                close(sid)
                counts[calls] += 1
                if hook is not None:
                    hook(counts, name, args, kwargs, result, ok)
        functools.update_wrapper(wrapper, fn)
        self.wrappers[fn] = wrapper

    def install(self):
        """Wrap every target and rebind every reference to it."""
        import numpy.linalg  # noqa: F401  (resolved by name below)
        for name, module, attr, hook, _ in TARGETS:
            owner = sys.modules[module]
            *path, key = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            self._wrap(name, vars(owner)[key], hook)
        package = [m for n, m in sys.modules.items()
                   if n == "spencerkit" or n.startswith("spencerkit.")]
        scopes = [(mod, mod.__name__) for mod in package]
        scopes += [(cls, f"{mod.__name__}.{cls.__name__}")
                   for mod in package for cls in vars(mod).values()
                   if isinstance(cls, type) and cls.__module__ == mod.__name__]
        scopes.append((sys.modules["numpy.linalg"], "numpy.linalg"))
        for owner, where in scopes:
            for key, value in list(vars(owner).items()):
                try:
                    wrapper = self.wrappers.get(value)
                except TypeError:       # unhashable attribute value
                    continue
                if wrapper is not None:
                    self.patched.append((owner, key, value))
                    setattr(owner, key, wrapper)
                    self.bound.add(f"{where}.{key}")
        missing = [b for b in REQUIRED_BINDINGS if b not in self.bound]
        if missing:
            self.uninstall()
            raise RuntimeError(f"tracer did not rebind {missing}")

    def uninstall(self):
        for owner, key, original in reversed(self.patched):
            setattr(owner, key, original)
        self.patched = []

    # -- results -------------------------------------------------------------

    def span_arrays(self):
        import numpy as np
        return (np.frombuffer(self.parent, dtype=np.int64),
                np.frombuffer(self.name, dtype=np.int64),
                np.frombuffer(self.t0), np.frombuffer(self.t1))

    def self_times(self):
        """(per-name self time, per-name inclusive time) in seconds."""
        import numpy as np
        parent, name, t0, t1 = self.span_arrays()
        duration = t1 - t0
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=duration[has_parent],
                            minlength=len(duration))
        self_time = duration - child
        per_self = np.bincount(name, weights=self_time, minlength=len(self.names))
        # Inclusive time counts only outermost spans of a name, so recursion
        # is not counted twice.
        outer = np.ones(len(duration), dtype=bool)
        if len(duration):
            ancestors = parent.copy()
            while np.any(ancestors >= 0):
                live = ancestors >= 0
                same = np.zeros(len(duration), dtype=bool)
                same[live] = name[ancestors[live]] == name[live]
                outer &= ~same
                ancestors[live] = parent[ancestors[live]]
        per_total = np.bincount(name[outer], weights=duration[outer],
                                minlength=len(self.names))
        return ({n: float(per_self[i]) for i, n in enumerate(self.names)},
                {n: float(per_total[i]) for i, n in enumerate(self.names)})

    def metrics(self):
        """Per-layer metrics for every target field."""
        self_s, _ = self.self_times()
        out = {}
        for name, _, _, _, fields in TARGETS:
            calls = self.counts[name + ".calls"]
            for field in fields:
                key = f"{name}.{field}"
                if field == "self_s":
                    out[key] = self_s.get(name, 0.0)
                elif field == "ok_ratio":
                    out[key] = self.counts[name + ".ok"] / calls if calls else 0.0
                elif field == "hit_ratio":
                    out[key] = self.counts[name + ".hit"] / calls if calls else 0.0
                else:
                    out[key] = self.counts[key]
        return out

    def write(self, path):
        """Save all spans (parent, name, request, start, end) as .npz."""
        import numpy as np
        parent, name, t0, t1 = self.span_arrays()
        np.savez_compressed(
            path, parent=parent, name=name, t0=t0, t1=t1,
            request=np.frombuffer(self.request, dtype=np.int64),
            names=np.array(self.names))
