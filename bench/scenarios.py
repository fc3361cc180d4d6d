"""Seeded scenario generators whose verdicts are known by construction.

Every task carries an explicit ``expect``.  The seed moves coefficients,
offsets and box bounds only; member counts, degrees, grid sizes and task
lists are fixed per workload, so the work in one pass does not depend on
the seed.

* Integrable structures are pullbacks J = DPhi^-1 J0 DPhi of the flat
  structure J0 by a unipotent triangular polynomial shear Phi.  The
  functions w_j = z_j o Phi are almost holomorphic, the structure is
  integrable, its Spencer type is n, and the chart on the w_j has
  det = 1.  The polynomial solutions up to degree D are the polynomials in
  the w_j of weighted degree <= D (weight = degree of w_j), which gives the
  expected solver dimensions.
* The non-integrable structure is the ``twisted_r4`` form with a seeded
  nonzero twist: integrability and the transverse factorization fail.
* Closure variants conjugate the ``std_c1`` families by a seeded similarity
  S(x) = c x + v of R^2, which keeps every containment and composition
  relation, so the families close exactly as the packaged ones do.
"""
import itertools
import random

from polys import Poly, matmul

DEGREE_CAP = 6   # spencerkit.defaults.DEGREE_CAP; entries must stay below it


def _coef(rng, lo=0.1, hi=0.3):
    return rng.choice((-1.0, 1.0)) * rng.uniform(lo, hi)


def _box(lo, hi):
    return {"lo": list(lo), "hi": list(hi)}


def _flat(size):
    """J0 as a Poly matrix: each pair (x_2j-1, x_2j) is one z_j."""
    zero = Poly(size)
    mat = [[zero for _ in range(size)] for _ in range(size)]
    for j in range(size // 2):
        mat[2 * j + 1][2 * j] = Poly.const(size, 1.0)
        mat[2 * j][2 * j + 1] = Poly.const(size, -1.0)
    return mat


class Sheared:
    """Pullback of J0 on R^(2n) by a seeded unipotent triangular shear."""

    def __init__(self, rng, n):
        size = 2 * n
        x = [Poly.var(size, k) for k in range(size)]
        phi = list(x)
        for j in range(1, n):
            earlier = range(2 * j)
            for k in (2 * j, 2 * j + 1):
                p = x[k]
                for a in earlier:
                    p = p + x[a].scale(_coef(rng))
                for a, b in itertools.combinations_with_replacement(earlier, 2):
                    p = p + (x[a] * x[b]).scale(_coef(rng))
                phi[k] = p
        eye = [[Poly.const(size, 1.0 if i == k else 0.0) for k in range(size)]
               for i in range(size)]
        dphi = [[phi[i].diff(k) for k in range(size)] for i in range(size)]
        minus_n = [[eye[i][k] - dphi[i][k] for k in range(size)]
                   for i in range(size)]
        inverse, power = eye, eye
        for _ in range(n - 1):          # N is nilpotent of order n
            power = matmul(power, minus_n)
            inverse = [[inverse[i][k] + power[i][k] for k in range(size)]
                       for i in range(size)]
        self.J = matmul(matmul(inverse, _flat(size)), dphi)
        degree = max(e.degree for row in self.J for e in row)
        if degree > DEGREE_CAP:
            raise ValueError(f"pullback entry degree {degree} exceeds {DEGREE_CAP}")
        self.n = n
        self.w = [phi[2 * j] + phi[2 * j + 1].scale(1j) for j in range(n)]
        self.weights = [max(w.degree, 1) for w in self.w]
        self.box = _box([-rng.uniform(0.8, 1.0) for _ in range(size)],
                        [rng.uniform(0.8, 1.0) for _ in range(size)])

    def solution_dim(self, degree):
        """Polynomials in the w_j of weighted degree 1..degree."""
        ranges = [range(degree // wt + 1) for wt in self.weights]
        return sum(1 for a in itertools.product(*ranges)
                   if 0 < sum(ai * wt for ai, wt in zip(a, self.weights)) <= degree)

    def header(self, name):
        return {"name": name, "n": self.n, "box": self.box,
                "J": [[e.text() for e in row] for row in self.J]}


def _twist_matrix(a):
    return [["0", "-1", f"-{a:.17g}*x1", "0"],
            ["1", "0", "0", f"{a:.17g}*x1"],
            ["0", "0", "0", "-1"],
            ["0", "0", "1", "0"]]


def _twisted(rng, name, tasks):
    half = rng.uniform(0.4, 0.6)
    return {
        "name": name, "n": 2,
        "box": _box([-half] * 4, [half] * 4),
        "J": _twist_matrix(rng.uniform(0.6, 1.4)),
        "functions": {"w": "x3 + (0+1i)*x4",
                      "w2": "x3^2 - x4^2 + (0+2i)*x3*x4",
                      "zfirst": "x1 + (0+1i)*x2",
                      "xcoord": "x1"},
        "charts": {"cw": {"functions": ["w"]}},
        "tasks": tasks,
    }


def _task(kind, expect="pass", **keys):
    return dict(task=kind, expect=expect, **keys)


# ---------------------------------------------------------------------------
# pointwise: dense-grid checks on n=2 and n=3 structures
# ---------------------------------------------------------------------------

def _pointwise_tasks(functions, grid):
    tasks = [_task("check_acs", grid=grid), _task("split_type", grid=grid),
             _task("integrability", grid=grid)]
    for name, expect in functions:
        tasks.append(_task("cr_check", expect, function=name, grid=grid,
                           label=f"cr_check_{name}"))
    return tasks


def pointwise(rng, sizes, builtins):
    out = []
    for n, grid in ((2, sizes["grid_n2"]), (3, sizes["grid_n3"])):
        s = Sheared(rng, n)
        scen = s.header(f"pointwise_sheared_n{n}")
        scen["functions"] = {"w1": s.w[0].text(), f"w{n}": s.w[-1].text(),
                             "w_bar": s.w[-1].conjugate().text()}
        scen["tasks"] = _pointwise_tasks(
            (("w1", "pass"), (f"w{n}", "pass"), ("w_bar", "fail")), grid)
        out.append(scen)
    grid = sizes["grid_n2"]
    tasks = [_task("check_acs", grid=grid), _task("split_type", grid=grid),
             _task("integrability", "fail", grid=grid),
             _task("cr_check", function="w", grid=grid, label="cr_check_w"),
             _task("cr_check", "fail", function="zfirst", grid=grid,
                   label="cr_check_zfirst")]
    out.append(_twisted(rng, "pointwise_twisted", tasks))
    return out


# ---------------------------------------------------------------------------
# solve: CR solver, type estimate, charts, fits
# ---------------------------------------------------------------------------

def _sub_box(rng, box, share):
    """A seeded sub-box covering ``share`` of each side of ``box``."""
    lo, hi = [], []
    for a, b in zip(box["lo"], box["hi"]):
        width = (b - a) * share
        start = a + rng.uniform(0.0, (b - a) - width)
        lo.append(start)
        hi.append(start + width)
    return _box(lo, hi)


def _solve_sheared(rng, n, degrees, fit_degree):
    s = Sheared(rng, n)
    scen = s.header(f"solve_sheared_n{n}")
    w = s.w
    c, d = complex(_coef(rng), _coef(rng)), complex(_coef(rng), _coef(rng))
    # Chart B changes w_n by d * w_1^2 and chart C shears w_1 by c * w_n, so
    # every transition between A, B and C is a polynomial of degree 2.
    w_b = w[:-1] + [w[-1] + (w[0] * w[0]).scale(d)]
    w_c = [w[0] + w[-1].scale(c)] + w[1:]
    functions = {}
    for tag, ws in (("a", w), ("b", w_b), ("c", w_c)):
        for j, f in enumerate(ws):
            functions[f"{tag}{j + 1}"] = f.text()
    functions["h"] = (w[0] * w[-1] + w[-1] * w[-1]).text()
    functions["w1_bar"] = w[0].conjugate().text()
    scen["functions"] = functions
    small = _sub_box(rng, s.box, 0.5)
    names = {tag: [f"{tag}{j + 1}" for j in range(n)] for tag in "abc"}
    scen["charts"] = {"ca": {"functions": names["a"]},
                      "cb": {"functions": names["b"]},
                      "ca_s": {"functions": names["a"], "box": small},
                      "cb_s": {"functions": names["b"], "box": small},
                      "cc_s": {"functions": names["c"], "box": small}}
    tasks = [_task("solve_ah", degree=deg, expect_dim=s.solution_dim(deg),
                   label=f"solve_ah_deg{deg}") for deg in degrees]
    tasks += [
        _task("spencer_type", degree=2, expect_m=n),
        _task("integrability"),
        _task("chart", chart="ca"),
        _task("factorize", chart="ca", function="h", fit_degree=fit_degree,
              label="factorize_h"),
        _task("factorize", "fail", chart="ca", function="w1_bar",
              fit_degree=fit_degree, label="factorize_conjugate"),
        _task("transition", charts=["ca", "cb"], fit_degree=fit_degree),
        _task("cocycle", charts=["ca_s", "cb_s", "cc_s"], fit_degree=fit_degree),
    ]
    scen["tasks"] = tasks
    return scen


def solve(rng, sizes, builtins):
    out = [builtins["std_c2"], builtins["twisted_r4"]]
    out.append(_solve_sheared(rng, 2, sizes["degrees_n2"], sizes["fit_n2"]))
    if sizes["degrees_n3"]:
        out.append(_solve_sheared(rng, 3, sizes["degrees_n3"], sizes["fit_n3"]))
    tasks = [_task("integrability", "fail", label="integrability_obstructed"),
             _task("solve_ah", degree=2, expect_dim=2),
             _task("spencer_type", degree=2, expect_m=1),
             _task("chart", chart="cw"),
             _task("factorize", chart="cw", function="w2", label="factorize_w2"),
             _task("factorize", "fail", chart="cw", function="xcoord",
                   label="factorize_transverse")]
    out.append(_twisted(rng, "solve_twisted", tasks))
    return out


# ---------------------------------------------------------------------------
# closure: std_c1 plus its families conjugated by a seeded similarity
# ---------------------------------------------------------------------------

class _Similarity:
    """S(x) = c x + v on R^2 with a seeded scale c and offset v."""

    def __init__(self, rng):
        self.c = rng.uniform(0.8, 1.2)
        self.v = (rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2))
        x = [Poly.var(2, 0), Poly.var(2, 1)]
        # S^-1 as polynomials: (x - v) / c
        self.inv = [(x[k] - Poly.const(2, self.v[k])).scale(1.0 / self.c)
                    for k in range(2)]

    def point(self, p):
        return [self.c * p[k] + self.v[k] for k in range(2)]

    def box(self, lo, hi):
        return _box(self.point(lo), self.point(hi))

    def conjugate(self, components):
        """S o f o S^-1 for f given as two Poly components in (y1, y2)."""
        out = []
        for k, f in enumerate(components):
            g = Poly(2)
            for e, coef in f.terms.items():
                term = Poly.const(2, coef)
                for axis, power in enumerate(e):
                    for _ in range(power):
                        term = term * self.inv[axis]
                g = g + term
            out.append((g.scale(self.c) + Poly.const(2, self.v[k])).text())
        return out


def _affine(scale, shift):
    y = [Poly.var(2, 0), Poly.var(2, 1)]
    return [y[k].scale(scale) + Poly.const(2, shift[k]) for k in range(2)]


def closure_variant(rng):
    """The std_c1 maps, families and diagrams conjugated by a seeded S.

    ``fam_ah`` closes to depth 1 here (depth 2 in std_c1) to keep a pass
    near the length of std_c1 alone.
    """
    s = _Similarity(rng)
    y1, y2 = Poly.var(2, 0), Poly.var(2, 1)
    square = [y1 * y1 - y2 * y2, (y1 * y2).scale(2.0)]

    def local_map(components, lo, hi, inverse=None):
        out = {"components": s.conjugate(components), "domain": s.box(lo, hi)}
        if inverse:
            out["inverse"] = local_map(*inverse)
        return out

    maps = {
        "t": local_map(_affine(1.0, (0.8, 0.0)), (-1.0, -1.0), (-0.7, 1.0),
                       (_affine(1.0, (-0.8, 0.0)), (-0.2, -1.0), (0.1, 1.0))),
        "s": local_map(_affine(2.0, (0.0, 0.0)), (0.2, 0.2), (0.45, 0.45),
                       (_affine(0.5, (0.0, 0.0)), (0.4, 0.4), (0.9, 0.9))),
        "m4": local_map(_affine(4.0, (0.0, 0.0)), (0.2, 0.2), (0.225, 0.225)),
        "sq": local_map(square, (0.05, 0.05), (0.6, 0.6)),
        "tr": local_map(_affine(1.0, (0.1, 0.05)), (-0.5, -0.5), (0.5, 0.5)),
        "amb_id": local_map(_affine(1.0, (0.0, 0.0)), (-1.0, -1.0), (1.0, 1.0)),
    }
    glue = {"members": ["s", "s"],
            "boxes": [s.box((0.2, 0.2), (0.35, 0.45)),
                      s.box((0.3, 0.2), (0.45, 0.45))],
            "target": s.box((0.2, 0.2), (0.45, 0.45))}
    return {
        "name": "closure_variant", "n": 1,
        "box": s.box((-1.0, -1.0), (1.0, 1.0)),
        "maps": maps,
        "families": {
            "fam": {"members": ["t", "s"], "depth": 2, "glue_tests": [glue]},
            "fam_no_inv": {"members": ["t", "s", "m4"], "depth": 0},
            "fam_ah": {"members": ["sq", "tr"], "depth": 1},
        },
        "tasks": [
            _task("axioms", family="fam", label="axioms_closed"),
            _task("axioms", "fail", family="fam_no_inv",
                  label="axioms_without_inverses"),
            _task("ah_map", family="fam_ah", label="ah_map_family"),
            _task("over_diagram", phi="tr", f_src="amb_id", f_dst="amb_id",
                  psi="tr", label="diagram_translation"),
            _task("over_diagram", "fail", phi="tr", f_src="amb_id",
                  f_dst="amb_id", psi="amb_id", label="diagram_broken"),
        ],
    }


def closure(rng, sizes, builtins):
    out = [builtins["std_c1"]] if sizes["std_c1"] else []
    return out + [closure_variant(rng)]


# ---------------------------------------------------------------------------

WORKLOADS = {"closure": closure, "pointwise": pointwise, "solve": solve}

SIZES = {
    "full": {
        "closure": {"std_c1": True},
        "pointwise": {"grid_n2": 6, "grid_n3": 4},
        "solve": {"degrees_n2": (1, 2, 3, 4), "degrees_n3": (1, 2),
                  "fit_n2": 3, "fit_n3": 2},
    },
    # A few seconds per workload; used by the benchmark's self-check.
    "tiny": {
        "closure": {"std_c1": False},
        "pointwise": {"grid_n2": 3, "grid_n3": 2},
        "solve": {"degrees_n2": (1, 2), "degrees_n3": (), "fit_n2": 2},
    },
}


def build(workload, seed, size, builtins):
    """Scenario dictionaries of one workload; ``builtins`` are the packaged
    scenarios, included unchanged where the workload names them."""
    rng = random.Random(f"{workload}:{seed}")
    return WORKLOADS[workload](rng, SIZES[size][workload], builtins)
