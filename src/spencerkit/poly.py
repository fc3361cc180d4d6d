"""Sparse polynomials with exact differentiation, plus the term grammar.

All symbolic objects in the toolkit are built from :class:`Polynomial`:
structure matrix entries, scalar fields, local map components and fitted
transition maps.  Coefficients are complex; variables are x1..xN.
Differentiation is exact term manipulation, never finite differences.

Monomial grammar for scenario files: terms separated by '+'/'-', each term an
optional coefficient (decimal literal or complex literal "(a+bi)") joined by
'*' to variable powers like "x1^2".  Whitespace is insignificant.
"""
from __future__ import annotations

import itertools
import re

import numpy as np

from .errors import PolynomialParseError


def fmt_float(value):
    """Format a float with 17 significant digits (round-trips doubles)."""
    return f"{float(value):.17g}"


def fmt_complex(value):
    """Format a complex coefficient as the literal ``(a+bi)``."""
    z = complex(value)
    return f"({z.real:.17g}{z.imag:+.17g}i)"


def monomial_key(exponents):
    """Grading used everywhere: total degree first, then the exponent tuple."""
    return (sum(exponents), tuple(exponents))


def monomials_upto(nvars, degree, include_constant=False):
    """All exponent tuples with total degree <= degree, in monomial order."""
    out = []
    lowest = 0 if include_constant else 1
    for total in range(lowest, degree + 1):
        level = [e for e in itertools.product(range(total + 1), repeat=nvars)
                 if sum(e) == total]
        out.extend(sorted(level))
    return out


class Polynomial:
    """Immutable sparse polynomial; terms map exponent tuples to coefficients.

    Exactly-zero coefficients are dropped, so representations are canonical
    and equality is structural.
    """

    __slots__ = ("nvars", "terms", "is_real", "_partials")

    def __init__(self, nvars, terms=None):
        if nvars < 1:
            raise ValueError("polynomial needs at least one variable")
        clean = {}
        for exps, coef in (terms or {}).items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != nvars or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent tuple {exps} for {nvars} variables")
            c = complex(coef)
            if c != 0:
                clean[exps] = clean.get(exps, 0j) + c
        terms = {e: c for e, c in clean.items() if c != 0}
        object.__setattr__(self, "nvars", int(nvars))
        object.__setattr__(self, "terms", terms)
        # Every imaginary part is zero (either sign); decided once, here.
        object.__setattr__(self, "is_real", all(c.imag == 0 for c in terms.values()))
        object.__setattr__(self, "_partials", None)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars):
        return cls(nvars, {})

    @classmethod
    def constant(cls, nvars, value):
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def variable(cls, nvars, index):
        if not 0 <= index < nvars:
            raise ValueError(f"variable index {index} out of range for {nvars} variables")
        exps = [0] * nvars
        exps[index] = 1
        return cls(nvars, {tuple(exps): 1.0})

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self):
        return not self.terms

    @property
    def degree(self):
        """Total degree; zero polynomial reports 0."""
        return max((sum(e) for e in self.terms), default=0)

    def terms_sorted(self):
        return sorted(self.terms.items(), key=lambda item: monomial_key(item[0]))

    def max_abs_coeff(self):
        return max((abs(c) for c in self.terms.values()), default=0.0)

    def __eq__(self, other):
        return (isinstance(other, Polynomial) and self.nvars == other.nvars
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __repr__(self):
        return f"Polynomial({self.nvars}, {self.to_string()!r})"

    # -- arithmetic --------------------------------------------------------

    def _check_same(self, other):
        if self.nvars != other.nvars:
            raise ValueError("variable counts differ")

    def __add__(self, other):
        if np.isscalar(other):
            other = Polynomial.constant(self.nvars, other)
        self._check_same(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, 0j) + c
        return Polynomial(self.nvars, terms)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if np.isscalar(other):
            other = Polynomial.constant(self.nvars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if np.isscalar(other):
            return Polynomial(self.nvars, {e: c * other for e, c in self.terms.items()})
        self._check_same(other)
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = terms.get(e, 0j) + c1 * c2
        return Polynomial(self.nvars, terms)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power")
        result = Polynomial.constant(self.nvars, 1.0)
        for _ in range(int(k)):
            result = result * self
        return result

    def conjugate(self):
        """Complex-conjugate coefficients (the conjugate function of real inputs)."""
        return Polynomial(self.nvars, {e: c.conjugate() for e, c in self.terms.items()})

    # -- calculus ----------------------------------------------------------

    def diff(self, axis):
        """Exact partial derivative along one variable."""
        if not 0 <= axis < self.nvars:
            raise ValueError(f"axis {axis} out of range")
        terms = {}
        for e, c in self.terms.items():
            if e[axis] == 0:
                continue
            e2 = list(e)
            e2[axis] -= 1
            terms[tuple(e2)] = c * e[axis]
        return Polynomial(self.nvars, terms)

    def partials(self):
        """Every exact partial, ``partials()[k] == diff(k)``; built on first
        use and kept."""
        if self._partials is None:
            object.__setattr__(self, "_partials",
                               tuple(self.diff(k) for k in range(self.nvars)))
        return self._partials

    # -- evaluation --------------------------------------------------------

    def evaluate(self, points):
        """Values (P,) at a batch (P, nvars); dtype as in ``_values``."""
        return _values([self], points)[:, 0]

    __call__ = evaluate

    def gradient(self, points):
        """All partials at a batch (P, nvars): shape (P, nvars)."""
        return _values(self.partials(), points)

    def compose(self, inner):
        """Substitute ``inner`` (a sequence of nvars polynomials) for the variables."""
        if len(inner) != self.nvars:
            raise ValueError("need one inner polynomial per variable")
        m = inner[0].nvars
        if any(q.nvars != m for q in inner):
            raise ValueError("inner polynomials disagree on variable count")
        result = Polynomial.zero(m)
        for e, c in self.terms.items():
            term = Polynomial.constant(m, c)
            for k, power in enumerate(e):
                if power:
                    term = term * inner[k] ** power
            result = result + term
        return result

    def to_string(self):
        return format_polynomial(self)


# ---------------------------------------------------------------------------
# parsing and canonical formatting
# ---------------------------------------------------------------------------

_NUM = r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_COMPLEX_RE = re.compile(rf"\(\s*([+-]?{_NUM})\s*([+-]{_NUM})\s*i\s*\)")
_NUM_RE = re.compile(_NUM)
_VAR_RE = re.compile(r"([A-Za-z]+)(\d+)(?:\^(\d+))?")


def _split_terms(text):
    """Yield (sign, body, offset) for '+'/'-'-separated top-level terms."""
    terms = []
    depth = 0
    sign = 1
    start = 0
    i = 0
    if not text.strip():
        raise PolynomialParseError("empty polynomial string")
    while i < len(text):
        ch = text[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise PolynomialParseError("unbalanced ')'", i)
        elif ch in "+-" and depth == 0:
            prev = text[:i].rstrip()
            if not prev or prev.endswith(("*", "^")):
                pass  # unary sign inside the current term, handled below
            elif prev[-1] in "eE" and len(prev) > 1 and (prev[-2].isdigit() or prev[-2] == "."):
                pass  # exponent sign of a scientific literal
            else:
                terms.append((sign, text[start:i], start))
                sign = 1 if ch == "+" else -1
                start = i + 1
        i += 1
    if depth != 0:
        raise PolynomialParseError("unbalanced '('", len(text) - 1)
    terms.append((sign, text[start:], start))
    return terms


def _parse_factor(factor, offset, nvars):
    """Return (coef, exponent_list) contribution of one '*'-joined factor."""
    body = factor.strip()
    if not body:
        raise PolynomialParseError("empty factor", offset)
    offset += factor.index(body)
    pair = _COMPLEX_RE.fullmatch(body)
    if pair or _NUM_RE.fullmatch(body):
        value = (complex(float(pair.group(1)), float(pair.group(2))) if pair
                 else complex(float(body)))
        if not np.isfinite(value):
            raise PolynomialParseError(f"literal {body!r} is not finite", offset)
        return value, None
    m = _VAR_RE.fullmatch(body)
    if m:
        prefix, idx, power = m.group(1), int(m.group(2)), m.group(3)
        if prefix != "x":
            raise PolynomialParseError(
                f"unknown variable prefix {prefix!r} (expected 'x')", offset)
        if not 1 <= idx <= nvars:
            raise PolynomialParseError(
                f"variable {prefix}{idx} out of range 1..{nvars}", offset)
        return None, (idx - 1, 1 if power is None else int(power))
    raise PolynomialParseError(f"cannot parse factor {body!r}", offset)


def parse_polynomial(text, nvars, max_degree=None):
    """Parse the term grammar into a Polynomial.

    Raises PolynomialParseError with an offset on malformed input, and when
    ``max_degree`` is given, on terms beyond that total degree.
    """
    if not isinstance(text, str):
        raise PolynomialParseError(f"polynomial must be a string, got {type(text).__name__}")
    terms = {}
    for sign, body, t_off in _split_terms(text):
        stripped = body.strip()
        while stripped.startswith(("+", "-")):
            if stripped[0] == "-":
                sign = -sign
            stripped = stripped[1:].lstrip()
        if not stripped:
            raise PolynomialParseError("sign without a term", t_off)
        t_off += body.index(stripped)
        coef = complex(sign)
        exps = [0] * nvars
        depth = 0
        pieces, piece_start = [], 0
        for i, ch in enumerate(stripped):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif ch == "*" and depth == 0:
                pieces.append((stripped[piece_start:i], t_off + piece_start))
                piece_start = i + 1
        pieces.append((stripped[piece_start:], t_off + piece_start))
        for piece, offset in pieces:
            c, var = _parse_factor(piece, offset, nvars)
            if c is not None:
                coef *= c
            else:
                idx, power = var
                exps[idx] += power
        if max_degree is not None and sum(exps) > max_degree:
            raise PolynomialParseError(
                f"term degree {sum(exps)} exceeds cap {max_degree}", t_off)
        key = tuple(exps)
        terms[key] = terms.get(key, 0j) + coef
        if not np.isfinite(terms[key]):
            raise PolynomialParseError("coefficient is not finite", t_off)
    return Polynomial(nvars, terms)


def format_polynomial(p):
    """Canonical text form: graded term order, 17-significant-digit coefficients."""
    if p.is_zero:
        return "0"
    rendered = []
    for exps, coef in p.terms_sorted():
        mono = "*".join(
            f"x{k + 1}" + (f"^{e}" if e > 1 else "")
            for k, e in enumerate(exps) if e)
        if coef.imag == 0.0:
            sign = "-" if coef.real < 0 else "+"
            lit = fmt_float(abs(coef.real))
        else:
            sign = "+"
            lit = fmt_complex(coef)
        rendered.append((sign, f"{lit}*{mono}" if mono else lit))
    head_sign, head = rendered[0]
    text = ("-" if head_sign == "-" else "") + head
    for sign, body in rendered[1:]:
        text += f" {sign} {body}"
    return text


# ---------------------------------------------------------------------------
# polynomial maps
# ---------------------------------------------------------------------------

class PolyMap:
    """Polynomial map between coordinate spaces; components share a variable count.

    Used both for real local maps (float points) and for holomorphic maps of
    chart coordinates (complex points); evaluation and the exact Jacobian work
    the same way in either case.
    """

    __slots__ = ("components",)

    def __init__(self, components):
        components = tuple(components)
        if not components:
            raise ValueError("map needs at least one component")
        n = components[0].nvars
        if any(c.nvars != n for c in components):
            raise ValueError("components disagree on variable count")
        object.__setattr__(self, "components", components)

    def __setattr__(self, name, value):
        raise AttributeError("PolyMap is immutable")

    @classmethod
    def identity(cls, nvars):
        return cls([Polynomial.variable(nvars, k) for k in range(nvars)])

    @property
    def nvars(self):
        return self.components[0].nvars

    @property
    def ncomponents(self):
        return len(self.components)

    @property
    def degree(self):
        return max(c.degree for c in self.components)

    def evaluate(self, points):
        """Values at a batch (P, nvars), shape (P, ncomponents)."""
        return _values(self.components, points)

    __call__ = evaluate

    def jacobian(self, points):
        """Exact Jacobian at a batch (P, nvars), shape (P, ncomponents, nvars)."""
        out = _values([d for c in self.components for d in c.partials()], points)
        return out.reshape(len(out), self.ncomponents, self.nvars)

    def compose(self, inner):
        """Symbolic composition self o inner."""
        return PolyMap([c.compose(inner.components) for c in self.components])

    def __eq__(self, other):
        return isinstance(other, PolyMap) and self.components == other.components

    def __hash__(self):
        return hash(self.components)

    def to_strings(self):
        return tuple(format_polynomial(c) for c in self.components)

    def __repr__(self):
        return f"PolyMap({list(self.to_strings())})"


def _values(polys, points):
    """Values (P, len(polys)) of polynomials in nvars variables at a batch
    (P, nvars), which must have that shape; the one evaluation loop.

    float64 when every coefficient and every point is real, complex
    otherwise.  Each x**p is computed once and shared by all terms and
    polynomials; each term multiplies its coefficient by its factors in
    exponent order and is added to a zero start.  So a complex value has the
    bits of the term-by-term complex loop, and a real one has the bits of
    that loop's real part wherever that is finite; where it is not, the
    real value is not finite either (inf may stand where it reads nan).
    """
    nvars = polys[0].nvars
    pts = np.asarray(points)
    if pts.ndim != 2 or pts.shape[1] != nvars:
        raise ValueError(f"points must be a (P, {nvars}) array, got shape {pts.shape}")
    real = pts.dtype.kind != "c" and all(p.is_real for p in polys)
    out = np.zeros((pts.shape[0], len(polys)), dtype=float if real else complex)
    powers = {}
    for j, p in enumerate(polys):
        for e, c in p.terms.items():
            term = c.real if real else c
            for k, power in enumerate(e):
                if power:
                    if (k, power) not in powers:
                        powers[k, power] = pts[:, k] ** power
                    term = term * powers[k, power]
            out[:, j] += term
    return out
