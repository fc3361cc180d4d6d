"""Sparse polynomial algebra for writing benchmark scenarios.

The benchmark builds structures and their almost-holomorphic coordinates in
exact term arithmetic of its own and hands them to spencerkit only as
polynomial strings inside scenario files, so the program under test never
sees a benchmark-side object.
"""


class Poly:
    """Polynomial in ``nvars`` real variables with complex coefficients."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        self.terms = {e: complex(c) for e, c in (terms or {}).items() if c != 0}

    @classmethod
    def const(cls, nvars, value):
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def var(cls, nvars, k):
        e = [0] * nvars
        e[k] = 1
        return cls(nvars, {tuple(e): 1.0})

    @property
    def degree(self):
        return max((sum(e) for e in self.terms), default=0)

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return Poly(self.nvars, out)

    def __sub__(self, other):
        return self + other.scale(-1.0)

    def __mul__(self, other):
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return Poly(self.nvars, out)

    def scale(self, factor):
        return Poly(self.nvars, {e: c * factor for e, c in self.terms.items()})

    def diff(self, axis):
        out = {}
        for e, c in self.terms.items():
            if e[axis]:
                e2 = list(e)
                e2[axis] -= 1
                out[tuple(e2)] = c * e[axis]
        return Poly(self.nvars, out)

    def conjugate(self):
        return Poly(self.nvars, {e: c.conjugate() for e, c in self.terms.items()})

    def text(self):
        """The term grammar of ``spencerkit.parse_polynomial``."""
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, key=lambda e: (sum(e), e)):
            c = self.terms[e]
            mono = "*".join(f"x{k + 1}" + (f"^{p}" if p > 1 else "")
                            for k, p in enumerate(e) if p)
            if c.imag == 0.0:
                sign = "-" if c.real < 0 else "+"
                lit = f"{abs(c.real):.17g}"
            else:
                sign = "+"
                lit = f"({c.real:.17g}{c.imag:+.17g}i)"
            parts.append((sign, f"{lit}*{mono}" if mono else lit))
        text = ("-" if parts[0][0] == "-" else "") + parts[0][1]
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text


def matmul(a, b):
    """Product of two square matrices with Poly entries."""
    size = len(a)
    nvars = a[0][0].nvars
    out = []
    for i in range(size):
        row = []
        for j in range(size):
            acc = Poly(nvars)
            for k in range(size):
                acc = acc + a[i][k] * b[k][j]
            row.append(acc)
        out.append(row)
    return out
