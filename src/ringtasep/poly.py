"""Sparse multivariate polynomials over the rationals.

Polynomials live in a fixed number of variables q1..qn, stored as a map
from exponent vectors to nonzero Fraction coefficients.  Enough calculus
is provided for the density-function work: partial derivatives, the
Laplacian, linear constant-coefficient differential operators, and exact
integration over intervals and over the ordered simplex
0 < q1 < ... < qn < 1.
"""

from dataclasses import dataclass
from fractions import Fraction

from .core import rat_str, parse_rat


class MultiPoly:
    """Polynomial in nvars variables with exact rational coefficients."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict | None = None):
        self.nvars = nvars
        clean = {}
        for exps, c in (terms or {}).items():
            c = Fraction(c)
            if c == 0:
                continue
            exps = tuple(exps)
            if len(exps) != nvars or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent vector {exps} for {nvars} variables")
            clean[exps] = c
        self.terms = clean

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "MultiPoly":
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, c) -> "MultiPoly":
        return cls(nvars, {(0,) * nvars: Fraction(c)})

    @classmethod
    def one(cls, nvars: int) -> "MultiPoly":
        return cls.constant(nvars, 1)

    @classmethod
    def variable(cls, nvars: int, i: int) -> "MultiPoly":
        """The monomial q_{i+1} (0-based variable index)."""
        exps = [0] * nvars
        exps[i] = 1
        return cls(nvars, {tuple(exps): Fraction(1)})

    # -- ring operations -----------------------------------------------------

    def _check_arity(self, other: "MultiPoly"):
        if self.nvars != other.nvars:
            raise ValueError(f"arity mismatch: {self.nvars} vs {other.nvars}")

    def __add__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.constant(self.nvars, other)
        self._check_arity(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, Fraction(0)) + c
        return MultiPoly(self.nvars, terms)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other if isinstance(other, MultiPoly) else MultiPoly.constant(self.nvars, -Fraction(other)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            c = Fraction(other)
            return MultiPoly(self.nvars, {e: k * c for e, k in self.terms.items()})
        self._check_arity(other)
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return MultiPoly(self.nvars, out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        result = MultiPoly.one(self.nvars)
        for _ in range(k):
            result = result * self
        return result

    def __eq__(self, other):
        return (
            isinstance(other, MultiPoly)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    # -- queries -------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def coefficient(self, exps) -> Fraction:
        return self.terms.get(tuple(exps), Fraction(0))

    def homogeneous_part(self, d: int) -> "MultiPoly":
        return MultiPoly(self.nvars, {e: c for e, c in self.terms.items() if sum(e) == d})

    def evaluate(self, point) -> Fraction:
        point = [Fraction(x) for x in point]
        if len(point) != self.nvars:
            raise ValueError("point arity mismatch")
        total = Fraction(0)
        for e, c in self.terms.items():
            v = c
            for x, k in zip(point, e):
                v *= x**k
            total += v
        return total

    # -- calculus ------------------------------------------------------------

    def derivative(self, var: int, order: int = 1) -> "MultiPoly":
        """Exact partial derivative of the given order in variable var."""
        if order < 0:
            raise ValueError("negative derivative order")
        p = self
        for _ in range(order):
            out = {}
            for e, c in p.terms.items():
                k = e[var]
                if k == 0:
                    continue
                e2 = e[:var] + (k - 1,) + e[var + 1 :]
                out[e2] = out.get(e2, Fraction(0)) + c * k
            p = MultiPoly(self.nvars, out)
        return p

    def antiderivative(self, var: int) -> "MultiPoly":
        out = {}
        for e, c in self.terms.items():
            k = e[var]
            e2 = e[:var] + (k + 1,) + e[var + 1 :]
            out[e2] = c / (k + 1)
        return MultiPoly(self.nvars, out)

    def subs_var_equal(self, src: int, dst: int) -> "MultiPoly":
        """Substitute q_src := q_dst (exponents fold onto dst)."""
        if src == dst:
            return self
        out = {}
        for e, c in self.terms.items():
            e2 = list(e)
            e2[dst] += e2[src]
            e2[src] = 0
            e2 = tuple(e2)
            out[e2] = out.get(e2, Fraction(0)) + c
        return MultiPoly(self.nvars, out)

    def subs_value(self, var: int, value) -> "MultiPoly":
        """Substitute a rational constant for one variable."""
        value = Fraction(value)
        out = {}
        for e, c in self.terms.items():
            c2 = c * value ** e[var]
            e2 = e[:var] + (0,) + e[var + 1 :]
            out[e2] = out.get(e2, Fraction(0)) + c2
        return MultiPoly(self.nvars, out)

    # -- display / serialization ---------------------------------------------

    def _sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: (-sum(t[0]), tuple(-e for e in t[0])))

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for e, c in self._sorted_terms():
            mono = "*".join(
                f"q{i + 1}" + (f"^{k}" if k > 1 else "")
                for i, k in enumerate(e)
                if k > 0
            )
            if not mono:
                parts.append(rat_str(c))
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{rat_str(c)}*{mono}")
        out = " + ".join(parts)
        return out.replace("+ -", "- ")

    def to_json_dict(self) -> dict:
        return {
            "vars": [f"q{i + 1}" for i in range(self.nvars)],
            "terms": [
                {"coef": rat_str(c), "exps": list(e)} for e, c in self._sorted_terms()
            ],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "MultiPoly":
        nvars = len(d["vars"])
        return cls(
            nvars,
            {tuple(t["exps"]): parse_rat(t["coef"]) for t in d["terms"]},
        )


def laplacian(p: MultiPoly) -> MultiPoly:
    """Sum of the second partials in every variable."""
    out = MultiPoly.zero(p.nvars)
    for i in range(p.nvars):
        out = out + p.derivative(i, 2)
    return out


def vandermonde(n: int) -> MultiPoly:
    """The fully expanded product of (q_l - q_k) over 1 <= k < l <= n."""
    if n < 1:
        raise ValueError("need n >= 1")
    p = MultiPoly.one(n)
    for k in range(n):
        for l in range(k + 1, n):
            p = p * (MultiPoly.variable(n, l) - MultiPoly.variable(n, k))
    return p


@dataclass(frozen=True)
class OperatorExpr:
    """Linear combination of constant-coefficient monomial differential
    operators: each term is a scalar times a product of partials, given by
    per-variable derivative orders (the all-zero term is the identity)."""

    nvars: int
    terms: tuple[tuple[Fraction, tuple[int, ...]], ...]

    @classmethod
    def identity(cls, nvars: int) -> "OperatorExpr":
        return cls(nvars, ((Fraction(1), (0,) * nvars),))

    @classmethod
    def partial(cls, nvars: int, orders: dict[int, int], coeff=1) -> "OperatorExpr":
        """coeff * prod_i d^{orders[i]}/dq_i^{orders[i]} (0-based variables)."""
        ov = [0] * nvars
        for i, k in orders.items():
            ov[i] = k
        return cls(nvars, ((Fraction(coeff), tuple(ov)),))

    def _merge(self, terms) -> "OperatorExpr":
        acc: dict = {}
        for c, ov in terms:
            acc[ov] = acc.get(ov, Fraction(0)) + c
        return OperatorExpr(
            self.nvars, tuple((c, ov) for ov, c in sorted(acc.items()) if c != 0)
        )

    def __add__(self, other: "OperatorExpr") -> "OperatorExpr":
        if self.nvars != other.nvars:
            raise ValueError("arity mismatch")
        return self._merge(self.terms + other.terms)

    def __sub__(self, other: "OperatorExpr") -> "OperatorExpr":
        return self + other.scale(-1)

    def scale(self, c) -> "OperatorExpr":
        c = Fraction(c)
        return self._merge(tuple((c * k, ov) for k, ov in self.terms))

    def compose(self, other: "OperatorExpr") -> "OperatorExpr":
        """Operator product; constant coefficients, so orders just add."""
        if self.nvars != other.nvars:
            raise ValueError("arity mismatch")
        prods = []
        for c1, o1 in self.terms:
            for c2, o2 in other.terms:
                prods.append((c1 * c2, tuple(a + b for a, b in zip(o1, o2))))
        return self._merge(tuple(prods))

    def apply(self, p: MultiPoly) -> MultiPoly:
        if p.nvars != self.nvars:
            raise ValueError("arity mismatch")
        out = MultiPoly.zero(p.nvars)
        for c, orders in self.terms:
            q = p
            for var, k in enumerate(orders):
                if k:
                    q = q.derivative(var, k)
            out = out + q * c
        return out


def integrate_interval(p: MultiPoly, lo, hi) -> Fraction:
    """Exact integral of a one-variable polynomial over [lo, hi]."""
    if p.nvars != 1:
        raise ValueError("integrate_interval expects a univariate polynomial")
    F = p.antiderivative(0)
    return F.evaluate([hi]) - F.evaluate([lo])


def integrate_ordered_simplex(p: MultiPoly) -> Fraction:
    """Exact integral over the ordered simplex 0 < q1 < ... < qn < 1.

    Iterated antidifferentiation, innermost variable first: q1 runs from
    0 to q2, then q2 from 0 to q3, and so on; the last variable runs to 1.
    """
    n = p.nvars
    if n == 0:
        raise ValueError("no variables")
    cur = p
    for v in range(n - 1):
        F = cur.antiderivative(v)
        cur = F.subs_var_equal(v, v + 1) - F.subs_value(v, 0)
    F = cur.antiderivative(n - 1)
    return F.evaluate([1] * n) - F.evaluate([0] * n)
