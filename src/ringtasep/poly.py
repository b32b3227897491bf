"""Sparse multivariate polynomials over the rationals.

Polynomials live in a fixed number of variables q1..qn, stored as a map
from exponent vectors to nonzero coefficients: an int stays an int and
any other number becomes a Fraction, and every division goes through
Fraction, so no coefficient is ever a float.  Enough calculus is provided
for the density-function work: partial derivatives, the Laplacian, linear
constant-coefficient differential operators, and exact integration over
intervals and over the ordered simplex 0 < q1 < ... < qn < 1.

The densities are kept in the cyclic gaps instead: variable g of a gap
form is L_g = q_{g+2} - q_{g+1} for g < n-1, and L_{n-1} = 1 - q_n + q1,
so the gaps sum to 1.  A gap form is held in divided powers: the
coefficient at exponent c is that of L^[c] = prod_g L_g^{c_g} / c_g!, so
the census densities have integer coefficients.  A density is a
homogeneous gap form, and two homogeneous forms of one degree agree on
sum L = 1 only if they are equal, so their exponent dicts compare
exactly.  The gap_* functions and OperatorExpr.apply_gaps do the density
calculus on that side, in integers where the operator's are:
- d/dq_i acts as d/dL_{i-1} - d/dL_i (indices mod n), and d/dL_g is an
  index shift, L^[c] to L^[c - e_g] with coefficient 1;
- a gap multiplies by the product rule L_g L^[c] = (c_g + 1) L^[c + e_g];
- the top q-degree part sets L_{n-1} = -(L_0 + ... + L_{n-2});
- the ordered-simplex integral is a Dirichlet integral, with weight
  (c_{n-1} + 1) / (|c| + n)! on L^[c].
Only `MultiPoly`'s linear operations (+, -, scaling, ==) act on gap
forms; its product is the product in the ordinary basis.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import factorial

from .core import rat_str


def _coef(c):
    """An int coefficient as it is; any other number as a Fraction."""
    return c if type(c) is int else Fraction(c)


class MultiPoly:
    """Polynomial in nvars variables with exact rational coefficients."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict | None = None):
        self.nvars = nvars
        clean = {}
        for exps, c in (terms or {}).items():
            c = _coef(c)
            if c == 0:
                continue
            exps = tuple(exps)
            if len(exps) != nvars or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent vector {exps} for {nvars} variables")
            clean[exps] = c
        self.terms = clean

    @classmethod
    def _of(cls, nvars: int, terms: dict) -> "MultiPoly":
        """The polynomial of terms built inside the package, with int or
        Fraction coefficients over exponent tuples: zero coefficients are
        dropped and nothing is re-validated."""
        p = cls.__new__(cls)
        p.nvars = nvars
        p.terms = {e: c for e, c in terms.items() if c}
        return p

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "MultiPoly":
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, c) -> "MultiPoly":
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def one(cls, nvars: int) -> "MultiPoly":
        return cls.constant(nvars, 1)

    @classmethod
    def variable(cls, nvars: int, i: int) -> "MultiPoly":
        """The monomial q_{i+1} (0-based variable index)."""
        exps = [0] * nvars
        exps[i] = 1
        return cls(nvars, {tuple(exps): 1})

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
            terms[e] = terms.get(e, 0) + c
        return MultiPoly._of(self.nvars, terms)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._of(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other if isinstance(other, MultiPoly) else -_coef(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            c = _coef(other)
            return MultiPoly._of(self.nvars, {e: k * c for e, k in self.terms.items()})
        self._check_arity(other)
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return MultiPoly._of(self.nvars, out)

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

    def coefficient(self, exps) -> Fraction:
        return self.terms.get(tuple(exps), Fraction(0))

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
                out[e2] = out.get(e2, 0) + c * k
            p = MultiPoly._of(self.nvars, out)
        return p

    def antiderivative(self, var: int) -> "MultiPoly":
        out = {}
        for e, c in self.terms.items():
            k = e[var]
            e2 = e[:var] + (k + 1,) + e[var + 1 :]
            out[e2] = Fraction(c, k + 1)
        return MultiPoly._of(self.nvars, out)

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
            out[e2] = out.get(e2, 0) + c
        return MultiPoly._of(self.nvars, out)

    def subs_value(self, var: int, value) -> "MultiPoly":
        """Substitute a rational constant for one variable."""
        value = _coef(value)
        out = {}
        for e, c in self.terms.items():
            c2 = c * value ** e[var]
            e2 = e[:var] + (0,) + e[var + 1 :]
            out[e2] = out.get(e2, 0) + c2
        return MultiPoly._of(self.nvars, out)

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


def laplacian(p: MultiPoly) -> MultiPoly:
    """Sum of the second partials in every variable."""
    out = MultiPoly.zero(p.nvars)
    for i in range(p.nvars):
        out = out + p.derivative(i, 2)
    return out


def _gap_times(terms: dict, lo: int, hi: int) -> dict:
    """(L_lo + ... + L_{hi-1}) times the divided-power form of terms, as
    terms, by the product rule L_g L^[c] = (c_g + 1) L^[c + e_g]."""
    out: dict = {}
    for e, c in terms.items():
        for g in range(lo, hi):
            k = e[g] + 1
            e2 = e[:g] + (k,) + e[g + 1 :]
            out[e2] = out.get(e2, 0) + k * c
    return out


def _gap_symbol(orders) -> MultiPoly:
    """prod_i d^{orders[i]}/dq_i^{orders[i]} on the gap side, as a polynomial
    whose variable g stands for d/dL_g: each d/dq_i is d/dL_{i-1} - d/dL_i."""
    n = len(orders)
    p = MultiPoly.one(n)
    for i, k in enumerate(orders):
        if k:
            p = p * (MultiPoly.variable(n, i - 1) - MultiPoly.variable(n, i)) ** k
    return p


def _apply_symbol(symbol: MultiPoly, p: MultiPoly) -> dict:
    """sum over the monomials x^b of the symbol of its coefficient times
    d^b p / dL^b, as terms: d^b L^[e] is L^[e - b], or 0 if e - b < 0.
    Each b shifts only its nonzero places."""
    out: dict = {}
    for b, s in symbol.terms.items():
        shift = [(g, y) for g, y in enumerate(b) if y]
        for e, c in p.terms.items():
            key = list(e)
            for g, y in shift:
                key[g] -= y
                if key[g] < 0:
                    break
            else:
                key = tuple(key)
                out[key] = out.get(key, 0) + s * c
    return out


def gap_laplacian(p: MultiPoly) -> MultiPoly:
    """The Laplacian in q of a gap form, sum_i (d/dL_{i-1} - d/dL_i)^2, in one
    pass over p.  It is homogeneous, so it is zero exactly when the q-side
    Laplacian is."""
    return MultiPoly._of(p.nvars, _apply_symbol(_laplacian_symbol(p.nvars), p))


@cache
def _laplacian_symbol(n: int) -> MultiPoly:
    """sum_i (d/dL_{i-1} - d/dL_i)^2 as a `_gap_symbol` polynomial, one per n."""
    return sum((_gap_symbol(tuple(2 * (g == i) for g in range(n))) for i in range(n)), MultiPoly.zero(n))


def gap_leading_part(p: MultiPoly) -> MultiPoly:
    """The top q-degree part of a homogeneous gap form: L_{n-1}, whose q-side
    is 1 - q_n + q1, becomes its linear part X = -(L_0 + ... + L_{n-2}).

    p is sum_k A_k L_{n-1}^k / k! with A_k free of L_{n-1}, so the part is
    sum_k A_k X^k / k!.  Horner's rule runs on K! times it, with K the top
    power, in the coefficients' own arithmetic: each step multiplies by
    L_0 + ... + L_{n-2} and adds (-1)^k K!/k! A_k.  The division by K! at
    the end is exact for integer forms, since X^k / k! has integer
    coefficients in divided powers; a coefficient it leaves a remainder on
    is refused with a RuntimeError, never rounded.
    """
    n = p.nvars
    by_power: dict[int, dict] = {}
    for e, c in p.terms.items():
        by_power.setdefault(e[-1], {})[e[:-1] + (0,)] = c
    top = max(by_power, default=0)
    out: dict = {}
    scale = (-1) ** top  # (-1)^k top! / k!
    for k in range(top, -1, -1):
        out = _gap_times(out, 0, n - 1)
        for e, c in by_power.get(k, {}).items():
            out[e] = out.get(e, 0) + scale * c
        scale *= -k
    whole = factorial(top)
    part = {}
    for e, c in out.items():
        part[e], rest = divmod(c, whole)
        if rest:
            raise RuntimeError(f"leading part: coefficient {c} of L^[{e}] is not a multiple of {top}!")
    return MultiPoly._of(n, part)


def vandermonde(n: int) -> MultiPoly:
    """The fully expanded product of (q_l - q_k) over 1 <= k < l <= n."""
    if n < 1:
        raise ValueError("need n >= 1")
    p = MultiPoly.one(n)
    for k in range(n):
        for l in range(k + 1, n):
            p = p * (MultiPoly.variable(n, l) - MultiPoly.variable(n, k))
    return p


def gap_vandermonde(n: int) -> MultiPoly:
    """vandermonde(n) as a gap form: the product over k < l < n of
    L_k + ... + L_{l-1}."""
    if n < 1:
        raise ValueError("need n >= 1")
    terms = {(0,) * n: 1}
    for k in range(n):
        for l in range(k + 1, n):
            terms = _gap_times(terms, k, l)
    return MultiPoly._of(n, terms)


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

    def apply_gaps(self, p: MultiPoly) -> MultiPoly:
        """The operator on a homogeneous gap form, homogenised: a term of
        total order k is multiplied by (L_0 + ... + L_{n-1})^k, which is 1
        on the gaps' simplex, so the image has p's degree and compares
        exactly with another gap form of that degree."""
        n = self.nvars
        if p.nvars != n:
            raise ValueError("arity mismatch")
        out: dict = {}
        for c, orders in self.terms:
            image = _apply_symbol(_gap_symbol(orders), p)
            for _ in range(sum(orders)):
                image = _gap_times(image, 0, n)
            for e, v in image.items():
                out[e] = out.get(e, 0) + c * v
        return MultiPoly._of(n, out)


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


def integrate_gap_simplex(p: MultiPoly) -> Fraction:
    """integrate_ordered_simplex of a gap form, as a Dirichlet integral.

    Over q1 in (0, L_{n-1}) and the gaps on their simplex, L^c integrates
    to prod_{g<n-1} c_g! * (c_{n-1} + 1)! / (|c| + n)!, so L^[c] integrates
    to (c_{n-1} + 1) / (|c| + n)!.  The weights are summed in the
    coefficients' own arithmetic per degree |c|, and each degree's sum is
    divided once.
    """
    n = p.nvars
    by_degree: dict = {}
    for e, c in p.terms.items():
        d = sum(e)
        by_degree[d] = by_degree.get(d, 0) + c * (e[-1] + 1)
    return sum((Fraction(v, factorial(d + n)) for d, v in by_degree.items()), Fraction(0))
