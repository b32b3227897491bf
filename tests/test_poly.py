import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ringtasep.poly import (
    MultiPoly,
    OperatorExpr,
    integrate_interval,
    integrate_ordered_simplex,
    laplacian,
    vandermonde,
)


def q(n, i):
    return MultiPoly.variable(n, i)


@st.composite
def sparse_polys(draw, nvars=3, max_terms=6, max_exp=4):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        exps = tuple(draw(st.integers(0, max_exp)) for _ in range(nvars))
        coef = Fraction(draw(st.integers(-20, 20)), draw(st.integers(1, 7)))
        terms[exps] = coef
    return MultiPoly(nvars, terms)


def test_product_of_conjugates():
    p = (q(2, 1) - q(2, 0)) * (q(2, 1) + q(2, 0))
    assert p == q(2, 1) ** 2 - q(2, 0) ** 2


def test_additive_identity():
    p = q(2, 0) * 3 - MultiPoly.one(2)
    assert p + MultiPoly.zero(2) == p
    assert (p - p).is_zero()


@given(sparse_polys(), sparse_polys(), sparse_polys())
def test_distributivity(a, b, c):
    assert a * (b + c) == a * b + a * c


def test_arity_mismatch():
    with pytest.raises(ValueError):
        MultiPoly.one(2) + MultiPoly.one(3)


def test_vandermonde_small():
    assert vandermonde(2) == q(2, 1) - q(2, 0)
    v3 = vandermonde(3)
    assert len(v3.terms) == 6
    assert v3.coefficient((0, 1, 2)) == 1  # q2 * q3^2


def test_vandermonde_vs_symbolic_determinant():
    # expand det(q_i^(j-1)) by cofactors over polynomial entries
    def sym_det(mat):
        n = len(mat)
        if n == 1:
            return mat[0][0]
        total = MultiPoly.zero(mat[0][0].nvars)
        for j in range(n):
            minor = [row[:j] + row[j + 1 :] for row in mat[1:]]
            term = mat[0][j] * sym_det(minor)
            total = total + (term if j % 2 == 0 else -term)
        return total

    for n in (2, 3, 4):
        mat = [[q(n, i) ** j for j in range(n)] for i in range(n)]
        assert sym_det(mat) == vandermonde(n)


def test_derivative_examples():
    assert (q(2, 1) - q(2, 0)).derivative(1) == MultiPoly.one(2)
    assert (q(1, 0) ** 3).derivative(0, 2) == q(1, 0) * 6


@given(sparse_polys())
def test_derivatives_commute(p):
    assert p.derivative(0).derivative(1) == p.derivative(1).derivative(0)


def test_laplacian_examples():
    assert laplacian(q(2, 0) ** 2 + q(2, 1) ** 2) == MultiPoly.constant(2, 4)
    for n in range(2, 6):
        assert laplacian(vandermonde(n)).is_zero()


def test_operator_apply():
    p = vandermonde(2)
    ident = OperatorExpr.identity(2)
    assert ident.apply(p) == p
    op = OperatorExpr.partial(2, {1: 1}) - ident
    assert op.apply(p) == MultiPoly.one(2) - p


def test_operator_compose():
    a = OperatorExpr.partial(3, {0: 1}) - OperatorExpr.identity(3)
    b = OperatorExpr.partial(3, {2: 2}, Fraction(1, 2))
    p = (q(3, 0) ** 2) * (q(3, 2) ** 3)
    assert a.compose(b).apply(p) == a.apply(b.apply(p))


def test_integrate_interval_examples():
    y = q(1, 0)
    assert integrate_interval(y * 2, 0, 1) == 1
    n = 3
    integrand = (MultiPoly.one(1) - y) ** 2 * y ** (n - 1) * (2 * n)
    assert integrate_interval(integrand, 0, 1) == Fraction(1, 5)


def test_integrate_simplex_examples():
    assert integrate_ordered_simplex(vandermonde(2) * 2) == Fraction(1, 3)
    assert integrate_ordered_simplex(MultiPoly.one(3)) == Fraction(1, 6)


@given(sparse_polys(nvars=2, max_terms=4, max_exp=3), sparse_polys(nvars=2, max_terms=4, max_exp=3))
def test_simplex_integration_linear(a, b):
    assert integrate_ordered_simplex(a + b) == integrate_ordered_simplex(a) + integrate_ordered_simplex(b)


def test_simplex_integration_vs_monte_carlo():
    rng = random.Random(42)
    p = vandermonde(3) * 5 + q(3, 0) * q(3, 2) - MultiPoly.one(3) * Fraction(1, 3)
    exact = float(integrate_ordered_simplex(p))
    # the integrand in floats; MultiPoly.evaluate is checked against it below
    terms = [(float(c), e) for e, c in p.terms.items()]

    def f(x):
        return sum(c * x[0] ** e[0] * x[1] ** e[1] * x[2] ** e[2] for c, e in terms)

    total = 0.0
    samples = 200000
    vol = 1.0 / 6.0
    sq = 0.0
    for i in range(samples):
        pt = sorted(rng.random() for _ in range(3))
        v = f(pt)
        if i < 300:
            assert float(p.evaluate([Fraction(x) for x in pt])) == pytest.approx(v, rel=1e-12, abs=1e-12)
        total += v
        sq += v * v
    mean = total / samples
    stderr = ((sq / samples - mean**2) / samples) ** 0.5
    assert abs(mean * vol - exact) < 3 * stderr * vol + 1e-9


def test_json_roundtrip():
    p = vandermonde(3) * Fraction(2, 7) + q(3, 1) ** 5
    assert MultiPoly.from_json_dict(p.to_json_dict()) == p
    d = p.to_json_dict()
    assert d["vars"] == ["q1", "q2", "q3"]
    assert all("/" in t["coef"] or t["coef"].lstrip("-").isdigit() for t in d["terms"])
