from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ringtasep.core import (
    RingWord,
    TypeVector,
    VACANT,
    binomial,
    inversions,
    rat_str,
    reverse_permutation,
    swap_values,
    word_string,
)


def test_binomial_known_values():
    assert binomial(4, 2) == 6
    assert binomial(5, 0) == 1
    assert binomial(3, 5) == 0
    assert binomial(3, -1) == 0
    assert binomial(-1, 0) == 1
    assert binomial(0, 0) == 1


def test_binomial_pascal_exhaustive():
    for a in range(1, 61):
        for b in range(1, a):
            assert binomial(a, b) == binomial(a - 1, b - 1) + binomial(a - 1, b)


rationals = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4)


@given(rationals, rationals, rationals)
def test_rational_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)


@given(rationals)
def test_rat_str_roundtrip(x):
    assert Fraction(rat_str(x)) == x


def test_rat_str_format():
    assert rat_str(Fraction(3, 1)) == "3"
    assert rat_str(Fraction(37, 77)) == "37/77"
    assert rat_str(Fraction(-1, 2)) == "-1/2"


def test_type_vector_validation():
    t = TypeVector((2, 1, 1), 8)
    assert t.M == (2, 3, 4)
    assert t.particles == 4
    with pytest.raises(ValueError):
        TypeVector((0, 1), 4)
    with pytest.raises(ValueError):
        TypeVector((3, 3), 5)


def test_ring_word_helpers():
    w = RingWord((VACANT, 1, VACANT, 2))
    assert w.particles() == [(1, 1), (3, 2)]
    assert w.type_vector() == TypeVector((1, 1), 4)
    assert word_string(w) == ".1.2"


def test_permutation_helpers():
    assert reverse_permutation(4) == (4, 3, 2, 1)
    assert swap_values((4, 3, 2, 1), 1) == (4, 3, 1, 2)
    assert swap_values((4, 3, 2, 1), 3) == (3, 4, 2, 1)
    assert inversions((4, 3, 2, 1)) == 6
    assert inversions((1, 2, 3)) == 0
    with pytest.raises(ValueError):
        swap_values((2, 1), 2)
