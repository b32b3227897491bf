from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ringtasep.core import (
    RingWord,
    TypeVector,
    VACANT,
    binomial,
    cyclic_canonical,
    inversions,
    parse_rat,
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
    assert parse_rat(rat_str(x)) == x


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


def test_cyclic_canonical_examples():
    w, off = cyclic_canonical(RingWord((2, 1, VACANT)))
    assert w.sites == (1, VACANT, 2)
    assert off == 1
    w, off = cyclic_canonical(RingWord((1, 2, 3)))
    assert (w.sites, off) == ((1, 2, 3), 0)
    w, off = cyclic_canonical(RingWord((VACANT, VACANT, VACANT)))
    assert (w.sites, off) == ((VACANT, VACANT, VACANT), 0)


def test_cyclic_canonical_rotation_invariant_exhaustive():
    import itertools

    for N in range(1, 9):
        for sites in itertools.product((VACANT, 1, 2), repeat=N):
            w = RingWord(sites)
            canon, _ = cyclic_canonical(w)
            for k in range(N):
                assert cyclic_canonical(w.rotate(k))[0] == canon


def test_min_rotation_matches_cyclic_canonical_on_whole_types():
    # every state of a few types, periodic words among them, and the
    # all-vacant word; the oracle takes the least (rotation key, offset)
    from ringtasep.markov import enumerate_states

    def oracle(sites):
        key = [s if s != VACANT else max(sites) + 1 for s in sites]
        off = min(range(len(sites)), key=lambda k: (key[k:] + key[:k], k))
        return sites[off:] + sites[:off], off

    words = [(VACANT,) * 5]
    for m, N in (((2,), 4), ((2, 2), 4), ((1, 1, 1), 6), ((3, 3), 6), ((2, 1), 6), ((1, 1, 1, 1), 8)):
        words += enumerate_states(TypeVector(m, N))
    assert {(1, VACANT, 1, VACANT), (1, 2, 1, 2), (1, 2) * 3} <= set(words)
    for sites in words:
        w, off = cyclic_canonical(RingWord(sites))
        assert (w.sites, off) == oracle(sites)


def test_cyclic_canonical_idempotent():
    w, _ = cyclic_canonical(RingWord((3, 1, VACANT, 2)))
    assert cyclic_canonical(w)[0] == w


def test_ring_word_helpers():
    w = RingWord((VACANT, 1, VACANT, 2))
    assert w.particles() == [(1, 1), (3, 2)]
    assert w.type_vector() == TypeVector((1, 1), 4)
    assert w.with_vacancy_class(2) == (3, 1, 3, 2)
    assert word_string(w) == ".1.2"
    assert w.rotate(1).sites == (1, VACANT, 2, VACANT)


def test_permutation_helpers():
    assert reverse_permutation(4) == (4, 3, 2, 1)
    assert swap_values((4, 3, 2, 1), 1) == (4, 3, 1, 2)
    assert swap_values((4, 3, 2, 1), 3) == (3, 4, 2, 1)
    assert inversions((4, 3, 2, 1)) == 6
    assert inversions((1, 2, 3)) == 0
    with pytest.raises(ValueError):
        swap_values((2, 1), 2)
