import hashlib
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from ringtasep.core import TypeVector, reverse_permutation, swap_values
from ringtasep.count import (
    PathFamilySpec,
    PositionVector,
    bottom_position_census,
    bottom_word_counts,
    check_swap_vector,
    count_bottom_reverse,
    count_bottom_reverse_multi_swap,
    count_bottom_reverse_swap,
    det_fraction_free,
    enumerate_mlqs,
    lgv_brute,
    lgv_count,
    mlq_bottom_count,
    monotone_path_count,
    reverse_path_spec,
    total_mlq_count,
)
from ringtasep.mlq import bottom_word, label_mlq


def test_total_count_examples():
    assert total_mlq_count(TypeVector((1, 1), 4)) == 24
    assert total_mlq_count(TypeVector((1,), 5)) == 5
    assert total_mlq_count(TypeVector((1, 1, 1), 5)) == 500


def test_total_count_matches_enumeration():
    t = TypeVector((1, 1, 1), 5)
    assert sum(1 for _ in enumerate_mlqs(t)) == 500
    t = TypeVector((2, 1), 4)
    assert sum(1 for _ in enumerate_mlqs(t)) == total_mlq_count(t)


def _oracle_word_counts(t):
    """Naive oracle: label every queue of the type one by one."""
    out: dict = {}
    for q in enumerate_mlqs(t):
        w = bottom_word(label_mlq(q)).sites
        out[w] = out.get(w, 0) + 1
    return out


def test_bottom_word_counts_matches_naive_enumeration():
    t = TypeVector((2, 1), 5)
    counts = bottom_word_counts(t)
    assert sum(counts.values()) == total_mlq_count(t)
    assert counts == _oracle_word_counts(t)


@pytest.mark.parametrize(
    "m, N", [((1, 1, 1), 5), ((2, 1, 1), 6), ((1, 2), 5), ((1, 1, 1, 1), 6), ((3, 1), 6)]
)
def test_transfer_word_counts_match_oracle(m, N):
    t = TypeVector(m, N)
    assert bottom_word_counts(t) == _oracle_word_counts(t)


@pytest.mark.parametrize("n, N", [(3, 5), (4, 6)])
def test_transfer_position_census_matches_oracle(n, N):
    oracle: dict = {}
    for q in enumerate_mlqs(TypeVector((1,) * n, N)):
        key = (label_mlq(q).labels[-1], q.rows[-1])
        oracle[key] = oracle.get(key, 0) + 1
    assert bottom_position_census(n, N) == oracle


@st.composite
def _small_type(draw):
    """A type on at most 7 sites with at most 5*10^4 queues."""
    N = draw(st.integers(1, 7))
    m = [draw(st.integers(1, N))]
    while sum(m) < N and len(m) < 4 and draw(st.booleans()):
        m.append(draw(st.integers(1, N - sum(m))))
    t = TypeVector(tuple(m), N)
    assume(total_mlq_count(t) <= 5 * 10**4)
    return t


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_small_type())
def test_transfer_matches_oracle_on_random_types(t):
    assert bottom_word_counts(t) == _oracle_word_counts(t)


def test_large_census_is_pinned():
    # SHA-256 of the sorted census as recorded by the depth-first sweep
    # that labelled all 3,781,575 queues one by one; the naive oracle is
    # too slow at this size.
    census = bottom_position_census(5, 7)
    assert sum(census.values()) == total_mlq_count(TypeVector((1,) * 5, 7))
    digest = hashlib.sha256(repr(sorted(census.items())).encode()).hexdigest()
    assert digest == "cf633929152872f9433a2750a59a1b5422b731e370b51a54e48c0f7e8e668436"


def test_brute_counts_examples():
    assert mlq_bottom_count((1, 2), (0, 1), 4) == 3
    assert mlq_bottom_count((2, 1), (0, 1), 4) == 1


def test_census_sums_to_total():
    census = bottom_position_census(2, 4)
    assert sum(census.values()) == total_mlq_count(TypeVector((1, 1), 4))


def test_closed_form_two_rows():
    # counts for both two-letter bottom rows have first-order closed forms
    N = 5
    for b in itertools.combinations(range(N), 2):
        assert mlq_bottom_count((1, 2), b, N) == N - b[1] + b[0]
        assert mlq_bottom_count((2, 1), b, N) == b[1] - b[0]


def test_reverse_count_examples():
    assert count_bottom_reverse((0, 2)) == 2
    assert count_bottom_reverse((0, 1, 2)) == 1
    assert mlq_bottom_count((3, 2, 1), (0, 1, 2), 4) == 1


def test_reverse_count_vs_brute():
    for n in (2, 3):
        w0 = reverse_permutation(n)
        for N in range(n, 7):
            census = bottom_position_census(n, N)
            for b in itertools.combinations(range(N), n):
                assert count_bottom_reverse(b) == census.get((w0, b), 0)


def test_reverse_det_vs_product_sweep():
    for n in (2, 3, 4):
        for b in itertools.combinations(range(10), n):
            count_bottom_reverse(b)  # raises on any route disagreement


def test_swap_count_example():
    assert count_bottom_reverse_swap(1, (0, 1), 4) == 3


def test_swap_count_vs_brute():
    for n, k in [(2, 1), (3, 1), (3, 2), (4, 1), (4, 2)]:
        pi = swap_values(reverse_permutation(n), k)
        for N in range(n, 7):
            census = bottom_position_census(n, N)
            for b in itertools.combinations(range(N), n):
                assert count_bottom_reverse_swap(k, b, N) == census.get((pi, b), 0)


def test_swap_vector_admissibility():
    check_swap_vector((3, 1), 4)
    with pytest.raises(ValueError):
        check_swap_vector((2, 1), 4)  # needs k1 > k2+1
    with pytest.raises(ValueError):
        check_swap_vector((4,), 4)  # needs n > k1
    with pytest.raises(ValueError):
        count_bottom_reverse_multi_swap((2, 1), (0, 1, 2, 3), 5)


def test_multi_swap_single_reduces_up_to_sign():
    for n, k in [(3, 1), (3, 2), (4, 2), (4, 3)]:
        for N in range(n, 7):
            for b in itertools.combinations(range(N), n):
                assert count_bottom_reverse_multi_swap((k,), b, N) == -count_bottom_reverse_swap(k, b, N)


def test_multi_swap_empty_subset_term_is_vandermonde():
    # the S = {} term of the alternating sum is the plain reverse count
    b = (0, 2, 5, 6)
    total = count_bottom_reverse_multi_swap((3, 1), b, 8)
    # sign restored, the formula must match the brute count
    pi = swap_values(swap_values(reverse_permutation(4), 1), 3)
    assert total == bottom_position_census(4, 8).get((pi, b), 0)


def test_det_fraction_free_examples():
    assert det_fraction_free([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 1
    assert det_fraction_free([[1, 0], [1, 2]]) == 2
    assert det_fraction_free([[Fraction(1, 2), 1], [1, 2]]) == 0


def test_det_fraction_free_vs_cofactor():
    def cofactor_det(m):
        n = len(m)
        if n == 1:
            return m[0][0]
        total = 0
        for j in range(n):
            minor = [row[:j] + row[j + 1 :] for row in m[1:]]
            total += (-1) ** j * m[0][j] * cofactor_det(minor)
        return total

    rng = random.Random(5)
    for _ in range(20):
        m = [[rng.randint(-9, 9) for _ in range(5)] for _ in range(5)]
        assert det_fraction_free(m) == cofactor_det(m)


def test_det_requires_square():
    with pytest.raises(ValueError):
        det_fraction_free([[1, 2, 3], [4, 5, 6]])


def test_position_vector_validation():
    PositionVector((0, 2, 5), 8)
    with pytest.raises(ValueError):
        PositionVector((2, 2), 8)
    with pytest.raises(ValueError):
        PositionVector((0, 9), 8)


def test_lgv_single_path():
    spec = PathFamilySpec(((0, 0),), ((1, 2),))
    assert monotone_path_count((0, 0), (1, 2)) == 3
    assert lgv_count(spec) == lgv_brute(spec) == 3


def test_lgv_reverse_spec_matches_formula():
    for n in (2, 3):
        for b in itertools.combinations(range(6), n):
            spec = reverse_path_spec(b)
            assert lgv_count(spec) == lgv_brute(spec) == count_bottom_reverse(b)


def test_lgv_blocked_family():
    # crossing-forced endpoints: no disjoint identity family exists
    spec = PathFamilySpec(((0, 0), (0, 1)), ((2, 1), (2, 0)))
    assert lgv_brute(spec) == 0
    # unreachable endpoints: both routes vanish
    dead = PathFamilySpec(((0, 1), (0, 2)), ((1, 0), (2, 0)))
    assert lgv_count(dead) == lgv_brute(dead) == 0


def test_lgv_vs_brute_random_small():
    rng = random.Random(9)
    for _ in range(30):
        rows = sorted(rng.sample(range(4), 2), reverse=True)
        cols = sorted(rng.sample(range(4), 2))
        starts = tuple((r, 0) for r in rows)
        ends = tuple((4, c) for c in cols)
        spec = PathFamilySpec(starts, ends)
        assert lgv_count(spec) == lgv_brute(spec)
