import hashlib
import itertools
import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import assume, given, settings, strategies as st

from ringtasep import count
from ringtasep.core import TypeVector, reverse_permutation, swap_values
from ringtasep.count import (
    PathFamilySpec,
    PositionVector,
    _position_census,
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
from ringtasep.mlq import DiscreteMLQ, bottom_word, label_mlq, transfer


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


@pytest.mark.parametrize("m, N", [((1, 1, 1), 5), ((2, 1), 5), ((1, 2), 5), ((2, 2), 5), ((3, 1), 6), ((2, 1, 1), 5)])
def test_rotating_every_row_rotates_the_bottom_word(m, N):
    # the premise of the census on rotation classes, also where rows have
    # several label-1 boxes
    t = TypeVector(m, N)
    for q in enumerate_mlqs(t):
        w = bottom_word(label_mlq(q)).sites
        for s in range(1, N):
            turned = DiscreteMLQ(t, tuple(tuple(sorted((p + s) % N for p in row)) for row in q.rows))
            assert bottom_word(label_mlq(turned)).sites == w[-s:] + w[:-s]


@pytest.mark.parametrize("m, N", [((2,), 4), ((2, 2), 6), ((3, 3), 6)])
def test_transfer_matches_oracle_where_rotations_fix_rows(m, N):
    # rows such as {0, 2} on N = 4 have fewer than N distinct rotations
    t = TypeVector(m, N)
    assert bottom_word_counts(t) == _oracle_word_counts(t)


def test_census_refuses_empty_types():
    before = _position_census.cache_info().currsize
    for n, N in [(0, 3), (-1, 2), (2, 0), (1, -1)]:
        with pytest.raises(ValueError, match="need n >= 1 and N >= 1"):
            bottom_position_census(n, N)
    with pytest.raises(ValueError, match="need n >= 1 and N >= 1"):
        mlq_bottom_count((), (), 3)
    assert _position_census.cache_info().currsize == before
    assert bottom_position_census(4, 3) == {}


def test_frontier_census_is_pinned():
    # recorded by the census on full labelled rows: 20,160 words summing to
    # 1,376,829,440 = C(8,1) C(8,2) ... C(8,6) queues
    counts = bottom_word_counts(TypeVector((1,) * 6, 8))
    assert len(counts) == 20160 and sum(counts.values()) == 1376829440
    digest = hashlib.sha256(repr(sorted(counts.items())).encode()).hexdigest()
    assert digest == "5e7927cc696741ec9c1bb627ea8cdf7fb9b2a6518f5d6c619b6d6188e3066641"


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


@pytest.mark.parametrize("n, N", [(4, 7), (5, 8)])
def test_position_census_shares_one_positions_tuple_per_box_set(n, N):
    # every word on a box set keys the census with the same tuple object,
    # which keeps the census's memory to one tuple per box set
    census = bottom_position_census(n, N)
    assert len({id(positions) for _, positions in census}) == comb(N, n)


def test_transfer_refuses_a_class_that_does_not_spread_evenly(monkeypatch, cold_memos):
    # with m1 = 1 every class has N distinct rotations, so one more queue
    # in the last row's first class leaves a remainder; the census memo
    # starts cold, so every row runs through the patched transfer
    t = TypeVector((1, 1), 4)
    rows = []

    def miscount(states, successors):
        out = transfer(states, successors)
        rows.append(out)
        if len(rows) == len(t.M):
            out[next(iter(out))] += 1
        return out

    monkeypatch.setattr(count, "transfer", miscount)
    with pytest.raises(RuntimeError, match="does not spread evenly"):
        bottom_word_counts(t)


def _types(max_N):
    """Every type on N <= max_N sites, its classes a composition of at
    most N particles."""
    for N in range(1, max_N + 1):
        for particles in range(1, N + 1):
            for cuts in itertools.chain.from_iterable(
                itertools.combinations(range(1, particles), k) for k in range(particles)
            ):
                yield TypeVector(tuple(b - a for a, b in zip((0,) + cuts, cuts + (particles,))), N)


def test_census_memo_matches_the_labelled_queues_cold_and_warm(cold_memos):
    # censuses share their first rows through the memo, so it must give
    # the same counts whichever sizes it meets first: longest first builds
    # every prefix on the way down, shortest first extends the ones built
    types = list(_types(6))
    assert len(types) == 120
    oracle = {t: _oracle_word_counts(t) for t in types}
    for longest_first in (True, False):
        count._class_states.cache_clear()
        order = sorted(types, key=lambda t: (t.N, len(t.M)), reverse=longest_first)
        for warm in (False, True):
            for t in order:
                assert bottom_word_counts(t) == oracle[t], (t, longest_first, warm)


def test_word_and_position_censuses_share_their_rows(cold_memos):
    # (1^4, 6) by positions builds the rows that (1^n, 6) for n <= 4 need
    bottom_position_census(4, 6)
    built = count._class_states.cache_info().misses
    for n in range(1, 5):
        counts = bottom_word_counts(TypeVector((1,) * n, 6))
        assert sum(counts.values()) == total_mlq_count(TypeVector((1,) * n, 6))
        counts.clear()  # the caller's dict is its own
    assert count._class_states.cache_info().misses == built
    assert bottom_word_counts(TypeVector((1,) * 4, 6)) == _oracle_word_counts(TypeVector((1,) * 4, 6))


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


def test_reverse_count_matches_census_n5_N8():
    # the (5, 8) census counts 49,172,480 queues row by row
    N, w0 = 8, reverse_permutation(5)
    for b in itertools.combinations(range(N), 5):
        assert mlq_bottom_count(w0, b, N) == count_bottom_reverse(b)


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
    assert det_fraction_free([[2, 4], [1, 2]]) == 0
    assert det_fraction_free([]) == 1


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


@pytest.mark.parametrize("entry", [Fraction(1, 2), Fraction(2), 0.5, 2.0])
def test_det_refuses_non_int_entries(entry):
    # the elimination floor-divides, which is exact only for integers
    with pytest.raises(TypeError, match="entries must be ints"):
        det_fraction_free([[entry, 1], [1, 2]])


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
