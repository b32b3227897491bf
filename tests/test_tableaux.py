import itertools
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ringtasep import tableaux
from ringtasep.core import TypeVector
from ringtasep.count import bottom_word_counts
from ringtasep.markov import tasep_stationary
from ringtasep.mlq import DiscreteMLQ, label_mlq
from ringtasep.tableaux import (
    Tableau,
    check_partition,
    conjugate_partition,
    descending_prefix_probability,
    descending_start_count,
    hook_content_row_addition_check,
    interlacing_pattern_count,
    is_ssyt,
    mlq_to_ssyt,
    ssyt_brute,
    ssyt_count_brute,
    ssyt_count_hook_content,
    ssyt_count_jacobi_trudi,
    ssyt_to_mlq,
    syt_brute,
    syt_count,
)

T13 = TypeVector((2, 2, 2, 3, 4), 13)
Q13 = DiscreteMLQ(
    T13,
    ((5, 8), (3, 4, 7, 11), (2, 3, 6, 8, 10, 12), (1, 2, 3, 4, 7, 8, 10, 11, 12), tuple(range(13))),
)


@st.composite
def partitions(draw, max_part=6, max_len=5):
    k = draw(st.integers(0, max_len))
    parts = sorted((draw(st.integers(1, max_part)) for _ in range(k)), reverse=True)
    return tuple(parts)


def test_partition_validation():
    with pytest.raises(ValueError):
        check_partition((1, 2))
    with pytest.raises(ValueError):
        check_partition((2, 0))


@given(partitions())
def test_conjugate_involution(lam):
    assert conjugate_partition(conjugate_partition(lam)) == lam


@given(partitions())
def test_conjugate_preserves_size(lam):
    assert sum(conjugate_partition(lam)) == sum(lam)


def test_hook_content_examples():
    assert ssyt_count_hook_content((1,), 3) == 3
    assert ssyt_count_hook_content((2, 1), 3) == 8
    assert ssyt_count_hook_content((2, 2), 2) == 1
    assert ssyt_count_hook_content((), 4) == 1


def test_jacobi_trudi_examples():
    assert ssyt_count_jacobi_trudi((1,), 3) == 3
    assert ssyt_count_jacobi_trudi((2, 1), 3) == 8


def test_jacobi_trudi_checks_its_partition_once(monkeypatch):
    expected = ssyt_count_hook_content((3, 2, 2), 4)
    seen = []
    check = tableaux.check_partition
    monkeypatch.setattr(tableaux, "check_partition", lambda lam: seen.append(lam) or check(lam))
    assert ssyt_count_jacobi_trudi((3, 2, 2), 4) == expected
    assert seen == [(3, 2, 2)]
    refusals = {(1, 2): r"^\(1, 2\) is not weakly decreasing$", (2, 0): "^partition parts must be positive$"}
    for lam, message in refusals.items():
        with pytest.raises(ValueError, match=message):
            ssyt_count_jacobi_trudi(lam, 3)


def test_ssyt_brute_examples():
    assert [t.rows for t in ssyt_brute((1, 1), 2)] == [((1,), (2,))]
    assert len(ssyt_brute((2,), 2)) == 3
    assert len(ssyt_brute((2, 2), 2)) == 1


@pytest.mark.parametrize("route", [ssyt_count_hook_content, ssyt_count_jacobi_trudi, ssyt_count_brute, ssyt_brute])
@pytest.mark.parametrize("lam", [(2, 1), (1,), ()])
def test_every_route_refuses_negative_t(route, lam):
    with pytest.raises(ValueError, match=r"^need t >= 0$"):
        route(lam, -1)


def test_three_route_agreement_box_sweep():
    shapes = {()} | {
        tuple(sorted(c, reverse=True))
        for k in range(1, 5)
        for c in itertools.combinations_with_replacement(range(1, 5), k)
    }
    for lam in sorted(shapes):
        for t in range(6):
            assert ssyt_count_hook_content(lam, t) == ssyt_count_jacobi_trudi(lam, t) == len(ssyt_brute(lam, t))


def test_counted_oracle_matches_the_listing():
    # every shape of the hook-jt-brute check, the empty one included
    shapes = [()] + [
        lam for k in range(1, 5) for lam in itertools.combinations_with_replacement(range(4, 0, -1), k)
    ]
    for lam in shapes:
        for t in range(4):
            assert ssyt_count_brute(lam, t) == len(ssyt_brute(lam, t)), (lam, t)
    assert ssyt_count_brute((3, 2, 2), 5) == ssyt_count_hook_content((3, 2, 2), 5)


def test_tableau_memo_matches_the_listing_in_either_order(cold_memos):
    # shapes share their first rows through the memo, so the counts must
    # not depend on which shapes it meets first
    shapes = [()] + [
        lam for k in range(1, 5) for lam in itertools.combinations_with_replacement(range(4, 0, -1), k)
    ]
    listing = {(lam, t): len(ssyt_brute(lam, t)) for lam in shapes for t in range(6)}
    for longest_first in (True, False):
        tableaux._last_rows.cache_clear()
        for lam in sorted(shapes, key=len, reverse=longest_first):
            for t in range(6):
                assert ssyt_count_brute(lam, t) == listing[lam, t], (lam, t, longest_first)


def test_syt_counts():
    assert syt_count((2, 1)) == 2
    assert syt_count((2, 2)) == 2
    assert syt_count((3, 2)) == 5
    for lam in [(1,), (2, 1), (2, 2), (3, 1), (3, 2, 1), (4, 2)]:
        assert syt_count(lam) == syt_brute(lam)


def test_prefix_probability_single_letter_uniform():
    for x in (1, 2, 3):
        assert descending_prefix_probability((x,), 3) == Fraction(1, 3)


def test_prefix_probability_example():
    assert descending_prefix_probability((3, 2), 4) == Fraction(1, 24)


def test_prefix_probability_validation():
    with pytest.raises(ValueError):
        descending_prefix_probability((2, 3), 4)
    with pytest.raises(ValueError):
        descending_prefix_probability((5, 1), 4)


def test_prefix_probability_vs_stationary():
    for N in (3, 4, 5):
        t = TypeVector((1,) * N, N)
        dist = tasep_stationary(t)
        for ell in (1, 2):
            if ell >= N:
                continue
            for xs in itertools.combinations(range(N, 0, -1), ell):
                mass = sum(p for w, p in dist.items() if w[:ell] == xs)
                assert mass == descending_prefix_probability(xs, N)


def test_descending_start_count_small():
    assert descending_start_count((1, 1), 2) == 1
    # brute cross-check on a 5-ring
    m, N = (2, 3), 5
    t = TypeVector(m, N)
    brute = sum(c for w, c in bottom_word_counts(t).items() if w[0] == 2)
    assert descending_start_count(m, N) == brute


def test_descending_start_count_pads_short_type():
    # the worked 13-column parameters: the last class is implied
    assert descending_start_count((2, 2, 2, 3), 13) == descending_start_count((2, 2, 2, 3, 4), 13)


def test_worked_parameters_derive_expected_shape():
    from ringtasep.tableaux import _derived_shape, _full_type

    t = _full_type((2, 2, 2, 3), 13)
    assert t.m == (2, 2, 2, 3, 4)
    assert t.M == (2, 4, 6, 9, 13)
    assert _derived_shape(t) == (6, 4, 3, 2)
    assert 13 - t.n + 1 == 9  # entry bound for the tableau count


def test_worked_bijection_example():
    tab = mlq_to_ssyt(label_mlq(Q13))
    assert [list(r) for r in tab.rows] == [[1, 1, 2, 5], [2, 3, 6, 8], [3, 5, 9], [5, 7], [6], [9]]
    assert is_ssyt(tab, 9)
    assert ssyt_to_mlq(tab, (2, 2, 2, 3), 13) == Q13


def test_bijection_requires_descending_start():
    q = DiscreteMLQ(TypeVector((1, 1), 2), ((0,), (0, 1)))
    l = label_mlq(q)
    if tuple(l.labels[-1][:1]) != (2,):
        with pytest.raises(ValueError):
            mlq_to_ssyt(l)


def test_bijection_exhaustive_small():
    from ringtasep.count import enumerate_mlqs

    for m, N in [((1, 1), 2), ((1, 2), 3), ((2, 1), 3), ((1, 1, 1), 3), ((2, 1, 1), 4)]:
        t = TypeVector(m, N)
        n = t.n
        prefix = tuple(range(n, 1, -1))
        seen = set()
        hits = 0
        for q in enumerate_mlqs(t):
            l = label_mlq(q)
            if tuple(l.labels[-1][: n - 1]) != prefix or l.wrapped:
                continue
            tab = mlq_to_ssyt(l)
            assert ssyt_to_mlq(tab, m, N) == q
            seen.add(tab)
            hits += 1
        assert len(seen) == hits == descending_start_count(m, N)


def test_interlacing_patterns():
    assert interlacing_pattern_count(2)["brute"] == 1
    assert interlacing_pattern_count(3)["brute"] == 2
    rep = interlacing_pattern_count(4)
    assert rep["brute"] == rep["closed_form"] == 12
    assert rep["match"]
    assert interlacing_pattern_count(5)["match"]


def test_interlacing_count_matches_reverse_word_census():
    # linear extensions = arrangements whose bottom word is the reverse
    from ringtasep.continuum import arrangement_count, permutation_distribution
    from ringtasep.core import reverse_permutation

    for n in (2, 3, 4):
        expected = permutation_distribution(n)[reverse_permutation(n)] * arrangement_count(n)
        assert interlacing_pattern_count(n)["brute"] == expected


def test_row_addition_identity():
    assert hook_content_row_addition_check((2, 2, 2, 3), 13)["match"]
    assert hook_content_row_addition_check((1, 3), 4)["match"]
    for N in range(2, 8):
        for cut in range(1, N):
            assert hook_content_row_addition_check((cut, N - cut), N)["match"]


def test_tableau_helpers():
    tab = Tableau(((1, 2), (2,)))
    assert tab.shape == (2, 1)
    assert tab.column(0) == (1, 2)
    assert is_ssyt(tab, 2)
    assert not is_ssyt(Tableau(((2, 1),)), 3)
    assert not is_ssyt(Tableau(((1, 1), (1,))), 3)


@pytest.mark.parametrize(
    "rows, text",
    [
        (((1, 2), (10,)), "12/10"),
        (((1, 10, 10), (3,)), "1,10,10/3"),  # one entry above 9 puts commas in its own row only
    ],
)
def test_tableau_repr_is_pinned(rows, text):
    assert repr(Tableau(rows)) == text
