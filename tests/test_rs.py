import hashlib
import itertools
import re
from fractions import Fraction
from math import lcm

import pytest

from ringtasep import markov, rs
from ringtasep.core import TypeVector
from ringtasep.markov import (
    _bell_table,
    _certified_stationary,
    _is_stochastic,
    _certify_weights,
    _moves,
    _rotate,
    _subset_moves,
    enumerate_states,
    stationary_exact,
)
from ringtasep.rs import (
    LinkingPattern,
    _rs_chain,
    apply_generator,
    apply_generator_set,
    enumerate_patterns,
    generator_order,
    rotate,
    rs_stationary,
    rs_transition_matrix,
)

FIG_PATTERN = LinkingPattern(((1, 4), (2, 3), (5, 6)))


def test_pattern_validation():
    with pytest.raises(ValueError):
        LinkingPattern(((1, 3), (2, 4)))  # crossing
    with pytest.raises(ValueError):
        LinkingPattern(((1, 2), (3, 3)))
    with pytest.raises(ValueError):
        LinkingPattern(((1, 2),) * 2)


def test_enumerate_counts_catalan():
    assert len(enumerate_patterns(1)) == 1
    assert len(enumerate_patterns(2)) == 2
    assert len(enumerate_patterns(3)) == 5
    assert len(enumerate_patterns(4)) == 14
    assert FIG_PATTERN in enumerate_patterns(3)


def test_apply_generator_worked_example():
    out = apply_generator(FIG_PATTERN, 4)
    assert out == LinkingPattern(((1, 6), (2, 3), (4, 5)))


def test_apply_generator_fixed_when_joined():
    L = LinkingPattern(((1, 2), (3, 4)))
    assert apply_generator(L, 1) == L


def test_generator_relations_exhaustive():
    for n in (2, 3, 4):
        m = 2 * n
        for L in enumerate_patterns(n):
            for i in range(1, m + 1):
                ei = apply_generator(L, i)
                ip1 = i % m + 1
                im1 = m if i == 1 else i - 1
                assert apply_generator(ei, i) == ei
                assert apply_generator(apply_generator(ei, ip1), i) == ei
                assert apply_generator(apply_generator(ei, im1), i) == ei
                for j in range(1, m + 1):
                    if j in (i, ip1, im1):
                        continue
                    assert apply_generator(ei, j) == apply_generator(apply_generator(L, j), i)


def test_noncrossing_closure_exhaustive():
    for n in (2, 3, 4, 5):
        for L in enumerate_patterns(n):
            for i in range(1, 2 * n + 1):
                apply_generator(L, i)  # constructor re-validates non-crossing


def test_generator_order_rules():
    assert generator_order({3}, 8) == [3]
    assert generator_order({1, 4, 7, 8}, 8) == [4, 7, 8, 1]
    assert generator_order({8, 1, 2}, 8) == [8, 1, 2]
    assert generator_order(set(range(1, 9)), 8) == list(range(1, 9))


def test_generator_order_matches_lowest_ready_oracle():
    # independent oracle: repeatedly fire the lowest pending index whose
    # cyclic predecessor is unselected or has already fired
    def lowest_ready(S, m):
        if len(S) == m:
            return list(range(1, m + 1))
        order, pending = [], sorted(S)

        def pred(i):
            return m if i == 1 else i - 1

        while pending:
            i = next(i for i in pending if pred(i) not in S or pred(i) in order)
            order.append(i)
            pending.remove(i)
        return order

    for m in range(1, 11):
        for r in range(m + 1):
            for S in itertools.combinations(range(1, m + 1), r):
                assert generator_order(S, m) == lowest_ready(set(S), m)


def test_apply_generator_set_worked_example():
    for L in enumerate_patterns(4):
        via_set = apply_generator_set(L, {1, 4, 7, 8})
        r1 = apply_generator(apply_generator(apply_generator(apply_generator(L, 7), 8), 1), 4)
        r2 = apply_generator(apply_generator(apply_generator(apply_generator(L, 4), 7), 8), 1)
        assert via_set == r1 == r2


def test_apply_generator_set_singleton():
    for L in enumerate_patterns(2):
        for i in range(1, 5):
            assert apply_generator_set(L, {i}) == apply_generator(L, i)


def test_admissible_orders_agree_exhaustive():
    # fire the highest ready generator instead of the lowest; relation (C)
    # makes the results equal
    def apply_highest_first(L, S):
        m = 2 * L.n
        S = set(S)
        pending = sorted(S, reverse=True)
        fired = set()
        while pending:
            for i in pending:
                pred = m if i == 1 else i - 1
                if pred not in S or pred in fired:
                    L = apply_generator(L, i)
                    fired.add(i)
                    pending.remove(i)
                    break
            else:
                i = pending[0]
                L = apply_generator(L, i)
                fired.add(i)
                pending.remove(i)
        return L

    for n in (2, 3):
        m = 2 * n
        for L in enumerate_patterns(n):
            for r in range(1, m):
                for S in itertools.combinations(range(1, m + 1), r):
                    assert apply_generator_set(L, set(S)) == apply_highest_first(L, set(S))


def test_transition_matrix_stochastic():
    _, P = rs_transition_matrix(3, 2)
    assert _is_stochastic(P.rows, P.D) and P.D == 15  # C(6, 2) generator subsets


def test_stationary_two_patterns():
    dist = rs_stationary(2, 1)
    assert dist == {
        LinkingPattern(((1, 2), (3, 4))): Fraction(1, 2),
        LinkingPattern(((1, 4), (2, 3))): Fraction(1, 2),
    }


def test_k_independence_small():
    for n in (2, 3):
        base = rs_stationary(n, 1)
        for k in range(2, 2 * n):
            assert rs_stationary(n, k) == base


def test_full_generator_sweep_not_ergodic():
    with pytest.raises(ValueError):
        rs_stationary(2, 4)


def test_rs_quotient_matches_full_chain():
    cases = [(n, k) for n in range(1, 6) for k in range(1, 2 * n)] + [(6, 1), (6, 2)]
    for n, k in cases:
        patterns, P = rs_transition_matrix(n, k)
        assert rs_stationary(n, k) == dict(zip(patterns, stationary_exact(P))), (n, k)


def test_rotation_classes(monkeypatch):
    assert rotate(FIG_PATTERN) == LinkingPattern(((2, 5), (3, 4), (6, 1)))
    assert rotate(FIG_PATTERN, 6) == FIG_PATTERN
    classes = []  # the class map the solver finds, and the chains it solves
    solved = []
    real_classes, real_solve = markov._classes, markov.stationary_exact

    def spy_classes(rot):
        classes.append(real_classes(rot))
        return classes[-1]

    def spy_solve(P):
        solved.append(P.n_rows)
        return real_solve(P)

    listed = []  # the pattern lists the chain is built on
    real_enumerate = rs.enumerate_patterns

    def spy_enumerate(n):
        listed.append(real_enumerate(n))
        return listed[-1]

    monkeypatch.setattr(markov, "_classes", spy_classes)
    monkeypatch.setattr(markov, "stationary_exact", spy_solve)
    monkeypatch.setattr(rs, "enumerate_patterns", spy_enumerate)
    counts = []
    for n in range(1, 7):
        classes.clear()
        solved.clear()
        listed.clear()
        dist = rs_stationary(n, 1)
        (first,) = classes
        (patterns,) = listed
        # the chain runs on pattern positions; each class is a rotation
        # orbit, represented by its first member
        assert len(first) == len(patterns)
        reps = sorted(set(first))
        for rep in reps:
            orbit = [s for s in range(len(patterns)) if first[s] == rep]
            assert orbit[0] == rep
            assert {patterns[s] for s in orbit} == {rotate(patterns[rep], s) for s in range(2 * n)}
        # one solve, on the classes
        assert solved == [len(reps)]
        # the returned keys are the enumerate_patterns objects themselves, in order
        assert len(dist) == len(patterns) and all(L is M for L, M in zip(dist, patterns))
        counts.append(len(reps))
    assert counts == [1, 1, 2, 3, 6, 14]


def test_lift_with_wrong_orbit_share_is_refused():
    # orbits of 2 and 3 patterns at n = 3: giving every member its class's
    # whole probability, renormalised, breaks the flow equations
    patterns, succ, rot = _rs_chain(3, 1)
    states = list(range(len(patterns)))
    lift = _certified_stationary(states, succ, rot)
    size = {s: len({rotate(patterns[s], r) for r in range(6)}) for s in states}
    assert sorted(size.values()) == [2, 2, 3, 3, 3]
    whole = [p * size[s] for s, p in lift.items()]
    den = lcm(*(p.denominator for p in whole))
    weights = [p.numerator * (den // p.denominator) for p in whole]
    with pytest.raises(RuntimeError, match="full chain"):
        _certify_weights(succ, weights)


def _pair_generator(L, i):
    # e_i on sorted pairs, with no partner tuple: an independent oracle for
    # the tables and the public wrappers
    m = 2 * L.n
    i = (i - 1) % m + 1
    j = i % m + 1
    mapping = {}
    for a, b in L.pairs:
        mapping[a], mapping[b] = b, a
    if mapping[i] == j:
        return L
    a, b = mapping[i], mapping[j]
    pairs = [p for p in L.pairs if i not in p and j not in p and a not in p and b not in p]
    return LinkingPattern(tuple(pairs + [(i, j), (a, b)]))


def _pair_rotate(L, s=1):
    m = 2 * L.n
    return LinkingPattern(tuple(((a + s - 1) % m + 1, (b + s - 1) % m + 1) for a, b in L.pairs))


def test_tables_match_the_pair_based_generators():
    # at k = 1 the s-th target of a pattern is e_s applied to it, one
    # generator subset {s} per move, in order
    for n in range(1, 7):
        m = 2 * n
        patterns, succ, rot = _rs_chain(n, 1)
        assert patterns == enumerate_patterns(n)
        for s, L in enumerate(patterns):
            assert [patterns[t] for t in succ[s]] == [_pair_generator(L, i) for i in range(1, m + 1)]
            assert patterns[rot[s]] == _pair_rotate(L)
            for i in range(1, m + 1):
                assert apply_generator(L, i) == _pair_generator(L, i)
                assert rotate(L, i) == _pair_rotate(L, i)


def test_rs_stationary_n8_is_pinned():
    dist = rs_stationary(8, 1)
    assert list(dist) == enumerate_patterns(8)
    lines = sorted(" ".join(f"{a}-{b}" for a, b in L.pairs) + f"\t{p.numerator}/{p.denominator}" for L, p in dist.items())
    digest = hashlib.sha256(("\n".join(lines) + "\n").encode()).hexdigest()
    assert digest == "b11afaac02721e35e76182e11a80f6e0c98ffc171e567de7ad556569cf536890"


def test_a_join_off_the_listed_patterns_is_refused(monkeypatch):
    # one corrupted table entry: e_3 of the figure's pattern leaves the list
    real = rs._join
    target = (3, 2, 1, 0, 5, 4)  # FIG_PATTERN as a partner tuple
    monkeypatch.setattr(rs, "_join", lambda p, i: (0,) * len(p) if (p, i) == (target, 2) else real(p, i))
    message = re.escape(f"e_3 takes {FIG_PATTERN} to partner tuple (0, 0, 0, 0, 0, 0), not a listed pattern")
    with pytest.raises(RuntimeError, match=message):
        _rs_chain(3, 1)
    with pytest.raises(RuntimeError, match=message):
        rs_stationary(3, 2)


@pytest.mark.parametrize("n", [0, -1])
def test_n_below_one_is_refused(n):
    for call in (lambda: enumerate_patterns(n), lambda: rs_stationary(n, 1), lambda: rs_transition_matrix(n, 1)):
        with pytest.raises(ValueError, match=r"^need n >= 1$"):
            call()


def test_rotation_the_chain_does_not_commute_with_is_refused():
    # the k = N forced cut breaks rotation covariance; handed the rotation
    # anyway, the solver refuses the chain, from the certificate on the
    # lift or from the quotient's kernel dimension, and returns nothing
    cases = [((1,), 3, RuntimeError, r"^stationarity verification failed on the full chain$")]
    cases.append(((1, 1), 4, ValueError, r"^kernel dimension is 3, expected 1 \(chain reducible\?\)$"))
    for m, N, error, text in cases:
        states = enumerate_states(TypeVector(m, N))
        [rot] = zip(*_moves(states, lambda w: [_rotate(w)]))
        with pytest.raises(error, match=text):
            _certified_stationary(states, _subset_moves(_bell_table(states), N), rot)


def test_stationary_caps():
    # one cap for every k; k = 2n at n = 7 is refused by the elimination,
    # whose free columns are its closed classes
    with pytest.raises(ValueError, match=r"^kernel dimension is 28, expected 1 \(chain reducible\?\)$"):
        rs_stationary(7, 14)
    with pytest.raises(ValueError, match="cap 8"):
        rs_stationary(9, 1)
    with pytest.raises(ValueError, match="cap 8"):
        rs_stationary(9, 18)


@pytest.mark.parametrize("k", [0, 17])
def test_k_is_refused_before_any_table_is_built(monkeypatch, k):
    built = []
    monkeypatch.setattr(rs, "_tables", lambda n: built.append(n))
    with pytest.raises(ValueError, match=r"^need 1 <= k <= 16$"):
        rs_stationary(8, k)
    assert built == []
