import hashlib
import itertools
import random
import re
from collections import Counter
from fractions import Fraction
from math import lcm

import pytest

from ringtasep import markov
from ringtasep.core import RingWord, TypeVector, VACANT
from ringtasep.linalg import _eliminate, kernel_vector
from ringtasep.markov import (
    CountMatrix,
    _bell_order,
    _bell_table,
    _certified_stationary,
    _certify_weights,
    _fire,
    _is_stochastic,
    _moves,
    _particle_steps,
    _rotate,
    _subset_moves,
    _tasep_solve,
    chain_matrix,
    enumerate_states,
    k_tasep_stationary,
    k_tasep_step,
    mc_stationary,
    push_through_last_row,
    state_count,
    stationary_exact,
    tasep_stationary,
    tasep_step,
    transition_matrix,
)
from ringtasep.rs import apply_generator_set, rs_transition_matrix


def test_step_swap_and_block():
    w = RingWord((2, 3, 1))
    assert tasep_step(w, 2).sites == (2, 1, 3)
    assert tasep_step(w, 1).sites == (2, 3, 1)


def test_step_wraparound_swap():
    # mover at site 0, left neighbor is site 2 holding a larger label
    assert tasep_step(RingWord((1, VACANT, 2)), 0).sites == (2, VACANT, 1)


def test_step_into_vacancy():
    assert tasep_step(RingWord((VACANT, 1)), 1).sites == (1, VACANT)


def test_step_vacant_site_rejected():
    with pytest.raises(ValueError):
        tasep_step(RingWord((VACANT, 1)), 0)


def test_step_conserves_labels():
    for sites in itertools.product((VACANT, 1, 2, 3), repeat=5):
        w = RingWord(sites)
        for site, label in w.particles():
            assert sorted(tasep_step(w, site).sites) == sorted(sites)


def test_enumerate_states_lex_and_count():
    t = TypeVector((1, 1), 4)
    states = enumerate_states(t)
    assert len(states) == state_count(t) == 12
    assert states == sorted(states)
    for m, N in [((1,), 1), ((1,), 4), ((2,), 2), ((2, 1), 5), ((1, 2, 1), 4), ((1, 1, 1), 6), ((3, 1, 2), 8)]:
        t = TypeVector(m, N)
        content = [VACANT] * (N - t.particles) + [i + 1 for i in range(t.n) for _ in range(m[i])]
        states = enumerate_states(t)
        assert states == sorted(set(itertools.permutations(content)))
        assert len(states) == state_count(t)


def test_transition_matrix_single_particle():
    _, P = transition_matrix(TypeVector((1,), 2))
    assert P.rows == ({1: 1}, {0: 1}) and P.D == 1


def test_transition_matrix_two_particles_full():
    states, P = transition_matrix(TypeVector((1, 1), 2))
    i = states.index((2, 1))
    row = {states[j]: Fraction(c, P.D) for j, c in P.rows[i].items()}
    assert row == {(1, 2): Fraction(1, 2), (2, 1): Fraction(1, 2)}


def test_transition_matrix_rows_stochastic():
    for m, N in [((1,), 4), ((1, 1), 4), ((2, 1), 5)]:
        _, P = transition_matrix(TypeVector(m, N))
        assert _is_stochastic(P.rows, P.D)


def test_transition_matrix_cap(monkeypatch):
    # 9! / 5! = 3024 words, refused before any is enumerated
    monkeypatch.setattr(markov, "enumerate_states", None)
    with pytest.raises(ValueError, match=r"^state space has 3024 states, above cap 2000$"):
        transition_matrix(TypeVector((1, 1, 1, 1), 9))


def test_stationary_exact_uniform():
    _, P = transition_matrix(TypeVector((1,), 3))
    assert stationary_exact(P) == (Fraction(1, 3),) * 3


def test_stationary_exact_verifies():
    states, P = transition_matrix(TypeVector((1, 1), 4))
    pi = stationary_exact(P)
    assert sum(pi) == 1
    for j in range(len(states)):
        assert sum(pi[i] * Fraction(P.rows[i].get(j, 0), P.D) for i in range(len(states))) == pi[j]


def _summed_rows(states, moves):
    """The transition rows as a per-transition Fraction sum: each of a
    state's equally likely moves adds 1/D to the entry of its target."""
    index = {s: i for i, s in enumerate(states)}
    rows = []
    for s in states:
        targets = moves(s)
        p = Fraction(1, len(targets))
        row = {}
        for target in targets:
            j = index[target]
            row[j] = row.get(j, 0) + p
        rows.append(row)
    return rows


def _tasep_moves(w):
    return [tasep_step(RingWord(w), site).sites for site, _ in RingWord(w).particles()]


def _rs_moves(k):
    return lambda L: [apply_generator_set(L, S) for S in itertools.combinations(range(1, 2 * L.n + 1), k)]


@pytest.mark.parametrize(
    "chain, moves",
    [
        (lambda: rs_transition_matrix(3, 2), _rs_moves(2)),
        (lambda: rs_transition_matrix(4, 3), _rs_moves(3)),
        (lambda: transition_matrix(TypeVector((2, 1), 5)), _tasep_moves),
    ]
    # the shared subset walker on every e_i table, the forced cut k = 2n included
    + [(lambda n=n, k=k: rs_transition_matrix(n, k), _rs_moves(k)) for n in range(1, 5) for k in range(1, 2 * n + 1)],
)
def test_chain_matrix_counts_multiplicities(chain, moves):
    states, P = chain()
    expected = _summed_rows(states, moves)
    for s, row, want in zip(states, P.rows, expected, strict=True):
        assert len(moves(s)) == P.D
        assert {j: Fraction(c, P.D) for j, c in row.items()} == want
    # with more than one move, some state reaches one target by several: a count above 1
    assert P.D == 1 or any(c > 1 for row in P.rows for c in row.values())


def test_chain_matrix_refuses_unequal_move_counts():
    targets = {0: [1], 1: [0, 1], 2: [0]}.__getitem__
    with pytest.raises(ValueError, match="^state 1 has 2 moves, another has 1$"):
        chain_matrix(_moves([0, 1, 2], targets))
    assert chain_matrix(_moves([0, 1], {0: [1, 1], 1: [0, 1]}.__getitem__)) == CountMatrix(({1: 2}, {0: 1, 1: 1}), 2)


def test_stationary_exact_refuses_a_wrong_kernel_vector(monkeypatch):
    _, P = transition_matrix(TypeVector((1, 1), 4))

    def wrong(rows, n):
        y = [abs(v) for v in kernel_vector(rows, n)]
        y[0] += 1
        return y

    monkeypatch.setattr(markov, "kernel_vector", wrong)
    with pytest.raises(RuntimeError, match="^stationarity verification failed$"):
        stationary_exact(P)


def test_certified_stationary_takes_any_sequence_of_states():
    # classes are found by position, so a range, whose ints past 256 are
    # fresh objects on every pass, gives what the list gives
    def step(s):
        return (s + 2) % 300, s ^ 1

    def turn(s):
        return (s ^ 1,)

    states = list(range(300))
    succ = _moves(states, step)
    [rot] = zip(*_moves(states, turn))
    dist = _certified_stationary(states, succ, rot)
    assert list(dist) == states and set(dist.values()) == {Fraction(1, 300)}
    assert list(_certified_stationary(range(300), succ, rot).items()) == list(dist.items())


def _weights(dist):
    # dist as integer weights, scaled by the lcm of its denominators
    den = lcm(*(p.denominator for p in dist.values()))
    return [p.numerator * (den // p.denominator) for p in dist.values()]


def test_verify_stationary_refuses_moved_mass():
    t = TypeVector((1, 1, 1), 5)
    dist = tasep_stationary(t)
    succ = _moves(list(dist), _particle_steps)
    weights = _weights(dist)
    _certify_weights(succ, weights)
    a, b = weights.index(min(weights)), weights.index(max(weights))
    weights[a] += 1
    weights[b] -= 1
    with pytest.raises(RuntimeError, match="full chain"):
        _certify_weights(succ, weights)


def test_verify_stationary_refuses_unequal_move_counts():
    t = TypeVector((1, 1), 4)
    states = enumerate_states(t)
    odd = states[5]

    def targets(w):
        yield from _particle_steps(w)
        if w == odd:
            yield w

    with pytest.raises(ValueError, match="3 moves, another has 2"):
        _moves(states, targets)
    with pytest.raises(ValueError, match="3 moves, another has 2"):
        _certified_stationary(states, _moves(states, targets))


def test_verify_stationary_refuses_disconnected_chain():
    # two disjoint 2-cycles: the uniform vector satisfies every flow
    # equation, but so does any mix of the two cycles
    with pytest.raises(ValueError, match="not strongly connected"):
        _certify_weights([[1], [0], [3], [2]], [1, 1, 1, 1])
    # a transient state: 0 -> 1 <-> 2 leaves 0 unreachable, with mass 0
    with pytest.raises(ValueError, match="not strongly connected"):
        _certify_weights([[1], [2], [1]], [0, 1, 1])
    # one cycle passes
    _certify_weights([[1], [2], [0]], [1, 1, 1])


def test_certificate_refuses_balanced_weights_with_a_nonpositive_entry():
    # 0 -> {1, 3}, then the closed 2-cycles {1, 2} and {3, 4}: every state
    # is reachable from 0, D = 2, and these weights satisfy every flow
    # equation, but a balanced vector of a strongly connected chain has
    # one sign throughout
    succ = {0: [1, 3], 1: [2, 2], 2: [1, 1], 3: [4, 4], 4: [3, 3]}
    with pytest.raises(ValueError, match="not strongly connected"):
        _certify_weights(_moves(list(succ), succ.__getitem__), [0, 2, 2, -1, -1])


def test_verify_stationary_refuses_a_move_out_of_its_states():
    # from (1, 0) the particle jumps to (0, 1), which the states do not hold
    with pytest.raises(RuntimeError, match=r"^a move from \(1, 0\) leaves the states, to \(0, 1\)$"):
        _moves([(1, 0)], _particle_steps)


@pytest.mark.parametrize("rotate", [None, lambda s: 1 - s])
def test_a_move_out_of_the_states_is_refused_not_a_key_error(rotate):
    def targets(s):
        return 1 - s, 5

    rot = None if rotate is None else [j for [j] in _moves([0, 1], lambda s: [rotate(s)])]
    message = r"^a move from 0 leaves the states, to 5$"
    with pytest.raises(RuntimeError, match=message):
        chain_matrix(_moves([0, 1], targets))
    with pytest.raises(RuntimeError, match=message):
        _certified_stationary([0, 1], _moves([0, 1], targets), rot)


@pytest.mark.parametrize("rotate", [None, _rotate])
def test_certified_stationary_reads_each_state_once(rotate):
    t = TypeVector((1, 1, 1), 5)
    states = enumerate_states(t)
    calls = Counter()

    def targets(w):
        calls[w] += 1
        return _particle_steps(w)

    rot = None if rotate is None else [j for [j] in _moves(states, lambda w: [rotate(w)])]
    assert _certified_stationary(states, _moves(states, targets), rot) == tasep_stationary(t)
    assert len(states) == 60 and calls == Counter(states)


def test_certified_stationary_refuses_a_rotation_out_of_its_states():
    # the rotation table is read through _moves, which refuses it as it is built
    with pytest.raises(RuntimeError, match=r"^a move from 0 leaves the states, to 5$"):
        _moves([0, 1], lambda s: (s + 5,))


def _compositions(total):
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in _compositions(total - first):
            yield (first,) + rest


@pytest.mark.parametrize("m", [m for K in range(1, 5) for m in _compositions(K)])
def test_census_route_equals_the_quotient_solve(m):
    for N in range(sum(m), 7):
        t = TypeVector(m, N)
        assert list(tasep_stationary(t).items()) == list(_tasep_solve(t).items())


@pytest.mark.parametrize("N", range(2, 6))
def test_k_census_route_equals_the_quotient_solve(N):
    for n in range(1, N + 1):
        t = TypeVector((1,) * n, N)
        solve = list(_tasep_solve(t).items())
        for k in range(1, N):
            assert list(k_tasep_stationary(t, k).items()) == solve


def test_census_route_frontier_is_pinned():
    # recorded from the quotient solve, which takes seconds here
    dist = tasep_stationary(TypeVector((1,) * 6, 8))
    got = hashlib.sha256(repr(sorted(dist.items())).encode()).hexdigest()
    assert got == "f83f2d425475487209d19b6b0a77508b5493703e685f30443fb9d5800b267b5a"


def _tampered_census(monkeypatch, tamper):
    census = markov.bottom_word_counts

    def counts(t):
        out = dict(census(t))
        tamper(out)
        return out

    monkeypatch.setattr(markov, "bottom_word_counts", counts)


@pytest.mark.parametrize("k", [None, 1, 2])
def test_census_route_refuses_a_census_without_a_word(monkeypatch, k):
    t = TypeVector((1, 1, 1), 4)

    def drop(out):  # the dropped count goes to another word, so the sum is kept
        out[min(out)] += out.pop(max(out))

    _tampered_census(monkeypatch, drop)
    with pytest.raises(RuntimeError, match="census"):
        tasep_stationary(t) if k is None else k_tasep_stationary(t, k)


@pytest.mark.parametrize("k", [None, 1, 2])
def test_census_route_refuses_moved_counts(monkeypatch, k):
    t = TypeVector((2, 1), 4)

    def move(out):
        a, b = min(out, key=out.get), max(out, key=out.get)
        out[a] += 1
        out[b] -= 1

    _tampered_census(monkeypatch, move)
    with pytest.raises(RuntimeError, match="full chain"):
        tasep_stationary(t) if k is None else k_tasep_stationary(t, k)


def test_census_route_refuses_words_of_another_type(monkeypatch):
    # as many words, summing to the total, but of type (1, 1) in place of (2,)
    t = TypeVector((2,), 4)
    Z = sum(markov.bottom_word_counts(t).values())
    words = enumerate_states(TypeVector((1, 1), 4))[: state_count(t)]
    monkeypatch.setattr(markov, "bottom_word_counts", lambda t: dict.fromkeys(words, Z // len(words)))
    assert len(words) * (Z // len(words)) == Z
    with pytest.raises(RuntimeError, match="census"):
        tasep_stationary(t)


def test_stationary_exact_rejects_reducible():
    P = CountMatrix(({0: 1}, {1: 1}), 1)
    with pytest.raises(ValueError, match=r"^kernel dimension is 2, expected 1 \(chain reducible\?\)$"):
        stationary_exact(P)


def _generator_rows(P):
    """C^T - D I as dense integer rows."""
    C, D = P.rows, P.D
    n = len(C)
    m = [[0] * n for _ in range(n)]
    for i, row in enumerate(C):
        for j, c in row.items():
            m[j][i] = c
    for j in range(n):
        m[j][j] -= D
    return m


def _kernel_dimension(P):
    """n - rank of C^T - D I, the rank from the dense fraction-free
    elimination that determinants use."""
    return len(P.rows) - len(_eliminate(_generator_rows(P))[0])


def _full_ring_chain(n, N):
    states = enumerate_states(TypeVector((1,) * n, N))
    return chain_matrix(_subset_moves(_bell_table(states), N))


@pytest.mark.parametrize(
    "chain",
    [lambda n=n, N=N: _full_ring_chain(n, N) for N in range(1, 6) for n in range(1, N + 1)]
    + [lambda n=n: rs_transition_matrix(n, 2 * n)[1] for n in range(1, 6)]
    + [lambda: transition_matrix(TypeVector((2, 1), 5))[1], lambda: rs_transition_matrix(3, 1)[1]],
)
def test_closed_classes_are_the_kernel_dimension(chain):
    # the elimination's free columns count the closed classes (Norris 1.7):
    # it refuses with the dense rank's kernel dimension, else solves an
    # irreducible chain and leaves zeros on the transient states of another
    P = chain()
    d = _kernel_dimension(P)
    if d != 1:
        with pytest.raises(ValueError, match=rf"^kernel dimension is {d}, expected 1 \(chain reducible\?\)$"):
            stationary_exact(P)
    elif _irreducible(P.rows):
        pi = stationary_exact(P)
        assert min(pi) > 0 and sum(pi) == 1
    else:
        with pytest.raises(ValueError, match=r"^stationary vector not strictly positive \(chain not irreducible\)$"):
            stationary_exact(P)


def _irreducible(succ):
    """Every state reaches every state: one search from each."""
    for start in range(len(succ)):
        seen, todo = {start}, [start]
        while todo:
            for j in succ[todo.pop()]:
                if j not in seen:
                    seen.add(j)
                    todo.append(j)
        if len(seen) < len(succ):
            return False
    return True


def test_closed_classes_of_small_graphs():
    # 0 -> {1, 2} -> 3 <-> 4, with 5 on a loop of its own: two closed classes
    P = chain_matrix([[1, 1], [2, 2], [1, 3], [4, 4], [3, 3], [5, 5]])
    assert _kernel_dimension(P) == 2
    with pytest.raises(ValueError, match=r"^kernel dimension is 2, expected 1 \(chain reducible\?\)$"):
        stationary_exact(P)
    # a long path into a cycle: one closed class, and 4990 transient states
    P = chain_matrix([[i + 1] for i in range(5000)] + [[4990]])
    with pytest.raises(ValueError, match=r"^stationary vector not strictly positive \(chain not irreducible\)$"):
        stationary_exact(P)


def test_reducible_chain_is_refused_before_the_kernel_solve():
    P = CountMatrix(({1: 2}, {0: 2}, {2: 1, 3: 1}, {2: 2}), 2)
    # the message the kernel solve itself gives
    with pytest.raises(ValueError) as e:
        kernel_vector([dict(enumerate(row)) for row in _generator_rows(P)], len(P.rows))
    expected = str(e.value)
    assert expected == "kernel dimension is 2, expected 1 (chain reducible?)"
    with pytest.raises(ValueError) as e:
        stationary_exact(P)
    assert str(e.value) == expected
    with pytest.raises(ValueError, match=r"^kernel dimension is 6, expected 1 \(chain reducible\?\)$"):
        stationary_exact(rs_transition_matrix(5, 10)[1])


def test_one_closed_class_with_a_transient_state_is_not_positive():
    # 0 leaves for the closed class {1, 2} and never returns
    P = CountMatrix(({0: 1, 1: 1}, {2: 2}, {1: 2}), 2)
    assert _kernel_dimension(P) == 1
    with pytest.raises(ValueError, match=r"^stationary vector not strictly positive \(chain not irreducible\)$"):
        stationary_exact(P)


@pytest.mark.parametrize(
    "rows",
    [
        ({0: 3, 1: 2}, {0: 6}),  # row sum 5/6
        ({0: 3, 1: 4}, {0: 6}),  # row sum 7/6
        ({0: 9, 1: -3}, {0: 6}),  # negative count
        ({0: 3, 2: 3}, {0: 6}),  # column 2 of 2
        ({0: 6, 1: 0}, {0: 6}),  # a stored zero, which would read as an edge
    ],
)
def test_stationary_exact_rejects_non_stochastic(rows):
    P = CountMatrix(rows, 6)
    assert not _is_stochastic(P.rows, P.D)
    with pytest.raises(ValueError, match="not row-stochastic"):
        stationary_exact(P)


def test_stationary_exact_rejects_a_chain_without_moves():
    P = chain_matrix(_moves([0], lambda s: []))
    assert P == CountMatrix(({},), 0)
    with pytest.raises(ValueError, match="not row-stochastic"):
        stationary_exact(P)


def test_quotient_matches_dense_solve():
    for m, N in [((1, 1), 4), ((2, 1), 5), ((1, 1, 1), 4)]:
        t = TypeVector(m, N)
        states, P = transition_matrix(t)
        pi = stationary_exact(P)
        dist = tasep_stationary(t)
        assert dist == {s: p for s, p in zip(states, pi)}


def test_k_step_single_site_matches():
    w = RingWord((2, 3, 1))
    for site in range(3):
        assert k_tasep_step(w, {site}).sites == tasep_step(w, site).sites


def test_k_step_left_before_right():
    # adjacent bells: the left one fires first
    w = RingWord((VACANT, 1, 2, VACANT))
    out = k_tasep_step(w, {1, 2})
    # site 1 fires: 1 moves to 0; then site 2 fires: 2 moves to 1
    assert out.sites == (1, 2, VACANT, VACANT)


def test_k_step_nonadjacent_commute():
    for sites in itertools.product((VACANT, 1, 2), repeat=5):
        w = RingWord(sites)
        for S in itertools.combinations(range(5), 2):
            a, b = S
            if (b - a) % 5 in (1, 4):
                continue
            one = k_tasep_step(k_tasep_step(w, {a}), {b})
            other = k_tasep_step(k_tasep_step(w, {b}), {a})
            assert k_tasep_step(w, set(S)) == one == other


def test_k_stationary_matches_base_small():
    t = TypeVector((1, 1), 4)
    base = tasep_stationary(t)
    for k in (1, 2, 3):
        assert k_tasep_stationary(t, k) == base


def _fired(states, k):
    # the k-subset moves of every word, fired bell by bell on the word
    N = len(states[0])
    orders = [_bell_order(set(S), N) for S in itertools.combinations(range(N), k)]
    return lambda w: [_fire(w, order) for order in orders]


@pytest.mark.parametrize("N", range(1, 6))
def test_bell_table_moves_are_the_fired_words(N):
    # every type on N sites and every k, the forced cut k = N included
    for m in (m for K in range(1, N + 1) for m in _compositions(K)):
        states = enumerate_states(TypeVector(m, N))
        table = _bell_table(states)
        assert all(None not in row for row in table)
        for k in range(1, N + 1):
            succ, fired = _subset_moves(table, k), _fired(states, k)
            for i, w in enumerate(states):
                assert [states[j] for j in succ[i]] == fired(w)


@pytest.mark.parametrize("m, N", [((1, 1), 3), ((2, 1), 4), ((1, 1, 1), 4)])
def test_bell_table_on_states_that_moves_leave(m, N):
    # with one word left out, some bell rings a word to it, and the table
    # refuses the first such bell, in word then site order, with the exact
    # message of the word chain's moves
    full = enumerate_states(TypeVector(m, N))
    for gone in range(len(full)):
        states = full[:gone] + full[gone + 1 :]
        w, v = next((w, v) for w in states for v in _tasep_moves(w) if v not in states)
        with pytest.raises(RuntimeError, match=f"^{re.escape(f'a move from {w} leaves the states, to {v}')}$"):
            _bell_table(states)


def test_full_ring_sweep_has_no_unique_stationary():
    # the cyclic firing constraint is unsatisfiable for k = N; the forced
    # cut gives a deterministic non-ergodic map
    with pytest.raises(ValueError):
        k_tasep_stationary(TypeVector((1, 1), 2), 2)


def test_push_through_last_row_fixes_stationary():
    t = TypeVector((1, 1), 4)
    dist = tasep_stationary(t)
    assert push_through_last_row(dist) == dist


@pytest.mark.parametrize(
    "word, digest",
    [
        ((2, 0, 1, 0), "a11bc884564c7e81bd08abd45c5d04fcb7df3777050bef8610192e82b4f3edfd"),
        ((1, 2, 0, 1, 0), "483a414a5826d244fbd71bb7226043071b1634772881504019d34c250b148502"),
        ((3, 0, 1, 0, 2, 0), "9aefb285e95a477696d5d3630d60fa054b7f4585fc07fc08be133a828bc48e33"),
        ((2, 2, 1, 0, 3), "07de0af0609af4288f7c2efc1dc5c83c78a637383c2b8e7e8d9dd5260c443d95"),
        ((0, 1, 3, 2, 1, 0, 0), "493409513bbb76183aa0e594cccd5c0030116e39682a805f6c8e61956692885d"),
    ],
)
def test_push_through_last_row_point_mass_is_pinned(word, digest):
    # SHA-256 as recorded when the step claimed boxes through its own loop;
    # a point mass is not stationary, so the output spreads over many words;
    # an int mass gives the same exact Fractions
    for mass in (Fraction(1), 1):
        out = push_through_last_row({word: mass})
        assert sum(out.values()) == 1 and len(out) > 1
        assert hashlib.sha256(repr(sorted(out.items())).encode()).hexdigest() == digest


def test_push_through_last_row_of_nothing_is_nothing():
    assert push_through_last_row({}) == {}


@pytest.mark.parametrize(
    "dist, message",
    [
        ({(1, 0): Fraction(1, 2), (1, 0, 0): Fraction(1, 2)}, "differ in length or particle count"),
        ({(1, 0, 0): Fraction(1, 2), (1, 1, 0): Fraction(1, 2)}, "differ in length or particle count"),
        ({(1, -1, 0): Fraction(1)}, "VACANT .0. or positive"),
        ({(2, 0, 3): Fraction(1)}, "classes 1..3 must all be present"),
        ({(0, 0): Fraction(1)}, "empty word has no type"),
    ],
)
def test_push_through_last_row_refuses_mixed_or_bad_words(dist, message):
    # the whole distribution takes one row step, so its words must share a shape
    with pytest.raises(ValueError, match=message):
        push_through_last_row(dist)


def test_mc_stationary_reproducible_and_close():
    t = TypeVector((1, 1), 4)
    a = mc_stationary(t, burn_in=200, samples=20000, seed=3, thin=8)
    b = mc_stationary(t, burn_in=200, samples=20000, seed=3, thin=8)
    assert a == b
    exact = tasep_stationary(t)
    for w, e in a.items():
        assert abs(e["freq"] - float(exact[w])) <= 3 * e["stderr"] + 1e-9


def test_mc_stationary_stream_is_pinned():
    # SHA-256 as recorded when every step rebuilt the word as a tuple
    est = mc_stationary(TypeVector((1, 1, 1), 5), burn_in=200, samples=20_000, seed=3, thin=8)
    digest = hashlib.sha256(repr(sorted(est.items())).encode()).hexdigest()
    assert digest == "c9052c09bc5a05d3f620d25593b87795e4b68f881330ee99818ae8184b829bcc"


START_TYPES = [((1,), 4), ((2,), 2), ((2, 1), 5), ((1, 2, 1), 4), ((1, 1, 1), 6), ((3, 1, 2), 8)]


@pytest.mark.parametrize("m, N", START_TYPES)
def test_mc_stationary_starts_at_the_first_state(m, N):
    t = TypeVector(m, N)
    [w] = mc_stationary(t, burn_in=0, samples=1, seed=0, thin=0)  # thin=0 records the start word
    assert w == enumerate_states(t)[0]


def _both_paths(monkeypatch, run):
    """run() on the move lists, then with STATE_CAP at 0 on the word
    stepper, which must not build the move lists."""
    calls = []
    moves = markov._moves
    with monkeypatch.context() as mp:
        mp.setattr(markov, "_moves", lambda *args: calls.append(args) or moves(*args))
        lists = run()
        assert len(calls) == 1
        mp.setattr(markov, "STATE_CAP", 0)
        stepper = run()
        assert len(calls) == 1
    return lists, stepper


@pytest.mark.parametrize("m, N", START_TYPES)
@pytest.mark.parametrize("thin", [0, 1, 3])
def test_mc_stationary_paths_agree(monkeypatch, m, N, thin):
    t = TypeVector(m, N)
    lists, stepper = _both_paths(monkeypatch, lambda: mc_stationary(t, 11, 400, 6, thin=thin))
    assert lists == stepper


def test_mc_stationary_stream_is_pinned_on_both_paths(monkeypatch):
    t = TypeVector((1, 1, 1), 5)
    for est in _both_paths(monkeypatch, lambda: mc_stationary(t, burn_in=200, samples=20_000, seed=3, thin=8)):
        digest = hashlib.sha256(repr(sorted(est.items())).encode()).hexdigest()
        assert digest == "c9052c09bc5a05d3f620d25593b87795e4b68f881330ee99818ae8184b829bcc"


def test_mc_stationary_wraps_at_site_zero(monkeypatch):
    # a lone particle starts at site 3 and steps left every time, through
    # site 0 to site 3 again, on the move lists and on the word stepper
    t = TypeVector((1,), 4)
    for burn_in in range(9):
        for est in _both_paths(monkeypatch, lambda: mc_stationary(t, burn_in=burn_in, samples=1, seed=0)):
            [w] = est
            assert w.index(1) == (2 - burn_in) % 4


def _randrange_tally(t, start, burn_in, samples, seed, thin):
    """The states a chain from start records when it draws its particle
    with randrange(K) and steps through tasep_step."""
    randrange = random.Random(seed).randrange
    w, tally = RingWord(start), Counter()

    def advance(steps):
        nonlocal w
        for _ in range(steps):
            w = tasep_step(w, w.particles()[randrange(t.particles)][0])

    advance(burn_in)
    for _ in range(samples):
        advance(thin)
        tally[w.sites] += 1
    return tally


@pytest.mark.parametrize(
    "m, N", [((1,), 3), ((1, 1), 4), ((2, 1), 4), ((1, 1, 2), 6), ((2, 1, 1, 1), 7)]
)  # K = 1, 2, 3, 4 and 5 particles
@pytest.mark.parametrize("thin", [0, 1, 3])
def test_mc_stationary_replays_randrange(m, N, thin):
    # the chain draws its particle as randrange(K) does, so replaying
    # randrange through tasep_step gives the same tallies
    t, burn_in, samples, seed = TypeVector(m, N), 7, 60, 5
    tally = _randrange_tally(t, enumerate_states(t)[0], burn_in, samples, seed, thin)
    est = mc_stationary(t, burn_in, samples, seed, thin=thin)
    assert {word: e["count"] for word, e in est.items()} == tally


@pytest.mark.parametrize("thin", [0, 1, 3])
def test_mc_stationary_steps_words_above_the_cap(monkeypatch, thin):
    # 3,024 states: the chain steps words and enumerates none
    t, burn_in, samples, seed = TypeVector((1, 1, 1, 1), 9), 7, 60, 5
    assert state_count(t) > markov.STATE_CAP
    monkeypatch.setattr(markov, "enumerate_states", None)
    monkeypatch.setattr(markov, "_moves", None)
    tally = _randrange_tally(t, (VACANT,) * 5 + (1, 2, 3, 4), burn_in, samples, seed, thin)
    est = mc_stationary(t, burn_in, samples, seed, thin=thin)
    assert {word: e["count"] for word, e in est.items()} == tally


@pytest.mark.parametrize("burn_in, thin", [(-5, 1), (0, -2), (-5, -2)])
def test_mc_stationary_refuses_negative_steps(burn_in, thin):
    with pytest.raises(ValueError, match="need burn_in >= 0 and thin >= 0"):
        mc_stationary(TypeVector((1, 1), 4), burn_in, 3, 0, thin=thin)


def test_mc_stationary_single_particle_uniform():
    # a single particle cycles deterministically, so the time average is
    # exactly uniform (thin must not be a multiple of the period)
    t = TypeVector((1,), 3)
    est = mc_stationary(t, burn_in=100, samples=30000, seed=11)
    for w, e in est.items():
        assert abs(e["freq"] - 1 / 3) < 1e-12
