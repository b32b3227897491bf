import hashlib
import itertools
from fractions import Fraction

import pytest

from ringtasep.core import RingWord, TypeVector, VACANT
from ringtasep.markov import (
    RationalMatrix,
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


def test_transition_matrix_single_particle():
    _, P = transition_matrix(TypeVector((1,), 2))
    assert P.rows == ({1: Fraction(1)}, {0: Fraction(1)})


def test_transition_matrix_two_particles_full():
    states, P = transition_matrix(TypeVector((1, 1), 2))
    i = states.index((2, 1))
    row = {states[j]: x for j, x in P.rows[i].items()}
    assert row == {(1, 2): Fraction(1, 2), (2, 1): Fraction(1, 2)}


def test_transition_matrix_rows_stochastic():
    for m, N in [((1,), 4), ((1, 1), 4), ((2, 1), 5)]:
        _, P = transition_matrix(TypeVector(m, N))
        assert P.is_row_stochastic()


def test_transition_matrix_cap():
    with pytest.raises(ValueError):
        transition_matrix(TypeVector((1, 1, 1), 9), cap=10)


def test_stationary_exact_uniform():
    _, P = transition_matrix(TypeVector((1,), 3))
    assert stationary_exact(P) == (Fraction(1, 3),) * 3


def test_stationary_exact_verifies():
    states, P = transition_matrix(TypeVector((1, 1), 4))
    pi = stationary_exact(P)
    assert sum(pi) == 1
    for j in range(len(states)):
        assert sum(pi[i] * P.rows[i].get(j, 0) for i in range(len(states))) == pi[j]


def test_stationary_exact_rejects_reducible():
    P = RationalMatrix(({0: Fraction(1), 1: Fraction(0)}, {1: Fraction(1)}))
    assert P.rows == ({0: Fraction(1)}, {1: Fraction(1)})
    with pytest.raises(ValueError):
        stationary_exact(P)


@pytest.mark.parametrize(
    "rows",
    [
        ({0: Fraction(1, 2), 1: Fraction(1, 3)}, {0: Fraction(1)}),  # row sum 5/6
        ({0: Fraction(3, 2), 1: Fraction(-1, 2)}, {0: Fraction(1)}),  # negative entry
        ({0: Fraction(1, 2), 2: Fraction(1, 2)}, {0: Fraction(1)}),  # column 2 of 2
    ],
)
def test_stationary_exact_rejects_non_stochastic(rows):
    P = RationalMatrix(rows)
    assert not P.is_row_stochastic()
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


def test_full_ring_sweep_has_no_unique_stationary():
    # the cyclic firing constraint is unsatisfiable for k = N; the forced
    # cut gives a deterministic non-ergodic map
    with pytest.raises(ValueError):
        k_tasep_stationary(TypeVector((1, 1), 2), 2)


def test_push_through_last_row_fixes_stationary():
    t = TypeVector((1, 1), 4)
    dist = tasep_stationary(t)
    assert push_through_last_row(dist) == dist


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


def test_mc_stationary_wraps_at_site_zero():
    # a lone particle starts at site 3 and steps left every time, through
    # site 0 to site 3 again
    t = TypeVector((1,), 4)
    for burn_in in range(9):
        [w] = mc_stationary(t, burn_in=burn_in, samples=1, seed=0)
        assert w.index(1) == (2 - burn_in) % 4


def test_mc_stationary_single_particle_uniform():
    # a single particle cycles deterministically, so the time average is
    # exactly uniform (thin must not be a multiple of the period)
    t = TypeVector((1,), 3)
    est = mc_stationary(t, burn_in=100, samples=30000, seed=11)
    for w, e in est.items():
        assert abs(e["freq"] - 1 / 3) < 1e-12
