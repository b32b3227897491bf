import fractions
import itertools
import random
from fractions import Fraction
from math import lcm
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from ringtasep import linalg
from ringtasep.core import TypeVector
from ringtasep.linalg import _PRIMES, det_fraction_free, kernel_vector
from ringtasep.markov import _certified, _moves, _particle_steps, _tasep_solve, stationary_exact, tasep_stationary
from ringtasep.rs import apply_generator_set, rs_stationary, rs_transition_matrix


def _random_matrix(rng, n):
    return [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]


def _has_nonzero_minor(m):
    n = len(m)
    return any(
        det_fraction_free([r[:j] + r[j + 1 :] for k, r in enumerate(m) if k != i])
        for i in range(n)
        for j in range(n)
    )


def _rank_deficient(rng, n, dependent_column):
    """A random n x n integer matrix of rank n - 1.  Either the last row is
    a combination of the first two (rows then shuffled), or column 2 is a
    combination of columns 0 and 1, so elimination finds no pivot there."""
    while True:
        m = _random_matrix(rng, n)
        if dependent_column:
            for row in m:
                row[2] = 2 * row[0] - 3 * row[1]
        else:
            m[-1] = [2 * a - 3 * b for a, b in zip(m[0], m[1])]
            rng.shuffle(m)
        if _has_nonzero_minor(m):
            return m


@pytest.mark.parametrize("dependent_column", [False, True])
def test_kernel_of_rank_deficient_matrices(dependent_column):
    rng = random.Random(7)
    for n in range(3, 7):
        for _ in range(10):
            m = _rank_deficient(rng, n, dependent_column)
            x = kernel_vector([dict(enumerate(row)) for row in m], n)
            assert any(x)
            assert all(sum(a * b for a, b in zip(row, x)) == 0 for row in m)
            assert det_fraction_free(m) == 0


def test_kernel_of_full_rank_matrix_raises():
    rng = random.Random(3)
    for n in range(1, 6):
        m = _random_matrix(rng, n)
        while det_fraction_free(m) == 0:
            m = _random_matrix(rng, n)
        with pytest.raises(ValueError, match="kernel dimension is 0"):
            kernel_vector([dict(enumerate(row)) for row in m], n)


def _no_fallback(*args):
    raise AssertionError("the Bareiss fallback was used")


def _count_fallbacks(monkeypatch):
    calls = []
    bareiss = linalg._bareiss_kernel
    monkeypatch.setattr(linalg, "_bareiss_kernel", lambda *a: calls.append(1) or bareiss(*a))
    return calls


def _is_prime(n):
    """Deterministic Miller-Rabin: bases 2..37 decide every n < 3.3e24."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n in bases:
        return True
    if any(n % a == 0 for a in bases):
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def test_modular_primes_are_prime():
    assert [_is_prime(n) for n in (561, 2**61 + 1, 2**62 - 55, 3215031751)] == [False] * 4
    assert len(_PRIMES) == len(set(_PRIMES)) >= 1
    for p in _PRIMES:
        assert _is_prime(p) and p < 2**64


def test_rank_drop_mod_first_prime_falls_back(monkeypatch):
    calls = _count_fallbacks(monkeypatch)
    p = _PRIMES[0]
    rows = [{0: p}, {1: 1, 2: -1}]  # rank 2 over Q, rank 1 mod p
    x = kernel_vector(rows, 3)
    assert calls == [1]
    assert x[0] == 0 and x[1] == x[2] != 0


def test_large_kernel_is_recovered_by_crt(monkeypatch):
    monkeypatch.setattr(linalg, "_bareiss_kernel", _no_fallback)
    calls = []
    kernel_mod = linalg._kernel_mod
    monkeypatch.setattr(linalg, "_kernel_mod", lambda *a: calls.append(1) or kernel_mod(*a))
    y = [2**40 + 15, -(2**37 + 9), 3**25, 2**31 + 11]
    rows = [{0: y[1], 1: -y[0]}, {0: y[2], 2: -y[0]}, {0: y[3], 3: -y[0]}]
    x = kernel_vector(rows, 4)
    assert len(calls) >= 2  # one prime alone cannot hold 40-bit numerators and denominators
    assert x in (y, [-v for v in y])


@pytest.mark.parametrize(
    "rows, y",
    [
        ([{0: _PRIMES[0], 1: 3}], [3, -_PRIMES[0]]),  # mod the first prime column 0 is free, (1, 0)
        ([{0: _PRIMES[0] + 1, 1: -1}], [1, _PRIMES[0] + 1]),  # mod the first prime (1, 1)
    ],
)
def test_kernel_whose_first_image_misleads_needs_a_second_prime(monkeypatch, rows, y):
    monkeypatch.setattr(linalg, "_bareiss_kernel", _no_fallback)
    assert kernel_vector(rows, 2) == y


def test_prime_dividing_the_normalised_denominator_falls_back(monkeypatch):
    # y = (p2, -3): mod p2 the image is (0, 1), zero on the column the
    # first prime normalised; the fallback gives the kernel.
    calls = _count_fallbacks(monkeypatch)
    x = kernel_vector([{0: 3, 1: _PRIMES[1]}], 2)
    assert calls == [1]
    assert x[0] * -3 == x[1] * _PRIMES[1]


def test_kernel_of_dimension_two_raises():
    with pytest.raises(ValueError, match="kernel dimension is 2"):
        kernel_vector([{0: 1}, {0: -1}], 3)


@pytest.mark.parametrize("n", [1, 2])
def test_trivial_kernels(n):
    assert kernel_vector([{}] * (n - 1) + [{c: 1 for c in range(1, n)}], n) == [1] + [0] * (n - 1)


def test_kernel_mod_of_rank_two_below_full_is_none():
    # column 3 has no rows; column 1 loses its last live row once row 1 is
    # eliminated by row 0, so two columns are left unpivoted
    rows = [{0: 1, 1: 1}, {0: 1, 1: 1}, {2: 1}]
    assert linalg._kernel_mod(rows, 4, _PRIMES[0]) is None


@pytest.mark.parametrize(
    "rows, x",
    [
        ([{1: 1, 2: 1}, {1: 1, 2: 2}], [1, 0, 0]),  # column 0 has no rows from the start
        ([{0: 1, 1: 1}, {0: 2, 1: 2, 2: 1}], [-1, 1, 0]),  # column 1 loses its rows
    ],
)
def test_kernel_mod_free_column_has_no_live_rows(rows, x):
    p = _PRIMES[0]
    assert linalg._kernel_mod(rows, 3, p) == [v % p for v in x]


def _rs_targets(n, k):
    subsets = list(itertools.combinations(range(1, 2 * n + 1), k))

    def targets(L):
        for S in subsets:
            yield apply_generator_set(L, S)

    return targets


def _recertify(dist, step_targets):
    # dist, scaled to integer weights, certified on the full chain of
    # step_targets, gives back dist
    den = lcm(*(p.denominator for p in dist.values()))
    weights = [p.numerator * (den // p.denominator) for p in dist.values()]
    assert _certified(list(dist), _moves(list(dist), step_targets), weights) == dist


def test_real_chains_take_the_modular_path(monkeypatch):
    # linalg works in integers alone: it binds nothing from fractions
    bound = [k for k, v in vars(linalg).items() if v is fractions or getattr(v, "__module__", "") == "fractions"]
    assert not bound
    monkeypatch.setattr(linalg, "_bareiss_kernel", _no_fallback)
    t = TypeVector((1, 1, 1, 1, 1), 7)
    dist = tasep_stationary(t)
    assert sum(dist.values()) == 1
    _recertify(dist, _particle_steps)
    dist = rs_stationary(6, 2)
    assert sum(dist.values()) == 1 and min(dist.values()) > 0
    _recertify(dist, _rs_targets(6, 2))
    # rs_stationary(6, 2) solves only its 14 rotation classes; the full
    # 132-pattern chain is solved here
    patterns, P = rs_transition_matrix(6, 2)
    assert len(patterns) == 132
    assert dict(zip(patterns, stationary_exact(P))) == dist


def test_tasep_quotient_solve_takes_the_modular_path(monkeypatch):
    # tasep_stationary answers from the queue census; the quotient solve
    # that verify keeps still runs modular elimination, with no fallback
    monkeypatch.setattr(linalg, "_bareiss_kernel", _no_fallback)
    calls = []
    kernel_mod = linalg._kernel_mod
    monkeypatch.setattr(linalg, "_kernel_mod", lambda *a: calls.append(a[1]) or kernel_mod(*a))
    t = TypeVector((1,) * 5, 7)
    dist = _tasep_solve(t)
    assert calls and calls[0] == 360  # the 2,520 words' rotation classes
    assert dist == tasep_stationary(t)


_ENTRY = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))


def _cleared(row):
    """A rational row scaled to integers by the lcm of its denominators,
    without zeros: the same kernel."""
    s = lcm(*(x.denominator for x in row.values()))
    return {c: int(x * s) for c, x in row.items() if x}


@st.composite
def _sparse_rank_deficient(draw):
    """n - 1 random sparse rational rows of n columns plus one row that is
    a combination of two of them, in a random order, each row cleared to
    integers."""
    n = draw(st.integers(2, 8))
    row = st.dictionaries(st.integers(0, n - 1), _ENTRY, min_size=1, max_size=3)
    rows = draw(st.lists(row, min_size=n - 1, max_size=n - 1))
    i, j = draw(st.integers(0, n - 2)), draw(st.integers(0, n - 2))
    a, b = draw(_ENTRY), draw(_ENTRY)
    rows.append({c: a * rows[i].get(c, 0) + b * rows[j].get(c, 0) for c in rows[i].keys() | rows[j].keys()})
    return n, [_cleared(row) for row in draw(st.permutations(rows))]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_sparse_rank_deficient())
def test_modular_kernel_matches_bareiss(case):
    n, rows = case
    try:
        y = linalg._bareiss_kernel(linalg._dense(rows, n), n)
    except ValueError:
        assume(False)
    with mock.patch.object(linalg, "_bareiss_kernel", _no_fallback):
        x = kernel_vector(rows, n)
    assert all(sum(v * x[c] for c, v in row.items()) == 0 for row in rows)
    k = next(c for c in range(n) if y[c])
    assert all(a * y[k] == b * x[k] for a, b in zip(x, y))
