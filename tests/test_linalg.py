import fractions
import itertools
import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import assume, given, settings, strategies as st

from ringtasep import linalg, markov
from ringtasep.core import TypeVector
from ringtasep.linalg import det_fraction_free, kernel_vector
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


def test_kernel_of_dimension_two_raises():
    with pytest.raises(ValueError, match="kernel dimension is 2"):
        kernel_vector([{0: 1}, {0: -1}], 3)


def test_kernel_mod_of_rank_two_below_full_is_none():
    # column 3 has no rows; column 1 loses its last live row once row 1 is
    # eliminated by row 0, so two columns are left unpivoted and no kernel
    # vector is returned
    with pytest.raises(ValueError, match="kernel dimension is 2"):
        kernel_vector([{0: 1, 1: 1}, {0: 1, 1: 1}, {2: 1}], 4)


@pytest.mark.parametrize("n", [1, 2])
def test_trivial_kernels(n):
    assert kernel_vector([{}] * (n - 1) + [{c: 1 for c in range(1, n)}], n) == [1] + [0] * (n - 1)


@pytest.mark.parametrize(
    "rows, x",
    [
        ([{1: 1, 2: 1}, {1: 1, 2: 2}], [1, 0, 0]),  # column 0 has no rows from the start
        ([{0: 1, 1: 1}, {0: 2, 1: 2, 2: 1}], [-1, 1, 0]),  # column 1 loses its rows
    ],
)
def test_kernel_free_column_has_no_live_rows(rows, x):
    # the free column's entry is positive
    assert kernel_vector(rows, 3) == x


def test_large_kernel_is_exact():
    y = [2**40 + 15, -(2**37 + 9), 3**25, 2**31 + 11]
    rows = [{0: y[1], 1: -y[0]}, {0: y[2], 2: -y[0]}, {0: y[3], 3: -y[0]}]
    assert kernel_vector(rows, 4) in (y, [-v for v in y])


@pytest.mark.parametrize(
    "rows, y",
    [
        ([{0: 2**61 - 1, 1: 3}], [3, -(2**61 - 1)]),
        ([{0: 2**61, 1: -1}], [1, 2**61]),
        ([{0: 3, 1: 2**62 - 57}], [2**62 - 57, -3]),
        ([{0: 2**61 - 1}, {1: 1, 2: -1}], [0, 1, 1]),  # a 61-bit pivot alone in its row
    ],
)
def test_kernel_with_word_size_entries(rows, y):
    # in the first three the pivot does not divide the back substitution's
    # sum, so the vector is scaled by it
    assert kernel_vector(rows, len(y)) in (y, [-v for v in y])


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


def test_real_chains_solve_and_recertify_in_integers():
    # linalg works in integers alone: it binds nothing from fractions
    bound = [k for k, v in vars(linalg).items() if v is fractions or getattr(v, "__module__", "") == "fractions"]
    assert not bound
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


def test_tasep_quotient_solve_takes_the_sparse_elimination(monkeypatch):
    # tasep_stationary answers from the queue census; the quotient solve
    # that verify keeps still runs the sparse elimination
    calls = []
    monkeypatch.setattr(markov, "kernel_vector", lambda rows, n: calls.append(n) or kernel_vector(rows, n))
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


def _rank(rows, n):
    """Rank over Q of sparse integer rows, by the dense fraction-free
    elimination that determinants use."""
    return len(linalg._eliminate([[row.get(c, 0) for c in range(n)] for row in rows])[0]) if rows else 0


def _certified_kernel(rows, x):
    # a primitive nonzero integer vector with M x = 0
    assert any(x) and gcd(*x) == 1
    assert all(sum(v * x[c] for c, v in row.items()) == 0 for row in rows)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_sparse_rank_deficient())
def test_kernel_of_rank_deficient_rows_is_certified(case):
    # rank n - 1, so a certified vector spans the kernel
    n, rows = case
    assume(_rank(rows, n) == n - 1)
    _certified_kernel(rows, kernel_vector(rows, n))


@st.composite
def _sparse_rows(draw):
    """Up to n + 1 random sparse integer rows of n columns: any rank."""
    n = draw(st.integers(1, 7))
    row = st.dictionaries(st.integers(0, n - 1), st.integers(-3, 3), max_size=3)
    return n, draw(st.lists(row, max_size=n + 1))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_sparse_rows())
def test_kernel_is_certified_or_names_its_dimension(case):
    n, rows = case
    d = n - _rank(rows, n)
    if d == 1:
        _certified_kernel(rows, kernel_vector(rows, n))
    else:
        with pytest.raises(ValueError, match=rf"^kernel dimension is {d}, expected 1 \(chain reducible\?\)$"):
            kernel_vector(rows, n)
