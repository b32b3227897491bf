import random
from fractions import Fraction

import pytest

from ringtasep.linalg import det_fraction_free, kernel_vector


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


def test_kernel_of_rational_rows_matches_integer_rows():
    rng = random.Random(11)
    m = _rank_deficient(rng, 5, True)
    scaled = []
    for row in m:
        d = rng.randint(1, 9)
        scaled.append({c: Fraction(x, d) for c, x in enumerate(row)})
    x = kernel_vector(scaled, 5)
    y = kernel_vector([dict(enumerate(row)) for row in m], 5)
    assert all(a * y[0] == b * x[0] for a, b in zip(x, y))


def test_kernel_of_full_rank_matrix_raises():
    rng = random.Random(3)
    for n in range(1, 6):
        m = _random_matrix(rng, n)
        while det_fraction_free(m) == 0:
            m = _random_matrix(rng, n)
        with pytest.raises(ValueError, match="kernel dimension is 0"):
            kernel_vector([dict(enumerate(row)) for row in m], n)
