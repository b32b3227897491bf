"""Exact linear algebra: one fraction-free elimination for determinants
and kernels.

Rational rows are cleared to integers first, each row scaled by the lcm
of its denominators.  Elimination follows Bareiss (1968), "Sylvester's
identity and multistep integer-preserving Gaussian elimination": every
update divides exactly by the previous pivot, so entries stay integers:
each is a minor of the input.
"""

from fractions import Fraction
from math import lcm


def _integer_rows(rows, n_cols: int) -> tuple[list[list[int]], int]:
    """Dense integer rows from sparse {column: rational} rows, each scaled
    by the lcm of its denominators; also the product of those scales."""
    out, scale = [], 1
    for sparse in rows:
        entries = [(c, Fraction(x)) for c, x in sparse.items()]
        s = lcm(*(x.denominator for _, x in entries))
        row = [0] * n_cols
        for c, x in entries:
            row[c] = x.numerator * (s // x.denominator)
        out.append(row)
        scale *= s
    return out, scale


def _eliminate(m: list[list[int]]) -> tuple[list[tuple[int, int]], int]:
    """Fraction-free row echelon form of an integer matrix, in place.

    Returns the pivot positions (row, column) in order and the sign of
    the row permutation.  The last pivot is, up to that sign, the minor
    on the pivot rows and columns.
    """
    n_rows, n_cols = len(m), len(m[0]) if m else 0
    pivots = []
    sign = 1
    prev = 1
    for col in range(n_cols):
        rank = len(pivots)
        sel = next((r for r in range(rank, n_rows) if m[r][col]), -1)
        if sel < 0:
            continue
        if sel != rank:
            m[rank], m[sel] = m[sel], m[rank]
            sign = -sign
        top = m[rank][col:]
        piv = top[0]
        for r in range(rank + 1, n_rows):
            row = m[r]
            factor = row[col]
            row[col:] = [(a * piv - factor * b) // prev for a, b in zip(row[col:], top)]
        pivots.append((rank, col))
        prev = piv
    return pivots, sign


def det_fraction_free(M) -> Fraction:
    """Exact determinant of a square array of ints/Fractions by
    fraction-free (Bareiss) elimination."""
    rows = [dict(enumerate(r)) for r in M]
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix must be square")
    if n == 0:
        return Fraction(1)
    m, scale = _integer_rows(rows, n)
    pivots, sign = _eliminate(m)
    if len(pivots) < n:
        return Fraction(0)
    return Fraction(sign * m[-1][-1], scale)


def kernel_vector(rows, n_cols: int) -> list[int]:
    """Integer vector spanning the kernel of a matrix given as sparse
    {column: rational} rows; raises if the kernel is not one-dimensional.

    Back substitution is scaled by the last pivot, the minor on the pivot
    rows and columns, so by Cramer's rule every division is exact.
    """
    m, _ = _integer_rows(rows, n_cols)
    pivots, _ = _eliminate(m)
    pivot_cols = {c for _, c in pivots}
    free = [c for c in range(n_cols) if c not in pivot_cols]
    if len(free) != 1:
        raise ValueError(f"kernel dimension is {len(free)}, expected 1 (chain reducible?)")
    x = [0] * n_cols
    x[free[0]] = m[pivots[-1][0]][pivots[-1][1]] if pivots else 1
    for r, c in reversed(pivots):
        row = m[r]
        x[c] = -sum(row[k] * x[k] for k in range(c + 1, n_cols) if row[k]) // row[c]
    return x
