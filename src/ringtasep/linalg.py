"""Exact linear algebra: determinants and one-dimensional kernels.

Kernels take integer rows, kept sparse as {column: int} maps; the chain
layer hands them over as counts, so no rational is formed on the way.
They are solved by one sparse Gaussian elimination in exact integers.
Its pivots follow a Markowitz count (Markowitz 1957, "The elimination
form of the inverse"): the live column with the fewest live rows, and in
it the row with the fewest entries, to limit fill-in.  Each update is
fraction-free, and each updated row is divided by the gcd of its
entries.  A column left with no live rows is free, and the number of
free columns is the exact kernel dimension.

Determinants take dense integer rows and use fraction-free elimination
after Bareiss (1968), "Sylvester's identity and multistep
integer-preserving Gaussian elimination": every update divides exactly
by the previous pivot, so entries stay integers: each is a minor of the
input.
"""

import heapq
from math import gcd


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


def det_fraction_free(M) -> int:
    """Exact determinant of a square array of ints by fraction-free
    (Bareiss) elimination; any other entry is refused, because the
    elimination's exact floor divisions hold only for integers."""
    m = [list(r) for r in M]
    n = len(m)
    if any(len(r) != n for r in m):
        raise ValueError("matrix must be square")
    if not all(isinstance(x, int) for r in m for x in r):
        raise TypeError("matrix entries must be ints")
    if n == 0:
        return 1
    pivots, sign = _eliminate(m)
    return sign * m[-1][-1] if len(pivots) == n else 0


def kernel_vector(rows, n_cols: int) -> list[int]:
    """Primitive integer vector spanning the kernel of a matrix given as
    sparse {column: int} rows; raises if the kernel is not one-dimensional.

    Sparse Gaussian elimination in integers with Markowitz pivoting: each
    step pivots on the live column with the fewest live rows, and in it on
    the row with the fewest entries, which limits fill-in.  Only the
    columns of the pivot row change their counts, so a heap of (count,
    column) with stale entries skipped finds the next pivot column.  A row
    with entry f in the pivot column becomes (a/g) row - (f/g) top, for
    pivot a and g = gcd(a, f), and is then divided by the gcd of its
    entries.  A column with no live rows never gains one and is free.
    Back substitution stays in integers, from 1 on the free column: where
    a pivot does not divide its sum, the vector found so far is scaled up,
    so the free column's entry stays positive.
    """
    live = {}
    where = [set() for _ in range(n_cols)]  # column -> live rows nonzero there
    for i, row in enumerate(rows):
        live[i] = {c: v for c, v in row.items() if v}
        for c in live[i]:
            where[c].add(i)
    heap = [(len(w), c) for c, w in enumerate(where)]
    heapq.heapify(heap)
    pivots, free = [], []
    while heap:
        count, col = heapq.heappop(heap)
        if count != len(where[col]):  # stale; a pivoted column has no live rows left
            continue
        if not count:
            free.append(col)
            continue
        i = min(where[col], key=lambda i: len(live[i]))
        top = live.pop(i)
        a = top[col]
        for c in top:
            where[c].discard(i)
        for j in list(where[col]):
            row = live[j]
            f = row[col]
            g = gcd(a, f)
            s, t = a // g, f // g
            for c in row:
                row[c] *= s
            for c, v in top.items():
                new = row.get(c, 0) - t * v
                if new:
                    if c not in row:
                        where[c].add(j)
                    row[c] = new
                elif c in row:
                    del row[c]
                    where[c].discard(j)
            h = gcd(*row.values())
            if h > 1:
                for c in row:
                    row[c] //= h
        for c in top:
            if c != col:
                heapq.heappush(heap, (len(where[c]), c))
        pivots.append((col, top))
    if len(free) != 1:
        raise ValueError(f"kernel dimension is {len(free)}, expected 1 (chain reducible?)")
    x = [0] * n_cols
    x[free[0]] = 1
    for col, top in reversed(pivots):
        a = top.pop(col)
        s = -sum(v * x[c] for c, v in top.items())
        if s % a:
            scale = abs(a) // gcd(s, a)
            x = [v * scale for v in x]
            s *= scale
        x[col] = s // a
    g = gcd(*x)
    return [v // g for v in x]
