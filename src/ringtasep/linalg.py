"""Exact linear algebra: determinants and one-dimensional kernels.

Kernels take integer rows, kept sparse as {column: int} maps; the chain
layer hands them over as counts, so no rational is formed on the way.
Determinants take dense integer rows.

Kernels are solved modulo word-size primes first.  Sparse Gaussian
elimination mod p gives the rank mod p and, when that is n - 1, a kernel
vector mod p.  Its pivots follow a Markowitz count (Markowitz 1957, "The
elimination form of the inverse"): the live column with the fewest live
rows, and in it the row with the fewest entries, to limit fill-in.  The
vectors of successive primes are combined by the Chinese remainder
theorem, and a primitive integer vector is recovered by rational
reconstruction (Wang, Guy & Davenport 1982; the multi-modular
scheme of Dixon 1982, "Exact solution of linear equations using p-adic
expansions").  It is returned only if it passes an exact certificate:
it is nonzero and M y = 0 holds in integers.  Rank n - 1 mod p bounds the
rank over Q from below, so a certified vector spans the kernel.

Determinants, and kernels the modular solve cannot certify (a rank drop
mod p, or too few primes), use fraction-free elimination after Bareiss
(1968), "Sylvester's identity and multistep integer-preserving Gaussian
elimination": every update divides exactly by the previous pivot, so
entries stay integers: each is a minor of the input.
"""

import heapq
from math import gcd, isqrt

# The largest primes below 2^61, 2^62 and 2^63.
_PRIMES = (2**61 - 1, 2**62 - 57, 2**63 - 25)


def _dense(rows: list[dict[int, int]], n_cols: int) -> list[list[int]]:
    out = []
    for sparse in rows:
        row = [0] * n_cols
        for c, v in sparse.items():
            row[c] = v
        out.append(row)
    return out


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


def _bareiss_kernel(m: list[list[int]], n_cols: int) -> list[int]:
    """Kernel vector of a dense integer matrix by fraction-free
    elimination; raises if the kernel is not one-dimensional.

    Back substitution is scaled by the last pivot, the minor on the pivot
    rows and columns, so by Cramer's rule every division is exact.
    """
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


def _kernel_mod(rows: list[dict[int, int]], n_cols: int, p: int) -> list[int] | None:
    """Kernel vector mod p of sparse integer rows, with its free entry set
    to 1; None unless exactly one column is left unpivoted, that is, unless
    the rank mod p is n_cols - 1.

    Sparse Gaussian elimination with Markowitz pivoting: each step pivots
    on the live column with the fewest live rows, and in it on the row
    with the fewest entries, which limits fill-in.  Only the columns of
    the pivot row change their counts, so a heap of (count, column) with
    stale entries skipped finds the next pivot column.  A column with no
    live rows never gains one and is free.
    """
    live = {}
    where = [set() for _ in range(n_cols)]  # column -> live rows nonzero there
    for i, row in enumerate(rows):
        live[i] = {c: v % p for c, v in row.items() if v % p}
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
            if len(free) > 1:
                return None
            continue
        i = min(where[col], key=lambda i: len(live[i]))
        top = live.pop(i)
        inv = pow(top[col], -1, p)
        top = {c: v * inv % p for c, v in top.items()}
        for c in top:
            where[c].discard(i)
        for j in list(where[col]):
            row = live[j]
            f = row[col]
            for c, v in top.items():
                new = (row.get(c, 0) - f * v) % p
                if new:
                    if c not in row:
                        where[c].add(j)
                    row[c] = new
                elif c in row:
                    del row[c]
                    where[c].discard(j)
        for c in top:
            if c != col:
                heapq.heappush(heap, (len(where[c]), c))
        pivots.append((col, top))
    if not free:
        return None
    x = [0] * n_cols
    x[free[0]] = 1
    for col, top in reversed(pivots):
        x[col] = -sum(v * x[c] for c, v in top.items() if c != col) % p
    return x


def _rational_reconstruction(t: int, m: int, bound: int) -> tuple[int, int] | None:
    """(a, b) with a = b t (mod m), |a| <= bound and 0 < b <= bound, by the
    half-extended Euclidean algorithm; None if the remainders give none."""
    r0, r1, s0, s1 = m, t, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    if s1 < 0:
        r1, s1 = -r1, -s1
    return (r1, s1) if s1 <= bound else None


def _reconstruct(x: list[int], m: int) -> list[int] | None:
    """Primitive integer vector proportional to a rational vector given by
    its image x mod m, with x[c] = 1 for some c; None if reconstruction
    fails.  A running common denominator d is carried, so each entry is
    reconstructed from d x[i], which is integral once d is complete."""
    bound = isqrt(m // 2)
    d, y = 1, []
    for t in x:
        found = _rational_reconstruction(d * t % m, m, bound)
        if found is None:
            return None
        a, b = found
        if b != 1:
            d *= b
            if d > bound:  # also keeps the entry where x is 1, d itself, nonzero
                return None
            y = [v * b for v in y]
        y.append(a)
    g = gcd(*y)
    return [v // g for v in y]


def kernel_vector(rows, n_cols: int) -> list[int]:
    """Integer vector spanning the kernel of a matrix given as sparse
    {column: int} rows; raises if the kernel is not one-dimensional.

    Solved mod each of _PRIMES in turn: the kernel vectors, normalised on
    one column, are combined by CRT, and after each prime a primitive
    integer vector y is reconstructed and returned if y is nonzero and
    M y = 0 holds exactly.  If the rank mod a prime is not n_cols - 1, or
    no prime gives a certified y, the kernel is found by fraction-free
    elimination instead, which also reports the kernel dimension.
    """
    modulus, acc, col = 1, [0] * n_cols, None
    for p in _PRIMES:
        x = _kernel_mod(rows, n_cols, p)
        if x is None:
            break
        if col is None:
            col = next(c for c, v in enumerate(x) if v)
        elif x[col] == 0:  # p divides the denominator of the normalised vector
            break
        inv = pow(x[col], -1, p)
        k = pow(modulus, -1, p)
        acc = [a + modulus * ((v * inv - a) * k % p) for a, v in zip(acc, x)]
        modulus *= p
        y = _reconstruct(acc, modulus)
        if y is not None and any(y) and all(sum(v * y[c] for c, v in row.items()) == 0 for row in rows):
            return y
    return _bareiss_kernel(_dense(rows, n_cols), n_cols)
