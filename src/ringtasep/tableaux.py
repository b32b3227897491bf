"""Partitions, Young tableaux, and the queue/tableau correspondence.

Semistandard tableau counts come in three mutually checking routes
(hook-content product, two Jacobi-Trudi determinants, brute
enumeration).  On top of those sit the probability that a stationary
word starts with a fixed descending run, the count of queues whose
bottom row starts n(n-1)...2 (determinant-sum route vs. tableau-count
route), the explicit bijection from such queues to semistandard
tableaux, and interlacing (Gelfand-Tsetlin) pattern counting.
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from .core import TypeVector, binomial
from .linalg import det_fraction_free
from .mlq import DiscreteMLQ, LabeledMLQ


# --- partitions -------------------------------------------------------------


def check_partition(lam) -> tuple[int, ...]:
    lam = tuple(int(x) for x in lam)
    if any(x < 1 for x in lam):
        raise ValueError("partition parts must be positive")
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise ValueError(f"{lam} is not weakly decreasing")
    return lam


def conjugate_partition(lam) -> tuple[int, ...]:
    lam = check_partition(lam)
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p >= j) for j in range(1, lam[0] + 1))


def cells(lam):
    """(row, col) cells of the Ferrers diagram, 0-based."""
    for i, p in enumerate(lam):
        for j in range(p):
            yield i, j


def hook_length(lam, i: int, j: int) -> int:
    lamc = conjugate_partition(lam)
    return lam[i] + lamc[j] - i - j - 1


def content(i: int, j: int) -> int:
    return j - i


# --- tableaux ----------------------------------------------------------------


@dataclass(frozen=True)
class Tableau:
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(tuple(r) for r in self.rows))

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(r) for r in self.rows)

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(r[j] for r in self.rows if len(r) > j)

    def __repr__(self):
        return "/".join("".join(map(str, r)) if all(v <= 9 for v in r) else ",".join(map(str, r)) for r in self.rows)


def is_ssyt(tab: Tableau, bound: int | None = None) -> bool:
    rows = tab.rows
    check_partition(tab.shape) if rows else None
    for r in rows:
        if any(r[i] > r[i + 1] for i in range(len(r) - 1)):
            return False
        if any(v < 1 for v in r):
            return False
        if bound is not None and any(v > bound for v in r):
            return False
    for i in range(len(rows) - 1):
        for j in range(len(rows[i + 1])):
            if rows[i][j] >= rows[i + 1][j]:
                return False
    return True


def ssyt_count_hook_content(lam, t: int) -> int:
    """Number of semistandard tableaux of shape lam with entries in [t],
    by the hook-content product."""
    lam = check_partition(lam)
    if t < 0:
        raise ValueError("need t >= 0")
    out = Fraction(1)
    for i, j in cells(lam):
        out *= Fraction(t + content(i, j), hook_length(lam, i, j))
    if out.denominator != 1:
        raise RuntimeError("hook-content product is not an integer")
    return int(out)


def ssyt_count_jacobi_trudi(lam, t: int) -> int:
    """Same count by both dual Jacobi-Trudi determinants; all three
    routes (including hook-content) must agree exactly."""
    lam = check_partition(lam)
    if not lam:
        return 1
    lamc = conjugate_partition(lam)
    size = lam[0]
    d1 = det_fraction_free(
        [[binomial(t, lamc[i] - (i + 1) + (j + 1)) for j in range(size)] for i in range(size)]
    )
    d2 = det_fraction_free(
        [[binomial(t + j, lamc[i] - (i + 1) + (j + 1)) for j in range(size)] for i in range(size)]
    )
    hc = ssyt_count_hook_content(lam, t)
    if not (d1 == d2 == hc):
        raise RuntimeError(f"tableau-count routes disagree: det {d1}, det {d2}, hook-content {hc}")
    return hc


def ssyt_brute(lam, t: int) -> list[Tableau]:
    """Exhaustive list of semistandard tableaux of shape lam, entries in [t]."""
    lam = check_partition(lam)
    if not lam:
        return [Tableau(())]

    def fill_rows(i, above, acc, out):
        if i == len(lam):
            out.append(Tableau(tuple(acc)))
            return
        for row in _weak_rows(lam[i], t, above):
            acc.append(row)
            fill_rows(i + 1, row, acc, out)
            acc.pop()

    out: list[Tableau] = []
    fill_rows(0, None, [], out)
    return out


def _weak_rows(length, t, above):
    """Weakly increasing rows in [t], strictly below `above` columnwise."""

    def rec(j, prev, acc):
        if j == length:
            yield tuple(acc)
            return
        lo = max(prev, (above[j] + 1) if above is not None and j < len(above) else 1)
        for v in range(lo, t + 1):
            acc.append(v)
            yield from rec(j + 1, v, acc)
            acc.pop()

    yield from rec(0, 1, [])


def syt_count(lam) -> int:
    """Standard tableaux of shape lam, by the hook length formula."""
    lam = check_partition(lam)
    size = sum(lam)
    out = Fraction(factorial(size))
    for i, j in cells(lam):
        out /= hook_length(lam, i, j)
    if out.denominator != 1:
        raise RuntimeError("hook length formula gave a non-integer")
    return int(out)


def syt_brute(lam) -> int:
    """Standard tableaux counted by peeling corners, as an oracle."""
    lam = check_partition(lam)

    memo: dict[tuple, int] = {(): 1}

    def rec(shape) -> int:
        if shape in memo:
            return memo[shape]
        total = 0
        for i in range(len(shape)):
            if shape[i] > (shape[i + 1] if i + 1 < len(shape) else 0):
                smaller = tuple(
                    x - 1 if k == i else x for k, x in enumerate(shape) if not (k == i and x == 1)
                )
                total += rec(smaller)
        memo[shape] = total
        return total

    return rec(lam)


# --- descending prefixes ------------------------------------------------------


def descending_prefix_probability(xs, N: int) -> Fraction:
    """Probability that a stationary fully packed word starts with the
    descending letters xs = (x_n, ..., x_2).

    Closed form: det C(x_{i+1}, j-1) over the ascending reordering,
    divided by C(N,1) C(N,2) ... C(N, n-1).
    """
    xs = tuple(xs)
    if any(xs[i] <= xs[i + 1] for i in range(len(xs) - 1)):
        raise ValueError("prefix letters must strictly decrease")
    if not xs:
        raise ValueError("empty prefix")
    if not (1 <= xs[-1] and xs[0] <= N):
        raise ValueError("letters must lie in 1..N")
    asc = tuple(reversed(xs))
    ell = len(xs)
    det = det_fraction_free([[binomial(x, j) for j in range(ell)] for x in asc])
    denom = 1
    for i in range(1, ell + 1):
        denom *= comb(N, i)
    return Fraction(det) / denom


def _derived_shape(t: TypeVector) -> tuple[int, ...]:
    """Conjugate shape M_{n-1} - (n-2), M_{n-2} - (n-3), ..., M_1."""
    Mfull = (0,) + t.M
    n = t.n
    return tuple(Mfull[n - i] - (n - i - 1) for i in range(1, n))


def _full_type(m, N: int) -> TypeVector:
    """Type vector summing to N; a short m gets its last class padded."""
    m = tuple(int(x) for x in m)
    missing = N - sum(m)
    if missing > 0:
        m = m + (missing,)
    return TypeVector(m, N)


def descending_start_count(m, N: int) -> int:
    """Number of queues of full type m whose bottom word starts with the
    descending run n, n-1, ..., 2.

    Route A sums the prefix-probability determinants over one letter per
    class block and multiplies back by the number of queues; route B
    counts semistandard tableaux of the derived shape with entries in
    [N-n+1].  Both are computed and must agree exactly.
    """
    t = _full_type(m, N)
    n = t.n
    if n < 2:
        raise ValueError("need at least two classes")
    if t.M[-1] != N:
        raise ValueError("type must fill the ring")
    Mfull = (0,) + t.M
    pref = 1
    for Mi in t.M:
        pref *= comb(N, Mi)
    blocks = [range(Mfull[i - 1] + 1, Mfull[i] + 1) for i in range(n, 1, -1)]
    total = Fraction(0)
    for xs in itertools.product(*blocks):
        total += descending_prefix_probability(xs, N)
    route_a = pref * total
    if route_a.denominator != 1:
        raise RuntimeError("count route A is not an integer")
    lamc = _derived_shape(t)
    lam = conjugate_partition(lamc)
    route_b = ssyt_count_hook_content(lam, N - n + 1)
    if route_a != route_b:
        raise RuntimeError(f"count routes disagree: {route_a} vs {route_b}")
    return int(route_a)


# --- the queue <-> tableau bijection ------------------------------------------


def _triangle_positions(R: int, n: int) -> range:
    """Forced box positions of row R (1-based) for a descending-start
    queue: columns n-R .. n-2, 0-based."""
    return range(n - R, n - 1)


def mlq_to_ssyt(l: LabeledMLQ) -> Tableau:
    """Map a full-type queue whose bottom word starts n(n-1)...2 to its
    semistandard tableau of right-end distances.

    Column n-R of the tableau lists N - p over the unforced boxes p of
    row R; the forced staircase carries no information and is dropped.
    Raises if the bottom word does not start with the descending run or
    if any bully path wraps.
    """
    q = l.base
    t = q.t
    n, N = t.n, t.N
    if t.M[-1] != N or q.rows[-1] != tuple(range(N)):
        raise ValueError("queue must have full type (bottom row everywhere)")
    word = l.labels[-1]
    if tuple(word[: n - 1]) != tuple(range(n, 1, -1)):
        raise ValueError("bottom word must start n, n-1, ..., 2")
    if l.wrapped:
        raise ValueError("a bully path wraps; the correspondence does not apply")
    lamc = _derived_shape(t)
    columns = []
    for R in range(1, n):
        positions = q.rows[R - 1]
        triangle = set(_triangle_positions(R, n))
        if not triangle <= set(positions):
            raise ValueError(f"row {R} is missing forced staircase boxes")
        rest = [p for p in positions if p not in triangle]
        if any(p < n - 1 for p in rest):
            raise ValueError(f"row {R} has an unexpected box left of the staircase")
        if len(rest) != lamc[n - R - 1]:
            raise RuntimeError("unforced box count does not match the derived shape")
        columns.append(sorted(N - p for p in rest))
    columns.reverse()  # columns[i] now belongs to tableau column i+1
    rows = []
    for j in range(len(columns[0])):
        rows.append(tuple(col[j] for col in columns if len(col) > j))
    tab = Tableau(tuple(rows))
    if not is_ssyt(tab, N - n + 1):
        raise RuntimeError("image is not a semistandard tableau")
    return tab


def ssyt_to_mlq(tab: Tableau, m, N: int) -> DiscreteMLQ:
    """Inverse of mlq_to_ssyt: rebuild the queue from the tableau,
    restoring the forced staircase boxes."""
    t = _full_type(m, N)
    n = t.n
    lamc = _derived_shape(t)
    if conjugate_partition(tab.shape) != tuple(x for x in lamc if x):
        raise ValueError("tableau shape does not match the type")
    rows = []
    for R in range(1, n):
        col = tab.column(n - R - 1)
        positions = sorted(set(N - v for v in col) | set(_triangle_positions(R, n)))
        if len(positions) != t.M[R - 1]:
            raise ValueError("column entries collide with the staircase")
        rows.append(tuple(positions))
    rows.append(tuple(range(N)))
    return DiscreteMLQ(t, tuple(rows))


# --- interlacing patterns -----------------------------------------------------


def interlacing_pattern_count(n: int) -> dict:
    """Relative-position count for queues projecting to the reverse
    permutation: linear extensions of the triangular interlacing order,
    against the closed form C(n+1,2)! prod i! / prod (2i+1)!.

    The closed form is reported, not asserted: its printed source has an
    off-by-one ambiguity, so the brute count is the ground truth.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    elements = [(i, j) for i in range(1, n + 1) for j in range(1, i + 1)]
    idx = {e: k for k, e in enumerate(elements)}
    preds: list[list[int]] = [[] for _ in elements]
    for i, j in elements:
        if i + 1 <= n:
            preds[idx[(i, j)]].append(idx[(i + 1, j)])
        if i - 1 >= 1 and j - 1 >= 1 and j - 1 <= i - 1:
            preds[idx[(i, j)]].append(idx[(i - 1, j - 1)])
    B = len(elements)
    memo: dict[int, int] = {}

    def rec(placed: int) -> int:
        if placed == (1 << B) - 1:
            return 1
        if placed in memo:
            return memo[placed]
        total = 0
        for k in range(B):
            if placed >> k & 1:
                continue
            if all(placed >> p & 1 for p in preds[k]):
                total += rec(placed | 1 << k)
        memo[placed] = total
        return total

    brute = rec(0)
    closed = Fraction(factorial(comb(n + 1, 2)))
    for i in range(1, n):
        closed *= factorial(i)
        closed /= factorial(2 * i + 1)
    closed_ok = closed.denominator == 1
    return {
        "n": n,
        "brute": brute,
        "closed_form": int(closed) if closed_ok else closed,
        "match": closed_ok and brute == int(closed),
    }


def hook_content_row_addition_check(m, N: int) -> dict:
    """Verify the exact identity behind the two-route count equality:
    adding a full row on top of the derived shape rescales the
    hook-content product by prod (lambda'_i + n - i)/(N + 1 - i)."""
    t = _full_type(m, N)
    n = t.n
    lamc = _derived_shape(t)
    lam = conjugate_partition(lamc)
    muc = tuple(x + 1 for x in lamc)
    mu = conjugate_partition(muc)

    def hc_product(shape, s) -> Fraction:
        out = Fraction(1)
        for i, j in cells(shape):
            out *= Fraction(s + content(i, j), hook_length(shape, i, j))
        return out

    lhs = hc_product(lam, N - n + 1)
    rhs = hc_product(mu, N - n + 2)
    for i in range(1, n):
        rhs *= Fraction(lamc[i - 1] + n - i, N + 1 - i)
    return {"m": t.m, "N": N, "lhs": lhs, "rhs": rhs, "match": lhs == rhs}
