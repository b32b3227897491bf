"""Exact enumeration of discrete multiline queues and the determinant
formulas for bottom-row counts.

The census side is a row-transfer census: it counts queues row by row,
keeping each labelled row once with the number of queue prefixes that
reach it.  Merging is exact by the process of the last row: a labelled
row and the positions of the next row's boxes fix the next labelled row,
so prefixes that end in the same labelled row give the same bottom words
from then on.  The closed-form side evaluates the determinant/product
expressions for the number of queues whose bottom row is the reverse
permutation, the reverse with two adjacent values swapped, or a
commuting product of such swaps (the last is a conjectured formula and
is only ever *compared*, never assumed).  Nonintersecting lattice-path
counting is included as an independent oracle for the determinant route.
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .core import Perm, TypeVector, binomial, check_permutation
from .linalg import det_fraction_free
from .mlq import DiscreteMLQ, _claim_labels


@dataclass(frozen=True)
class PositionVector:
    """Strictly increasing bottom-row positions b_1 < ... < b_n in 0..N-1."""

    b: tuple[int, ...]
    N: int

    def __post_init__(self):
        object.__setattr__(self, "b", tuple(self.b))
        if list(self.b) != sorted(set(self.b)):
            raise ValueError("positions must strictly increase")
        if self.b and not (0 <= self.b[0] and self.b[-1] < self.N):
            raise ValueError(f"positions must lie in 0..{self.N - 1}")


def total_mlq_count(t: TypeVector) -> int:
    """Number of queues of the given type: the product of C(N, M_i)."""
    out = 1
    for Mi in t.M:
        out *= binomial(t.N, Mi)
    return out


def enumerate_mlqs(t: TypeVector):
    """All discrete queues of a type; intended for tiny cross-checks."""
    pools = [itertools.combinations(range(t.N), Mi) for Mi in t.M]
    for rows in itertools.product(*pools):
        yield DiscreteMLQ(t, rows)


def _transfer(N: int, sizes) -> dict[tuple[tuple[int, ...], tuple[int, ...]], int]:
    """Row-transfer census over rows of the given sizes on N sites.

    The state after a row is its labelled row as _claim_labels takes it
    (sorted (label, position) pairs), mapped to the number of queue
    prefixes that reach it.  The result maps (positions, labels) of the
    last row to its number of queues.
    """
    states: dict = {(): 1}
    last = len(sizes) - 1
    for i, size in enumerate(sizes):
        combos = list(itertools.combinations(range(N), size))
        nxt: dict = {}
        for state, mult in states.items():
            for combo in combos:
                labels, _, _ = _claim_labels(state, combo, i + 1)
                key = (combo, tuple(labels)) if i == last else tuple(sorted(zip(labels, combo)))
                nxt[key] = nxt.get(key, 0) + mult
        states = nxt
    return states


def bottom_word_counts(t: TypeVector) -> dict[tuple[int, ...], int]:
    """How many queues of the given type produce each bottom word."""
    counts: dict[tuple[int, ...], int] = {}
    for (positions, labels), mult in _transfer(t.N, t.M).items():
        sites = [0] * t.N
        for pos, label in zip(positions, labels):
            sites[pos] = label
        counts[tuple(sites)] = mult
    return counts


_CENSUS: dict[tuple[int, int], dict] = {}


def bottom_position_census(n: int, N: int) -> dict[tuple[Perm, tuple[int, ...]], int]:
    """Counts of queues of type (1,...,1) by (bottom permutation, positions).

    Cached per (n, N); one row-transfer census serves every permutation
    and position vector at once.
    """
    key = (n, N)
    if key not in _CENSUS:
        census = _transfer(N, tuple(range(1, n + 1)))
        _CENSUS[key] = {(labels, positions): mult for (positions, labels), mult in census.items()}
    return _CENSUS[key]


def mlq_bottom_count(pi, b, N: int, cap: int = 10**7) -> int:
    """Count of type-(1,...,1) queues whose bottom row reads the
    permutation pi at positions b, read off the row-transfer census."""
    pi = check_permutation(pi)
    n = len(pi)
    pv = PositionVector(tuple(b), N)
    if len(pv.b) != n:
        raise ValueError("permutation and position vector sizes differ")
    if total_mlq_count(TypeVector((1,) * n, N)) > cap:
        raise ValueError("enumeration size above cap")
    return bottom_position_census(n, N).get((pi, pv.b), 0)


# --- closed forms -----------------------------------------------------------


def count_bottom_reverse(b) -> int:
    """Queues with bottom row the reverse permutation at positions b.

    Evaluated both as det C(b_i + j - 1, j - 1) and as the Vandermonde
    product over the b_i divided by 1! 2! ... (n-1)!; the two routes must
    agree exactly.
    """
    b = tuple(b)
    n = len(b)
    if list(b) != sorted(set(b)) or (b and b[0] < 0):
        raise ValueError("positions must strictly increase and be nonnegative")
    mat = [[binomial(b[i] + j, j) for j in range(n)] for i in range(n)]
    det = det_fraction_free(mat)
    prod = Fraction(1)
    for k in range(n):
        for l in range(k + 1, n):
            prod *= b[l] - b[k]
    for d in range(1, n):
        prod /= factorial(d)
    if det != prod or prod.denominator != 1:
        raise RuntimeError(f"determinant/product routes disagree: {det} vs {prod}")
    return int(prod)


def count_bottom_reverse_swap(k: int, b, N: int) -> int:
    """Closed form for the bottom row being the reverse permutation with
    the values k and k+1 swapped: C(N,k) det A_k minus the reverse count.
    A theorem for k = 1, 2; conjectured beyond."""
    b = tuple(b)
    n = len(b)
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < {n}")
    PositionVector(b, N)
    mat = []
    for i in range(n):
        if i < n - k:
            mat.append([binomial(b[i] + j, j) for j in range(n)])
        else:
            mat.append([binomial(b[i] + j - 1, j - 1) for j in range(n)])
    det = det_fraction_free(mat)
    val = binomial(N, k) * det - count_bottom_reverse(b)
    if val.denominator != 1:
        raise RuntimeError("non-integer count")
    return int(val)


def _conjugate(parts) -> list[int]:
    parts = sorted(parts, reverse=True)
    if not parts:
        return []
    return [sum(1 for p in parts if p >= j) for j in range(1, parts[0] + 1)]


def check_swap_vector(kvec, n: int):
    """Admissibility chain n > k1 > k2+1 > k3+2 > ... > kr+r-1 > r-1."""
    kvec = tuple(kvec)
    r = len(kvec)
    if r < 1:
        raise ValueError("need at least one swap index")
    chain = [n] + [kvec[i] + i for i in range(r)] + [r - 1]
    if any(chain[i] <= chain[i + 1] for i in range(len(chain) - 1)):
        raise ValueError(f"swap vector {kvec} is not admissible for n={n}")
    return kvec


def count_bottom_reverse_multi_swap(kvec, b, N: int) -> int:
    """Conjectured inclusion-exclusion count for the bottom row equal to
    the reverse permutation hit by the commuting swaps s_{k1}...s_{kr}.

    Returns the alternating sum exactly as written: sum over subsets S of
    (-1)^|S| prod_{i in S} C(N, k_i) det A_S, where A_S shifts row i by
    the (n+1-i)-th conjugate part of the subset's swap partition.  For
    odd r this evaluates to minus the queue count (the r = 1 case must
    match the single-swap formula up to sign); the caller compares, never
    assumes.
    """
    b = tuple(b)
    n = len(b)
    kvec = check_swap_vector(kvec, n)
    PositionVector(b, N)
    r = len(kvec)
    total = 0
    for bits in range(1 << r):
        S = [kvec[i] for i in range(r) if bits >> i & 1]
        conj = _conjugate(S)
        mat = []
        for i in range(1, n + 1):
            shift = conj[n - i] if n - i < len(conj) else 0
            mat.append([binomial(b[i - 1] + j - 1 - shift, j - 1 - shift) for j in range(1, n + 1)])
        det = det_fraction_free(mat)
        coef = 1
        for ki in S:
            coef *= binomial(N, ki)
        total += (-1) ** len(S) * coef * det
    if isinstance(total, Fraction):
        if total.denominator != 1:
            raise RuntimeError("non-integer count")
        total = int(total)
    return total


# --- nonintersecting lattice paths ------------------------------------------


@dataclass(frozen=True)
class PathFamilySpec:
    """Endpoints for a family of lattice paths with unit right/down steps;
    point (r, c) is row r, column c, and paths go from starts[i] to
    ends[i] weakly down and right."""

    starts: tuple[tuple[int, int], ...]
    ends: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "starts", tuple(tuple(p) for p in self.starts))
        object.__setattr__(self, "ends", tuple(tuple(p) for p in self.ends))
        if len(self.starts) != len(self.ends):
            raise ValueError("starts and ends must pair up")


def monotone_path_count(start, end) -> int:
    dr, dc = end[0] - start[0], end[1] - start[1]
    if dr < 0 or dc < 0:
        return 0
    return binomial(dr + dc, dr)


def lgv_count(spec: PathFamilySpec) -> int:
    """Determinant count of nonintersecting path families.

    Valid when the endpoint configuration only admits the identity
    pairing, which holds for every family used here; lgv_brute is the
    independent check.
    """
    n = len(spec.starts)
    mat = [
        [monotone_path_count(spec.starts[j], spec.ends[i]) for j in range(n)]
        for i in range(n)
    ]
    det = det_fraction_free(mat)
    return int(det)


def _monotone_paths(start, end):
    if start == end:
        yield (start,)
        return
    r, c = start
    if r < end[0]:
        for rest in _monotone_paths((r + 1, c), end):
            yield ((r, c),) + rest
    if c < end[1]:
        for rest in _monotone_paths((r, c + 1), end):
            yield ((r, c),) + rest


def lgv_brute(spec: PathFamilySpec) -> int:
    """Count pairwise vertex-disjoint tuples of paths start_i -> end_i."""
    families = [list(_monotone_paths(s, e)) for s, e in zip(spec.starts, spec.ends)]
    count = 0
    for combo in itertools.product(*families):
        seen: set = set()
        ok = True
        for path in combo:
            for cell in path:
                if cell in seen:
                    ok = False
                    break
                seen.add(cell)
            if not ok:
                break
        if ok:
            count += 1
    return count


def reverse_path_spec(b) -> PathFamilySpec:
    """The path family whose disjoint tuples biject with reverse-bottom
    queues: starts on the left edge, ends on the bottom row at the b_i."""
    b = tuple(b)
    n = len(b)
    starts = tuple((n - j, 0) for j in range(n))
    ends = tuple((n, bi) for bi in b)
    return PathFamilySpec(starts, ends)
