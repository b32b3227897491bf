"""Exact enumeration of discrete multiline queues and the determinant
formulas for bottom-row counts.

The census side is a row-transfer census: it counts queues row by row,
keeping one labelled row per rotation class, as a word, with the number
of queue prefixes that reach the class (mlq.transfer over the word step
mlq._row_successors; transfer and _transfer say why the merges are
exact).  The class states after each prefix of row sizes are memoised
once per process, packed into bytes (_class_states), so censuses that
share their first rows, such as (1^(n-1), N) and (1^n, N), share those
steps.  At the end it spreads each class count evenly over the distinct
rotations of its bottom word, taken as slices of the word.  The
closed-form side evaluates the determinant/product expressions for the
number of queues whose bottom row is the reverse permutation, the
reverse with two adjacent values swapped, or a commuting product of such
swaps (the last is a conjectured formula and is only ever *compared*,
never assumed); the determinant det A_S(b) is memoised on (b, S), as the
census sweeps meet each b on every ring that holds it.
Nonintersecting lattice-path counting is included as an independent
oracle for the determinant route.
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import factorial

from .core import VACANT, Perm, TypeVector, binomial, check_permutation
from .linalg import det_fraction_free
from .mlq import DiscreteMLQ, _box_sets, _row_successors, transfer
from .tableaux import conjugate_partition


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
    for rows in _mlq_rows(t):
        yield DiscreteMLQ(t, rows)


def _mlq_rows(t: TypeVector):
    """The rows of every queue of a type, as tuples of box positions, in
    the order of enumerate_mlqs; a sweep that keeps few queues filters
    these before it builds any."""
    return itertools.product(*(itertools.combinations(range(t.N), Mi) for Mi in t.M))


def _transfer(N: int, sizes):
    """Row-transfer census over rows of the given sizes on N sites, the
    first row nonempty: yields each bottom word with its number of queues.

    The census runs on rotation classes of labelled rows, held as words.
    Rotating every row of a queue by s rotates each labelled row by s,
    since a claim looks only to the cyclic right.  So each labelled row is
    kept as rep(O), the least rotation of its word that puts a label-1 box
    at site 0, with T(O), the number of queue prefixes that reach any row
    of its class O.  The merge is exact whatever the stabilisers: rotating
    the box sets shows that every row of O has as many successors in a
    class O' as rep(O) has, so

        T'(O') = sum over O of T(O) * #{successors of rep(O) in O'},

    which is mlq.transfer over the representatives once each successor of
    mlq._row_successors is replaced by the representative of its class.

    When m1 = 1 that representative needs no search.  A row then holds one
    label-1 box, so its class has one rotation with label 1 at site 0.
    In rep(O) the one label 1 sits at site 0 and, as the least label, it
    claims first: it takes b[0], the first box of the next row's box set
    b.  Above row 1 no label claims, and row 1's one box b[0] takes label
    1.  Either way the successor's label 1 sits at b[0], and its
    representative is the successor rotated by b[0].

    The empty row above row 1 is rotation invariant, so every row of a
    class has the same count.  So the last step spreads T(O) evenly over
    the distinct rotations of rep(O), the slices word[s:] + word[:s]: N of
    them when m1 = 1, fewer when a rotation fixes the row ({0, 2} on N = 4).

    The class states are read from _class_states, memoised per (N, sizes).
    """
    for word, total in _words(N, *_class_states(N, tuple(sizes))):
        orbit = dict.fromkeys(word[s:] + word[:s] for s in range(N))
        share, rest = divmod(total, len(orbit))
        if rest:
            raise RuntimeError(f"class of {tuple(word)} does not spread evenly over its rotations")
        for rotated in orbit:
            yield tuple(rotated), share


@cache
def _class_states(N: int, sizes: tuple[int, ...]) -> tuple[bytes, tuple[int, ...]]:
    """The rotation-class states of _transfer after the rows of sizes,
    packed: the representative words end to end in one bytes object, a
    byte per site, and their numbers of queue prefixes in the same order.
    One mlq.transfer row extends the states of sizes[:-1], themselves
    memoised, so censuses that share their first rows share those steps:
    the (1^n, N) census is the (1^(n-1), N) census and one row more, and
    bottom_word_counts and bottom_position_census of (1^n, N) are one
    census.

    The memo holds the states of every prefix for the life of the
    process, so they are packed, and immutable: as a tuple and a dict
    entry per word, the prefixes of (1^8, 8) took 2.1 MB, packed 0.6 MB.
    A label is at most the number of rows, below 256 on any ring a census
    can run on; the row step reads a bytes word as it reads a tuple."""
    if not sizes:
        return bytes((VACANT,) * N), (1,)
    size = sizes[-1]
    step = _row_successors(N, size, len(sizes))
    if sizes[0] == 1:

        def successors(word, box_sets=_box_sets(N, size)):
            for boxes, row in zip(box_sets, step(word)):
                s = boxes[0]
                yield bytes(row[s:] + row[:s])

    else:

        def successors(word):
            for row in step(word):
                yield bytes(min(row[s:] + row[:s] for s, label in enumerate(row) if label == 1))

    states = transfer(dict(_words(N, *_class_states(N, sizes[:-1]))), successors)
    return b"".join(states), tuple(states.values())


def _words(N: int, packed: bytes, counts: tuple[int, ...]):
    """The (word, count) pairs of packed class states, each word as bytes."""
    return zip((packed[i : i + N] for i in range(0, len(packed), N)), counts)


def bottom_word_counts(t: TypeVector) -> dict[tuple[int, ...], int]:
    """How many queues of the given type produce each bottom word."""
    return dict(_transfer(t.N, t.M))


def bottom_position_census(n: int, N: int) -> dict[tuple[Perm, tuple[int, ...]], int]:
    """Counts of queues of type (1,...,1) by (bottom permutation, positions).

    One row-transfer census serves every permutation and position vector
    at once; it is memoised per (n, N) in _position_census.  Empty when
    n > N.
    """
    if n < 1 or N < 1:
        raise ValueError(f"need n >= 1 and N >= 1, got n={n}, N={N}")
    return _position_census(n, N)


@cache
def _position_census(n: int, N: int) -> dict[tuple[Perm, tuple[int, ...]], int]:
    sites = range(N)
    shared = {}  # one positions tuple per box set, shared by its words
    census = {}
    for word, mult in _transfer(N, range(1, n + 1)):
        positions = tuple(itertools.compress(sites, word))  # VACANT is 0
        census[tuple(filter(None, word)), shared.setdefault(positions, positions)] = mult
    return census


def mlq_bottom_count(pi, b, N: int) -> int:
    """Count of type-(1,...,1) queues whose bottom row reads the
    permutation pi at positions b, read off the row-transfer census."""
    pi = check_permutation(pi)
    n = len(pi)
    pv = PositionVector(tuple(b), N)
    if len(pv.b) != n:
        raise ValueError("permutation and position vector sizes differ")
    return bottom_position_census(n, N).get((pi, pv.b), 0)


# --- closed forms -----------------------------------------------------------


@cache
def _shifted_det(b, S) -> int:
    """det A_S for positions b and a partition S of swap indices: row i of
    A_S (1-based) is C(b_i + j - 1 - s, j - 1 - s) for j = 1..n, shifted by
    s, the (n+1-i)-th part of the conjugate of S (0 past its end).  A_() is
    the reverse matrix C(b_i + j - 1, j - 1).  Memoised on the tuples
    (b, S), which the count formulas validate first: a census sweep meets
    each b once per ring size that holds it."""
    n = len(b)
    conj = conjugate_partition(S) + (0,) * n
    return det_fraction_free(
        [[binomial(bi + j - s, j - s) for j in range(n)] for bi, s in zip(b, reversed(conj[:n]))]
    )


def count_bottom_reverse(b) -> int:
    """Queues with bottom row the reverse permutation at positions b.

    Evaluated both as det A_() and as the Vandermonde product over the b_i
    divided by 1! 2! ... (n-1)!; the two routes must agree exactly.
    """
    b = tuple(b)
    n = len(b)
    if list(b) != sorted(set(b)) or (b and b[0] < 0):
        raise ValueError("positions must strictly increase and be nonnegative")
    det = _shifted_det(b, ())
    prod = superfactorial = 1
    for bk, bl in itertools.combinations(b, 2):
        prod *= bl - bk
    for d in range(1, n):
        superfactorial *= factorial(d)
    quotient, remainder = divmod(prod, superfactorial)
    if remainder or quotient != det:
        raise RuntimeError(f"determinant/product routes disagree: {det} vs {Fraction(prod, superfactorial)}")
    return det


def count_bottom_reverse_swap(k: int, b, N: int) -> int:
    """Closed form for the bottom row being the reverse permutation with
    the values k and k+1 swapped: C(N,k) det A_(k) minus the reverse count.
    A theorem for k = 1, 2; conjectured beyond."""
    b = tuple(b)
    n = len(b)
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < {n}")
    PositionVector(b, N)
    return binomial(N, k) * _shifted_det(b, (k,)) - count_bottom_reverse(b)


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
    (-1)^|S| prod_{i in S} C(N, k_i) det A_S (see _shifted_det).  For
    odd r this evaluates to minus the queue count (the r = 1 case must
    match the single-swap formula up to sign); the caller compares, never
    assumes.
    """
    b = tuple(b)
    n = len(b)
    kvec = check_swap_vector(kvec, n)
    PositionVector(b, N)
    total = 0
    for r in range(len(kvec) + 1):
        for S in itertools.combinations(kvec, r):
            coef = (-1) ** r
            for ki in S:
                coef *= binomial(N, ki)
            total += coef * _shifted_det(b, S)
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
        for name in ("starts", "ends"):
            points = tuple(tuple(p) for p in getattr(self, name))
            if not all(len(p) == 2 and all(isinstance(x, int) for x in p) for p in points):
                raise ValueError(f"{name} must be (row, column) pairs of ints, got {points}")
            object.__setattr__(self, name, points)
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
    return det_fraction_free(
        [[monotone_path_count(spec.starts[j], spec.ends[i]) for j in range(n)] for i in range(n)]
    )


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
