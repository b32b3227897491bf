"""The Razumov-Stroganov chain on linking patterns.

States are fixed-point-free non-crossing involutions of {1..2n}; the
generator e_i rewires a pattern by joining i with i+1 (indices cyclic)
and the old partners with each other.  The k-subset chain applies all
generators of a uniformly random k-subset, firing the left generator of
any adjacent pair first.

Rotation (each point i to i+1 mod 2n) conjugates e_i to e_{i+1}.  For
k < 2n it maps the firing order of a subset to that of the rotated
subset up to the order of its runs, and generators in different runs
commute, so the chain commutes with rotation.  `rs_stationary` then
hands the chain and `rotate` to the package's one stationary solver,
`markov._certified_stationary`: it solves the chain on rotation
classes, each represented by its first pattern in `enumerate_patterns`
order, shares each class's probability evenly over its orbit, and
certifies the lift on the full chain by its integer flow equations and
strong connectivity, so it is the unique stationary distribution.
k = 2n cuts the full cycle at index 1, which breaks rotation
covariance, so that chain is solved whole.  It is not ergodic at any
n >= 2 tried: n = 2 leaves a transient pattern, and from n = 3 on it
has several closed classes.  `markov.stationary_exact` reads both off
the strongly connected components of the chain graph and refuses the
chain before any elimination.
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, reduce

from .markov import _bell_order, _certified_stationary, chain_matrix

EXACT_CAP = 8  # the largest n whose patterns are enumerated and whose chains are solved


@dataclass(frozen=True)
class LinkingPattern:
    """Non-crossing perfect matching of {1..2n}, stored as sorted pairs."""

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        pairs = tuple(sorted(tuple(sorted(p)) for p in self.pairs))
        object.__setattr__(self, "pairs", pairs)
        points = [x for p in pairs for x in p]
        size = len(points)
        if size == 0 or sorted(points) != list(range(1, size + 1)):
            raise ValueError("pairs must partition 1..2n")
        for (a, c), (b, d) in itertools.combinations(pairs, 2):
            if a < b < c < d:
                raise ValueError(f"pairs {(a, c)} and {(b, d)} cross")

    @property
    def n(self) -> int:
        return len(self.pairs)

    def as_map(self) -> dict[int, int]:
        out = {}
        for a, b in self.pairs:
            out[a], out[b] = b, a
        return out


def enumerate_patterns(n: int) -> list[LinkingPattern]:
    """All non-crossing perfect matchings of {1..2n} (Catalan many), for
    n up to EXACT_CAP."""
    if n > EXACT_CAP:
        raise ValueError(f"n={n} above cap {EXACT_CAP}")

    def rec(points):
        if not points:
            yield ()
            return
        first = points[0]
        for k in range(1, len(points), 2):
            left = points[1:k]
            right = points[k + 1 :]
            for lp in rec(left):
                for rp in rec(right):
                    yield ((first, points[k]),) + lp + rp

    return [LinkingPattern(p) for p in rec(tuple(range(1, 2 * n + 1)))]


def apply_generator(L: LinkingPattern, i: int) -> LinkingPattern:
    """e_i: join i with i+1 and their former partners with each other.

    Indices are cyclic (e_{2n} joins 2n with 1); when i and i+1 are
    already joined the pattern is fixed, which is forced by e_i^2 = e_i.
    """
    m = 2 * L.n
    i = (i - 1) % m + 1
    j = i % m + 1
    mapping = L.as_map()
    if mapping[i] == j:
        return L
    a, b = mapping[i], mapping[j]
    pairs = [p for p in L.pairs if i not in p and j not in p and a not in p and b not in p]
    pairs += [(i, j), (a, b)]
    return LinkingPattern(tuple(pairs))


def generator_order(S, m: int) -> list[int]:
    """Firing order for a generator subset: each run of cyclically
    consecutive indices fires from its first index on, and the runs go in
    order of their first index (the TASEP bell order, shifted to 1..m).

    Selecting every index leaves no run start, so that single case is
    cut at index 1.
    """
    S = set(S)
    if not S <= set(range(1, m + 1)):
        raise ValueError("subset out of range 1..2n")
    return [i + 1 for i in _bell_order({i - 1 for i in S}, m)]


def apply_generator_set(L: LinkingPattern, S) -> LinkingPattern:
    """Compose the e_i over i in S, left generator of any adjacent pair
    first; the commutation relations make any admissible order agree."""
    for i in generator_order(S, 2 * L.n):
        L = apply_generator(L, i)
    return L


def rotate(L: LinkingPattern, s: int = 1) -> LinkingPattern:
    """The pattern with every point i moved to i + s (indices cyclic)."""
    m = 2 * L.n
    return LinkingPattern(tuple(((a + s - 1) % m + 1, (b + s - 1) % m + 1) for a, b in L.pairs))


def _rs_chain(n: int, k: int):
    """The patterns of the k-subset chain and its step_targets function.

    Each generator subset's firing order is computed once, and e_i is
    memoised on (pattern, i) for this one chain: every (pattern, subset)
    move reuses the few distinct generator applications.  The memo holds
    the chain's own pattern objects, not a copy per application.
    """
    m = 2 * n
    if not 1 <= k <= m:
        raise ValueError(f"need 1 <= k <= {m}")
    patterns = enumerate_patterns(n)
    orders = [generator_order(S, m) for S in itertools.combinations(range(1, m + 1), k)]
    canonical = {L: L for L in patterns}
    step = cache(lambda L, i: canonical[apply_generator(L, i)])

    def targets(L):
        for order in orders:
            yield reduce(step, order, L)

    return patterns, targets


def rs_transition_matrix(n: int, k: int):
    """Sparse move counts of the k-subset chain, with its pattern list: a
    `markov.CountMatrix` with D = C(2n, k), one move per generator subset."""
    patterns, targets = _rs_chain(n, k)
    return patterns, chain_matrix(patterns, targets)


def rs_stationary(n: int, k: int) -> dict[LinkingPattern, Fraction]:
    """Exact stationary distribution of the k-subset chain, certified unique
    by `markov._certified_stationary`.

    For k < 2n it is solved on rotation classes and lifted; k = 2n is
    solved whole, and refused from its closed classes when it is not
    ergodic.
    """
    if n > EXACT_CAP:
        raise ValueError(f"n={n} above exact-solve cap {EXACT_CAP}")
    patterns, targets = _rs_chain(n, k)
    return _certified_stationary(patterns, targets, rotate if k < 2 * n else None)
