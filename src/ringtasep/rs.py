"""The Razumov-Stroganov chain on linking patterns.

States are fixed-point-free non-crossing involutions of {1..2n}; the
generator e_i rewires a pattern by joining i with i+1 (indices cyclic)
and the old partners with each other.  The k-subset chain applies all
generators of a uniformly random k-subset, firing the left generator of
any adjacent pair first.
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .markov import chain_matrix, stationary_exact


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

    def partner(self, i: int) -> int:
        for a, b in self.pairs:
            if i == a:
                return b
            if i == b:
                return a
        raise ValueError(f"point {i} out of range")

    def as_map(self) -> dict[int, int]:
        out = {}
        for a, b in self.pairs:
            out[a], out[b] = b, a
        return out


def enumerate_patterns(n: int, cap: int = 8) -> list[LinkingPattern]:
    """All non-crossing perfect matchings of {1..2n} (Catalan many)."""
    if n > cap:
        raise ValueError(f"n={n} above cap {cap}")

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
    """Firing order for a generator subset: the lowest pending index whose
    cyclic predecessor (if selected) has already fired.

    Selecting every index leaves no valid start, so that single case is
    cut at index 1.
    """
    S = set(S)
    if not S <= set(range(1, m + 1)):
        raise ValueError("subset out of range 1..2n")
    if len(S) == m:
        return list(range(1, m + 1))
    order = []
    fired: set[int] = set()
    pending = sorted(S)
    while pending:
        for i in pending:
            pred = m if i == 1 else i - 1
            if pred not in S or pred in fired:
                order.append(i)
                fired.add(i)
                pending.remove(i)
                break
        else:
            raise RuntimeError("no admissible generator order")
    return order


def apply_generator_set(L: LinkingPattern, S) -> LinkingPattern:
    """Compose the e_i over i in S, left generator of any adjacent pair
    first; the commutation relations make any admissible order agree."""
    for i in generator_order(S, 2 * L.n):
        L = apply_generator(L, i)
    return L


def rs_transition_matrix(n: int, k: int):
    """Sparse transition matrix of the k-subset chain, with its pattern list."""
    m = 2 * n
    if not 1 <= k <= m:
        raise ValueError(f"need 1 <= k <= {m}")
    patterns = enumerate_patterns(n)
    index = {p: i for i, p in enumerate(patterns)}
    p = Fraction(1, comb(m, k))
    subsets = list(itertools.combinations(range(1, m + 1), k))

    def targets(L):
        for S in subsets:
            yield p, apply_generator_set(L, S)

    return patterns, chain_matrix(patterns, index.__getitem__, targets)


def rs_stationary(n: int, k: int, cap: int = 6) -> dict[LinkingPattern, Fraction]:
    """Exact stationary distribution of the k-subset chain."""
    if n > cap:
        raise ValueError(f"n={n} above exact-solve cap {cap}")
    patterns, P = rs_transition_matrix(n, k)
    pi = stationary_exact(P)
    return {L: pi[i] for i, L in enumerate(patterns)}
