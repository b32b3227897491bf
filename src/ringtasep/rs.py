"""The Razumov-Stroganov chain on linking patterns.

States are fixed-point-free non-crossing involutions of {1..2n}; the
generator e_i rewires a pattern by joining i with i+1 (indices cyclic)
and the old partners with each other.  The k-subset chain applies all
generators of a uniformly random k-subset, firing the left generator of
any adjacent pair first.

e_i and the rotation have one implementation each, on partner tuples:
p[x] is the partner of x on the 0-based points 0..2n-1 (`_join`,
`_turn`).  `apply_generator` and `rotate` wrap them for validated
`LinkingPattern`s.  The chain itself runs on pattern positions: `_tables`
lists `enumerate_patterns(n)` once and tabulates e_i and the rotation as
integer lookup tables over the positions in that list.  The e_i tables
are a generator table of `markov._subset_moves`, the walker the TASEP's
k-subset chain uses on its bell tables, so a move walks its firing order
through the tables and builds, hashes and validates no pattern.  The
generator-relation check of `verify` reads the same e_i tables.

Rotation (each point i to i+1 mod 2n) conjugates e_i to e_{i+1}.  For
k < 2n it maps the firing order of a subset to that of the rotated
subset up to the order of its runs, and generators in different runs
commute, so the chain commutes with rotation.  `rs_stationary` then
hands the patterns, their move lists and the rotation table to the
package's one stationary solver, `markov._certified_stationary`: it
solves the chain on rotation classes, each represented by its first
pattern in `enumerate_patterns` order, shares each class's probability
evenly over its orbit, and certifies the lift on the full chain by its
integer flow equations and strong connectivity, so it is the unique
stationary distribution.  k = 2n cuts the full cycle at index 1, which
breaks rotation covariance, so that chain is solved whole.  It is not
ergodic at any n >= 2 tried: n = 2 leaves a transient pattern, and from
n = 3 on it has several closed classes.  `markov.stationary_exact`
refuses both through its sparse elimination: the number of free columns
is the number of closed classes (Norris, Markov Chains, 1997, section
1.7), and with one closed class the kernel vector is zero on the
transient pattern.
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .markov import _bell_order, _certified_stationary, _subset_moves, chain_matrix

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


def enumerate_patterns(n: int) -> list[LinkingPattern]:
    """All non-crossing perfect matchings of {1..2n} (Catalan many), for
    n up to EXACT_CAP."""
    if n < 1:
        raise ValueError("need n >= 1")
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


def _partners(L: LinkingPattern) -> tuple[int, ...]:
    """L as a partner tuple: p[x] is the partner of x, on 0-based points."""
    p = [0] * (2 * L.n)
    for a, b in L.pairs:
        p[a - 1], p[b - 1] = b - 1, a - 1
    return tuple(p)


def _pattern(p: tuple[int, ...]) -> LinkingPattern:
    """The validated linking pattern of a partner tuple."""
    return LinkingPattern(tuple((x + 1, y + 1) for x, y in enumerate(p) if x < y))


def _join(p: tuple[int, ...], i: int) -> tuple[int, ...]:
    """e_{i+1} on a partner tuple: join point i with i + 1 (0-based,
    cyclic) and their former partners with each other.  p itself when i
    and i + 1 are already joined, which is forced by e_i^2 = e_i."""
    j = (i + 1) % len(p)
    a, b = p[i], p[j]
    if a == j:
        return p
    q = list(p)
    q[i], q[j], q[a], q[b] = j, i, b, a
    return tuple(q)


def _turn(p: tuple[int, ...], s: int = 1) -> tuple[int, ...]:
    """The partner tuple with every point x moved to x + s (cyclic)."""
    m = len(p)
    q = [0] * m
    for x, y in enumerate(p):
        q[(x + s) % m] = (y + s) % m
    return tuple(q)


def apply_generator(L: LinkingPattern, i: int) -> LinkingPattern:
    """e_i: join i with i+1 and their former partners with each other.

    Indices are cyclic (e_{2n} joins 2n with 1); when i and i+1 are
    already joined the pattern is fixed, which is forced by e_i^2 = e_i.
    """
    p = _partners(L)
    q = _join(p, (i - 1) % len(p))
    return L if q is p else _pattern(q)


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
    return _pattern(_turn(_partners(L), s))


def _tables(n: int):
    """e_i and the rotation as lookup tables on pattern positions: the
    `enumerate_patterns(n)` list; gen, where gen[i][s] is the position of
    e_{i+1} applied to pattern s; and rot, where rot[s] is the position of
    pattern s turned by one step.

    Each pattern is held as its partner tuple, and every entry is
    tabulated once.  A join or turn that leaves the listed patterns is
    refused with a RuntimeError that names the pattern and the move.
    """
    patterns = enumerate_patterns(n)
    partners = [_partners(L) for L in patterns]
    index = {p: s for s, p in enumerate(partners)}

    def position(q, s, i=None):
        """The position of partner tuple q, got from pattern s by e_{i+1},
        or by the rotation when i is None."""
        try:
            return index[q]
        except KeyError:
            move = "the rotation" if i is None else f"e_{i + 1}"
            raise RuntimeError(f"{move} takes {patterns[s]} to partner tuple {q}, not a listed pattern") from None

    gen = [[position(_join(p, i), s, i) for s, p in enumerate(partners)] for i in range(2 * n)]
    rot = [position(_turn(p), s) for s, p in enumerate(partners)]
    return patterns, gen, rot


def _rs_chain(n: int, k: int):
    """The k-subset chain on pattern positions: the `enumerate_patterns(n)`
    list, whose positions are the states; every pattern's move list, the
    `_tables` gen walked by `markov._subset_moves`; and the rotation table
    rot of `_tables`.  k is checked before any table is built; n < 1 and
    n above the cap are refused by `enumerate_patterns`."""
    m = 2 * n
    if m > 0 and not 1 <= k <= m:
        raise ValueError(f"need 1 <= k <= {m}")
    patterns, gen, rot = _tables(n)
    return patterns, _subset_moves(gen, k), rot


def rs_transition_matrix(n: int, k: int):
    """Sparse move counts of the k-subset chain, with its pattern list: a
    `markov.CountMatrix` with D = C(2n, k), one move per generator subset,
    whose row s is the pattern at position s."""
    patterns, succ, _ = _rs_chain(n, k)
    return patterns, chain_matrix(succ)


def rs_stationary(n: int, k: int) -> dict[LinkingPattern, Fraction]:
    """Exact stationary distribution of the k-subset chain, in
    `enumerate_patterns` order, certified unique by
    `markov._certified_stationary`.

    The solver takes the patterns, their move lists on positions and, for
    k < 2n, the chain's rotation table, so it solves on rotation classes
    and lifts; k = 2n is solved whole, and refused by the elimination of
    `markov.stationary_exact` when it is not ergodic.  The result is keyed
    by the `enumerate_patterns` objects.
    """
    patterns, succ, rot = _rs_chain(n, k)
    return _certified_stationary(patterns, succ, rot if k < 2 * n else None)
