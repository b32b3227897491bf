"""Exact-arithmetic primitives and ring/permutation utilities.

Every probability, count and coefficient in this package is exact.
Rationals are ``fractions.Fraction`` values (always reduced, positive
denominator); counts are Python's arbitrary-precision ints.  Floating
point shows up only in Monte Carlo estimators.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import comb

Rational = Fraction

# Sentinel for an empty ring site.  Vacancies are deliberately not stored
# as an extra particle class; use RingWord.with_vacancy_class where a
# formula wants the "largest label" view.
VACANT = 0

# Sort key for a site: vacancies compare larger than any particle label.
_VACANT_KEY = 1 << 30


def binomial(a: int, b: int) -> int:
    """Binomial coefficient with the combinatorial zero convention.

    C(a, 0) = 1 for every a; C(a, b) = 0 whenever b < 0 or b > a >= 0.
    """
    if b < 0:
        return 0
    if b == 0:
        return 1
    if a < b:
        return 0
    return comb(a, b)


def rat_str(x: Fraction | int) -> str:
    """Serialize a rational as "p/q", omitting the denominator when 1."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def parse_rat(s: str) -> Fraction:
    """Inverse of rat_str."""
    return Fraction(s)


def _estimates(counts: dict, samples: int, name: str) -> dict:
    """Monte Carlo frequencies under `name`, by sorted key, with naive
    binomial standard errors."""
    out = {}
    for key in sorted(counts):
        p = counts[key] / samples
        out[key] = {name: p, "stderr": (p * (1 - p) / samples) ** 0.5, "count": counts[key]}
    return out


@dataclass(frozen=True)
class TypeVector:
    """Particle content of a ring: m[i-1] particles of class i on N sites."""

    m: tuple[int, ...]
    N: int

    def __post_init__(self):
        object.__setattr__(self, "m", tuple(int(x) for x in self.m))
        if not self.m:
            raise ValueError("type vector needs at least one class")
        if any(x < 1 for x in self.m):
            raise ValueError(f"class sizes must be >= 1, got {self.m}")
        if sum(self.m) > self.N:
            raise ValueError(f"{sum(self.m)} particles do not fit on {self.N} sites")

    @property
    def n(self) -> int:
        """Number of particle classes."""
        return len(self.m)

    @property
    def M(self) -> tuple[int, ...]:
        """Partial sums m1, m1+m2, ..."""
        out, s = [], 0
        for x in self.m:
            s += x
            out.append(s)
        return tuple(out)

    @property
    def particles(self) -> int:
        return sum(self.m)

    @classmethod
    def parse(cls, text: str, N: int) -> "TypeVector":
        return cls(tuple(int(p) for p in text.split(",")), N)


@dataclass(frozen=True)
class RingWord:
    """Labelled particle configuration on a ring: sites[i] is the class at
    site i, or VACANT."""

    sites: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "sites", tuple(self.sites))
        if any(s < 0 for s in self.sites):
            raise ValueError("site labels must be VACANT (0) or positive")

    def __len__(self) -> int:
        return len(self.sites)

    def __getitem__(self, i: int) -> int:
        return self.sites[i]

    def __iter__(self):
        return iter(self.sites)

    def rotate(self, k: int) -> "RingWord":
        """Rotation: site i of the result is site i+k of self (cyclically)."""
        N = len(self.sites)
        k %= N
        return RingWord(self.sites[k:] + self.sites[:k])

    def particles(self) -> list[tuple[int, int]]:
        """Occupied sites as (position, label) pairs, by position."""
        return [(i, s) for i, s in enumerate(self.sites) if s != VACANT]

    def type_vector(self) -> TypeVector:
        labels = [s for s in self.sites if s != VACANT]
        if not labels:
            raise ValueError("empty word has no type")
        n = max(labels)
        counts = [0] * n
        for s in labels:
            counts[s - 1] += 1
        if any(c == 0 for c in counts):
            raise ValueError(f"classes 1..{n} must all be present, got counts {counts}")
        return TypeVector(tuple(counts), len(self.sites))

    def with_vacancy_class(self, n: int) -> tuple[int, ...]:
        """The word with vacancies rewritten as the honorary class n+1."""
        return tuple(s if s != VACANT else n + 1 for s in self.sites)

    @classmethod
    def from_dict(cls, N: int, at: dict[int, int]) -> "RingWord":
        sites = [VACANT] * N
        for pos, label in at.items():
            sites[pos % N] = label
        return cls(tuple(sites))


def word_string(w) -> str:
    """Compact display form of a word; vacancies print as '.'."""
    sites = tuple(w)
    if any(s > 9 for s in sites):
        return ",".join("." if s == VACANT else str(s) for s in sites)
    return "".join("." if s == VACANT else str(s) for s in sites)


def cyclic_canonical(w: RingWord) -> tuple[RingWord, int]:
    """Lexicographically smallest rotation of w and the offset achieving it.

    Particle labels order naturally; vacancies sort after every label.  On
    ties the smallest offset wins, so the result is deterministic and the
    map is idempotent.
    """
    sites = w.sites
    N = len(sites)
    key = tuple(s if s != VACANT else _VACANT_KEY for s in sites)
    best, best_off = None, 0
    for off in range(N):
        cand = key[off:] + key[:off]
        if best is None or cand < best:
            best, best_off = cand, off
    return w.rotate(best_off), best_off


# --- permutations -----------------------------------------------------------
#
# Permutations are plain tuples (pi_1, ..., pi_n) of the values 1..n.

Perm = tuple[int, ...]


def is_permutation(pi) -> bool:
    pi = tuple(pi)
    return sorted(pi) == list(range(1, len(pi) + 1))


def check_permutation(pi) -> Perm:
    pi = tuple(pi)
    if not is_permutation(pi):
        raise ValueError(f"{pi} is not a permutation of 1..{len(pi)}")
    return pi


def reverse_permutation(n: int) -> Perm:
    """n (n-1) ... 2 1."""
    return tuple(range(n, 0, -1))


def swap_values(pi, k: int) -> Perm:
    """Compose with the transposition of the values k and k+1."""
    pi = tuple(pi)
    if not 1 <= k < len(pi):
        raise ValueError(f"need 1 <= k < {len(pi)}, got {k}")
    swap = {k: k + 1, k + 1: k}
    return tuple(swap.get(v, v) for v in pi)


def inversions(pi) -> int:
    pi = tuple(pi)
    return sum(1 for i in range(len(pi)) for j in range(i + 1, len(pi)) if pi[i] > pi[j])


def parse_perm(text: str) -> Perm:
    return check_permutation(int(p) for p in text.split(","))
