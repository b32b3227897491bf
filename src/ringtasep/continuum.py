"""Exact computations for the continuous ring limit.

A continuous multiline queue is uniform over arrangements (relative
cyclic orders of its boxes), so every quantity here reduces to finite
exact enumeration: the probability of each bottom permutation, the
polynomial densities of the particle positions given the permutation,
and the two-point adjacency correlations, together with conjectured
closed forms for the latter.

Enumeration is done once per rotation class: the single top-row box is
pinned to the origin slot, which cuts the sweep by a factor of the total
box count.  Rotation multiplicities are restored exactly where the
reading origin matters.
"""

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from .core import Perm, check_permutation
from .mlq import Arrangement, _bottom_labels_fast, _claim_labels
from .poly import MultiPoly, OperatorExpr


def arrangement_count(n: int) -> int:
    """Number of arrangements: B! / (1! 2! ... n!) with B = C(n+1, 2)."""
    B = comb(n + 1, 2)
    out = factorial(B)
    for i in range(1, n + 1):
        out //= factorial(i)
    return out


def enumerate_arrangements(n: int, cap: int = 5):
    """Yield every arrangement of {1x1, 2x2, ..., nxn}; n above the cap
    is refused (the count grows like B!)."""
    if n > cap:
        raise ValueError(f"n={n} above enumeration cap {cap}")
    content = [i for i in range(1, n + 1) for _ in range(i)]
    for order in _multiset_perms(tuple(content)):
        yield Arrangement(order)


def _multiset_perms(items: tuple[int, ...]):
    counts: dict[int, int] = {}
    for x in items:
        counts[x] = counts.get(x, 0) + 1
    symbols = sorted(counts)
    total = len(items)

    def rec(acc):
        if len(acc) == total:
            yield tuple(acc)
            return
        for s in symbols:
            if counts[s]:
                counts[s] -= 1
                acc.append(s)
                yield from rec(acc)
                acc.pop()
                counts[s] += 1

    yield from rec([])


# --- one census per rotation class --------------------------------------------

_REP_CENSUS: dict[int, tuple[dict, dict, int]] = {}


def _rep_census(n: int) -> tuple[dict[Perm, int], dict[tuple[int, int], int], int]:
    """Sweep arrangements with the top-row box pinned at slot 0.

    Returns (word_counts, adjacency_counts, reps): word_counts[pi] is the
    number of *linear* arrangements (all rotations restored) whose bottom
    word reads pi from the origin; adjacency_counts[(i, j)] counts
    representatives in which label j cyclically follows label i.
    """
    if n in _REP_CENSUS:
        return _REP_CENSUS[n]
    B = comb(n + 1, 2)
    word_counts: dict[Perm, int] = {}
    adj_counts: dict[tuple[int, int], int] = {}
    reps = 0

    def leaf(cur, positions):
        nonlocal reps
        labels, _, _ = _claim_labels(cur, positions, n)
        w = tuple(labels)
        reps += 1
        for a in range(n):
            pair = (w[a], w[(a + 1) % n])
            adj_counts[pair] = adj_counts.get(pair, 0) + 1
        for j in range(n):
            if j == 0:
                gap = (B - positions[-1] - 1) + positions[0]
            else:
                gap = positions[j] - positions[j - 1] - 1
            shifted = w[j:] + w[:j]
            word_counts[shifted] = word_counts.get(shifted, 0) + 1 + gap

    if n == 1:
        leaf([], (0,))
    else:

        def rec(d, cur, remaining):
            size = d + 1
            if d == n - 1:
                leaf(cur, remaining)
                return
            for combo in itertools.combinations(remaining, size):
                labels, _, _ = _claim_labels(cur, combo, d + 1)
                chosen = set(combo)
                rec(d + 1, sorted(zip(labels, combo)), tuple(x for x in remaining if x not in chosen))

        rec(1, [(1, 0)], tuple(range(1, B)))

    if sum(adj_counts.values()) != n * reps or sum(word_counts.values()) != B * reps:
        raise RuntimeError("census bookkeeping is inconsistent")
    _REP_CENSUS[n] = (word_counts, adj_counts, reps)
    return _REP_CENSUS[n]


def permutation_distribution(n: int, cap: int = 5) -> dict[Perm, Fraction]:
    """Exact probability of each bottom permutation of the continuous
    queue (uniform arrangement, uniform origin cut)."""
    if n > cap:
        raise ValueError(f"n={n} above exact cap {cap}; use sampling instead")
    word_counts, _, reps = _rep_census(n)
    total = reps * comb(n + 1, 2)
    if total != arrangement_count(n):
        raise RuntimeError("representative count disagrees with the closed form")
    return {pi: Fraction(c, total) for pi, c in sorted(word_counts.items())}


def _mc_word_chunk(args):
    n, samples, seed = args
    rng = random.Random(seed)
    rnd = rng.random
    counts: dict[Perm, int] = {}
    for _ in range(samples):
        rows = [sorted(rnd() for _ in range(i)) for i in range(1, n + 1)]
        w = tuple(_bottom_labels_fast(rows, n))
        counts[w] = counts.get(w, 0) + 1
    return counts


def _mc_counts(chunk, n: int, samples: int, seed: int, jobs: int) -> dict:
    """Counts merged over `jobs` chunks of the samples.  Chunk w runs as
    chunk((n, its samples, "{seed}:{w}")), in a process pool when there
    is more than one chunk."""
    if samples < 1:
        raise ValueError("need samples >= 1")
    jobs = max(1, jobs)
    split = [samples // jobs] * jobs
    for w in range(samples % jobs):
        split[w] += 1
    tasks = [(n, s, f"{seed}:{w}") for w, s in enumerate(split) if s > 0]
    if len(tasks) == 1:
        results = [chunk(tasks[0])]
    else:
        import multiprocessing

        with multiprocessing.Pool(len(tasks)) as pool:
            results = pool.map(chunk, tasks)
    counts: dict = {}
    for c in results:
        for key, v in c.items():
            counts[key] = counts.get(key, 0) + v
    return counts


def _estimates(counts: dict, samples: int, name: str) -> dict:
    """Frequencies under `name`, with naive binomial standard errors."""
    out = {}
    for key in sorted(counts):
        p = counts[key] / samples
        out[key] = {name: p, "stderr": (p * (1 - p) / samples) ** 0.5, "count": counts[key]}
    return out


def permutation_distribution_mc(n: int, samples: int, seed: int, jobs: int = 1) -> dict:
    """Sampled bottom-permutation frequencies for sizes beyond the exact
    cap, with naive binomial standard errors."""
    counts = _mc_counts(_mc_word_chunk, n, samples, seed, jobs)
    return {"n": n, "samples": samples, "words": _estimates(counts, samples, "freq")}


def reverse_probability_formula(n: int) -> Fraction:
    """Closed form for the probability of the reverse permutation:
    1 / prod_{k<n} C(2k+1, k+1)."""
    if n < 1:
        raise ValueError("need n >= 1")
    denom = 1
    for k in range(1, n):
        denom *= comb(2 * k + 1, k + 1)
    return Fraction(1, denom)


# --- adjacency correlations ----------------------------------------------------


@dataclass(frozen=True)
class CorrTable:
    """Row-normalized adjacency table: entry (i, j) is n times the
    probability that label j immediately follows label i at a fixed
    reading position, so every row sums to 1."""

    n: int
    entries: dict

    def __post_init__(self):
        fixed = {}
        for (i, j), v in self.entries.items():
            if i == j:
                raise ValueError("diagonal entries are identically zero; omit them")
            fixed[(i, j)] = Fraction(v) if not isinstance(v, float) else v
        object.__setattr__(self, "entries", fixed)

    def value(self, i: int, j: int):
        if i == j:
            return Fraction(0)
        return self.entries.get((i, j), Fraction(0))

    def row_sums(self):
        out = {}
        for i in range(1, self.n + 1):
            out[i] = sum(self.value(i, j) for j in range(1, self.n + 1) if j != i)
        return out

    def to_json_dict(self) -> dict:
        from .core import rat_str

        return {
            "n": self.n,
            "entries": {
                f"{i},{j}": rat_str(v) if isinstance(v, Fraction) else v
                for (i, j), v in sorted(self.entries.items())
            },
        }


def adjacency_exact(n: int, cap: int = 5) -> CorrTable:
    """Exact adjacency correlations from the arrangement census."""
    if n < 2:
        raise ValueError("need n >= 2")
    if n > cap:
        raise ValueError(f"n={n} above exact cap {cap}; use adjacency_mc")
    _, adj_counts, reps = _rep_census(n)
    entries = {pair: Fraction(c, reps) for pair, c in adj_counts.items()}
    table = CorrTable(n, entries)
    sums = table.row_sums()
    if any(s != 1 for s in sums.values()):
        raise RuntimeError(f"adjacency rows do not sum to 1: {sums}")
    return table


def adjacency_conjecture(i: int, j: int, n: int) -> Fraction:
    """Conjectured closed form for the adjacency table entry (i, j)."""
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError("labels out of range")
    if i == j:
        raise ValueError("diagonal entries are identically zero")
    if i + 1 < j:
        return Fraction(n, comb(n + j, 2))
    if i + 1 == j:
        return Fraction(n, comb(n + j, 2)) + Fraction(n * i, comb(n + i, 2))
    if i < n:  # j < i < n
        return Fraction(n, comb(n + j, 2)) - Fraction(n, comb(n + i, 2))
    return (
        Fraction(n * (j + 1), comb(n + j, 2))
        - Fraction(n * (j - 1), comb(n + j - 1, 2))
        - Fraction(n, comb(2 * n, 2))
    )


def conjecture_table(n: int) -> CorrTable:
    return CorrTable(
        n,
        {
            (i, j): adjacency_conjecture(i, j, n)
            for i in range(1, n + 1)
            for j in range(1, n + 1)
            if i != j
        },
    )


def _mc_adjacency_chunk(args):
    n, samples, seed = args
    rng = random.Random(seed)
    rnd = rng.random
    counts: dict[tuple[int, int], int] = {}
    for _ in range(samples):
        # box positions are iid uniform; only their relative order matters
        rows = [sorted(rnd() for _ in range(i)) for i in range(1, n + 1)]
        w = _bottom_labels_fast(rows, n)
        for a in range(n):
            pair = (w[a], w[(a + 1) % n])
            counts[pair] = counts.get(pair, 0) + 1
    return counts


def adjacency_mc(n: int, samples: int, seed: int, jobs: int = 1) -> dict:
    """Monte Carlo adjacency estimates with standard errors.

    Each sample contributes indicator counts, so estimates are unbiased
    for the row-normalized table and rows sum to 1 exactly.  Reproducible
    for fixed (seed, jobs): worker w uses the stream seeded (seed, w).
    """
    counts = _mc_counts(_mc_adjacency_chunk, n, samples, seed, jobs)
    return {"n": n, "samples": samples, "entries": _estimates(counts, samples, "estimate")}


def syt_three_column_count(n: int, i: int) -> int:
    """Standard tableaux whose columns have lengths (n-2, n-2, i):
    (2n-4+i)! (n-i)(n-i-1) / (i! n! (n-1)!)."""
    if not (0 <= i <= n - 2):
        raise ValueError("need 0 <= i <= n-2")
    val = Fraction(factorial(2 * n - 4 + i) * (n - i) * (n - i - 1))
    val /= factorial(i) * factorial(n) * factorial(n - 1)
    if val.denominator != 1:
        raise RuntimeError("tableau count is not an integer")
    return int(val)


def top_pair_adjacency_syt(n: int) -> Fraction:
    """The (n, n-1) adjacency entry via the standard-tableau sum.

    Rotation contributes a factor 3n-3; the sum over tableau counts is
    divided by the multinomial of the three relevant row sizes.  The
    result must simplify to 3 / ((2n-1)(2n-3)) exactly.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    total = sum(syt_three_column_count(n, i) for i in range(n - 1))
    multinomial = factorial(3 * n - 3) // (factorial(n) * factorial(n - 1) * factorial(n - 2))
    val = Fraction((3 * n - 3) * total, multinomial)
    closed = Fraction(3, (2 * n - 1) * (2 * n - 3))
    if val != closed:
        raise RuntimeError(f"tableau sum {val} does not simplify to {closed}")
    return val


# --- densities ------------------------------------------------------------------

_DENSITY: dict[int, dict[Perm, MultiPoly]] = {}


def density_polys(n: int, allow_slow: bool = False) -> dict[Perm, MultiPoly]:
    """Exact position densities g_pi(q1..qn) on 0 < q1 < ... < qn < 1.

    Conditioning on the bottom boxes at the q's, the upper boxes land in
    the n cyclic gaps; a gap of length L holding k boxes in a fixed
    relative order contributes L^k / k!.  Summing over all interleavings
    and normalizing by the box-count multinomial makes each g_pi a
    polynomial, with sum_pi integral(g_pi) = 1.

    n = 5 enumerates ~12.6M interleavings and is gated behind allow_slow.
    """
    if n in _DENSITY:
        return _DENSITY[n]
    if n > 5 or (n == 5 and not allow_slow):
        raise ValueError("n above density cap (n = 5 requires allow_slow=True)")
    U = comb(n, 2)
    upper = tuple(i for i in range(1, n) for _ in range(i))
    seqs = list(_multiset_perms(upper)) if upper else [()]
    weights: dict[tuple[Perm, tuple[int, ...]], int] = {}
    for cvec in _weak_compositions(U, n):
        offsets = [0]
        for c in cvec[:-1]:
            offsets.append(offsets[-1] + c)
        bottoms = [0]
        for g in range(n - 1):
            bottoms.append(bottoms[-1] + cvec[g] + 1)
        bottoms_t = tuple(bottoms)
        for seq in seqs:
            rows: list[list[int]] = [[] for _ in range(n)]
            rows[n - 1] = list(bottoms_t)
            for g in range(n):
                base = bottoms_t[g] + 1
                for k in range(cvec[g]):
                    rows[seq[offsets[g] + k] - 1].append(base + k)
            w = tuple(_bottom_labels_fast(rows, n))
            key = (w, cvec)
            weights[key] = weights.get(key, 0) + 1

    gaps = [MultiPoly.variable(n, g + 1) - MultiPoly.variable(n, g) for g in range(n - 1)]
    gaps.append(MultiPoly.one(n) - MultiPoly.variable(n, n - 1) + MultiPoly.variable(n, 0))
    prefactor = factorial(n)
    for i in range(1, n):
        prefactor *= factorial(i)
    poly_cache: dict[tuple[int, ...], MultiPoly] = {}

    def gap_poly(cvec) -> MultiPoly:
        if cvec not in poly_cache:
            p = MultiPoly.one(n)
            denom = 1
            for g, c in enumerate(cvec):
                p = p * gaps[g] ** c
                denom *= factorial(c)
            poly_cache[cvec] = p * Fraction(1, denom)
        return poly_cache[cvec]

    out: dict[Perm, MultiPoly] = {}
    for (w, cvec), mult in weights.items():
        term = gap_poly(cvec) * mult
        out[w] = out.get(w, MultiPoly.zero(n)) + term
    out = {w: p * prefactor for w, p in sorted(out.items())}
    _DENSITY[n] = out
    return out


def _weak_compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _weak_compositions(total - first, parts - 1):
            yield (first,) + rest


def density_poly(pi, allow_slow: bool = False) -> MultiPoly:
    pi = check_permutation(pi)
    return density_polys(len(pi), allow_slow)[pi]


def check_operator_identity(target, op: OperatorExpr, base, allow_slow: bool = False) -> dict:
    """Apply a differential operator to the density of `base` and compare
    exactly with the density of `target`."""
    target = check_permutation(target)
    base = check_permutation(base)
    g_base = density_poly(base, allow_slow)
    g_target = density_poly(target, allow_slow)
    image = op.apply(g_base)
    return {
        "target": target,
        "base": base,
        "match": image == g_target,
        "difference_terms": len((image - g_target).terms),
    }
