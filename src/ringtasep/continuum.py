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

Beyond the exact caps, one Monte Carlo sampler of bottom words, drawn
and labelled row by row, serves both permutations and adjacencies.
"""

import itertools
import random
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from .core import Perm, _estimates, check_permutation
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
    """Distinct orderings of items in lexicographic order (next permutation)."""
    a = sorted(items)
    while True:
        yield tuple(a)
        i = len(a) - 2
        while i >= 0 and a[i] >= a[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(a) - 1
        while a[j] <= a[i]:
            j -= 1
        a[i], a[j] = a[j], a[i]
        a[i + 1 :] = reversed(a[i + 1 :])


# --- one census per rotation class --------------------------------------------

_REP_CENSUS: dict[int, tuple[dict, int]] = {}


def _rep_census(n: int) -> tuple[dict[Perm, int], int]:
    """Sweep arrangements with the top-row box pinned at slot 0.

    Returns (word_counts, reps): word_counts[pi] is the number of *linear*
    arrangements (all rotations restored) whose bottom word reads pi from
    the origin, and reps the number of representatives.
    """
    if n in _REP_CENSUS:
        return _REP_CENSUS[n]
    B = comb(n + 1, 2)
    word_counts: dict[Perm, int] = {}
    reps = 0

    def leaf(cur, positions):
        nonlocal reps
        labels, _, _ = _claim_labels(cur, positions, n)
        w = tuple(labels)
        reps += 1
        for j in range(n):  # one count per slot from the box before j to box j
            shifted = w[j:] + w[:j]
            word_counts[shifted] = word_counts.get(shifted, 0) + (positions[j] - positions[j - 1] - 1) % B + 1

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

    if sum(word_counts.values()) != B * reps:
        raise RuntimeError("census bookkeeping is inconsistent")
    _REP_CENSUS[n] = (word_counts, reps)
    return _REP_CENSUS[n]


def permutation_distribution(n: int, cap: int = 5) -> dict[Perm, Fraction]:
    """Exact probability of each bottom permutation of the continuous
    queue (uniform arrangement, uniform origin cut)."""
    if n > cap:
        raise ValueError(f"n={n} above exact cap {cap}; use sampling instead")
    word_counts, reps = _rep_census(n)
    total = reps * comb(n + 1, 2)
    if total != arrangement_count(n):
        raise RuntimeError("representative count disagrees with the closed form")
    return {pi: Fraction(c, total) for pi, c in sorted(word_counts.items())}


def _mc_word_chunk(args):
    """Bottom-word counts of `samples` queues from random.Random(seed).  Row
    r, r sorted uniforms, is labelled as drawn and kept as pos[label - 1]:
    it holds exactly the labels 1..r, which claim in list order."""
    n, samples, seed = args
    rnd = random.Random(seed).random
    counts: dict[Perm, int] = {}
    rows = [(r, range(r)) for r in range(2, n + 1)]
    for _ in range(samples):
        pos, labels = [rnd()], [1]
        for r, draws in rows:
            row = [rnd() for _ in draws]
            row.sort()
            labels, nxt, label = [0] * r, [], 0
            for p in pos:
                label += 1
                i = bisect_left(row, p)
                while i < r and labels[i]:
                    i += 1
                if i == r:
                    i = labels.index(0)
                labels[i] = label
                nxt.append(row[i])
            i = labels.index(0)  # the one unclaimed box starts label r
            labels[i] = r
            nxt.append(row[i])
            pos = nxt
        w = tuple(labels)
        counts[w] = counts.get(w, 0) + 1
    return counts


def _mc_counts(n: int, samples: int, seed: int, jobs: int) -> dict[Perm, int]:
    """Bottom-word counts merged over `jobs` chunks of the samples.  Chunk
    w runs as _mc_word_chunk((n, its samples, "{seed}:{w}")), in a process
    pool when there is more than one chunk."""
    if samples < 1:
        raise ValueError("need samples >= 1")
    jobs = max(1, jobs)
    split = [samples // jobs + (w < samples % jobs) for w in range(jobs)]
    tasks = [(n, s, f"{seed}:{w}") for w, s in enumerate(split) if s > 0]
    if len(tasks) == 1:
        results = [_mc_word_chunk(tasks[0])]
    else:
        import multiprocessing

        with multiprocessing.Pool(len(tasks)) as pool:
            results = pool.map(_mc_word_chunk, tasks)
    counts: dict[Perm, int] = {}
    for c in results:
        for key, v in c.items():
            counts[key] = counts.get(key, 0) + v
    return counts


def permutation_distribution_mc(n: int, samples: int, seed: int, jobs: int = 1) -> dict:
    """Sampled bottom-permutation frequencies for sizes beyond the exact
    cap, with naive binomial standard errors."""
    counts = _mc_counts(n, samples, seed, jobs)
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


def _adjacency_counts(word_counts: dict[Perm, int]) -> dict[tuple[int, int], int]:
    """counts[(i, j)]: weighted number of reading positions at which label
    j cyclically follows label i."""
    counts: dict[tuple[int, int], int] = {}
    for w, c in word_counts.items():
        for pair in zip(w, w[1:] + w[:1]):
            counts[pair] = counts.get(pair, 0) + c
    return counts


def adjacency_exact(n: int, cap: int = 5) -> CorrTable:
    """Exact adjacency correlations from the arrangement census.  Pairs do
    not change under rotation, and the rotations of one representative
    carry B word counts, so the word counts give B times its pairs."""
    if n < 2:
        raise ValueError("need n >= 2")
    if n > cap:
        raise ValueError(f"n={n} above exact cap {cap}; use adjacency_mc")
    word_counts, reps = _rep_census(n)
    total = reps * comb(n + 1, 2)
    entries = {pair: Fraction(c, total) for pair, c in _adjacency_counts(word_counts).items()}
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


def adjacency_mc(n: int, samples: int, seed: int, jobs: int = 1) -> dict:
    """Monte Carlo adjacency estimates with standard errors.

    Entry (i, j) counts, over the sampled bottom words, the positions at
    which j cyclically follows i: n indicators per sample, so estimates
    are unbiased for the row-normalized table and rows sum to 1 exactly.
    The samples, and so the streams "{seed}:{w}" of worker w, are those
    of permutation_distribution_mc with the same (seed, jobs).
    """
    counts = _adjacency_counts(_mc_counts(n, samples, seed, jobs))
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
    seqs = list(_multiset_perms(upper))
    weights: dict[tuple[Perm, tuple[int, ...]], int] = {}
    for cvec in _weak_compositions(U, n):
        offsets = list(itertools.accumulate(cvec[:-1], initial=0))  # first upper box of gap g
        bottoms = [o + g for g, o in enumerate(offsets)]  # slot of bottom box g
        for seq in seqs:
            rows: list[list[int]] = [[] for _ in range(n)]
            rows[n - 1] = list(bottoms)
            for g in range(n):
                base = bottoms[g] + 1
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
