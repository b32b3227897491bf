"""Exact computations for the continuous ring limit.

A continuous multiline queue is uniform over arrangements (relative
cyclic orders of its boxes), so every quantity here reduces to finite
exact enumeration: the probability of each bottom permutation, the
polynomial densities of the particle positions given the permutation,
and the two-point adjacency correlations, together with conjectured
closed forms for the latter.

One census counts the cyclic orders of the boxes, boxes of one row being
alike; the single row-1 box marks each one's origin, so there are
arrangement_count(n) / B of them.  It inserts the rows one at a time and
keeps, after row i, only the cycle of (label, o) over the row-i boxes,
read from the label-1 box, where o counts the boxes of rows < i in the
gap after the box, merging equal cycles through mlq.transfer:
- Every cyclic order of rows <= i+1 arises exactly once from a cyclic
  order of rows <= i, a vector c (c_k new boxes in the gap after row-i
  box k, sum i+1) and, for each k, a split of the gap's o_k older boxes
  into c_k + 1 runs in order: deleting row i+1 gives back the order, and
  the new boxes' places among the old ones give c and the runs.
- Row i+1 is labelled from row i alone, so its labels depend only on
  the labels of the cycle and on c, and its new o (older boxes plus
  row-i boxes per new gap) only on the o's and the runs.  So the cycle
  fixes its future, which is what transfer needs.
- At row n the cycle is the bottom word and its gap vector (the boxes
  between consecutive bottom boxes).  Rotating both restores the
  permutation counts, for an origin anywhere, and the density weights,
  for an origin at a bottom box.

Beyond the exact caps, one Monte Carlo sampler of bottom words, drawn
and labelled row by row, serves both permutations and adjacencies.
"""

import itertools
import random
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import comb, factorial

from .core import Perm, _estimates, _multiset_perms, check_permutation
from .mlq import Arrangement, _claim_labels, transfer
from .poly import MultiPoly, OperatorExpr

EXACT_CAP = 5  # the largest n of the exact census routes
MC_CHUNK = 10**6  # samples per seeded Monte Carlo stream; the chunks fix the samples, not jobs


def arrangement_count(n: int) -> int:
    """Number of arrangements: B! / (1! 2! ... n!) with B = C(n+1, 2)."""
    B = comb(n + 1, 2)
    out = factorial(B)
    for i in range(1, n + 1):
        out //= factorial(i)
    return out


def enumerate_arrangements(n: int):
    """Yield every arrangement of {1x1, 2x2, ..., nxn}; n above EXACT_CAP
    is refused (the count grows like B!)."""
    if n > EXACT_CAP:
        raise ValueError(f"n={n} above enumeration cap {EXACT_CAP}")
    content = [i for i in range(1, n + 1) for _ in range(i)]
    for order in _multiset_perms(content):
        yield Arrangement(order)


# --- one census by row insertion -----------------------------------------------


@cache
def _compositions(total: int, parts: int) -> tuple[tuple[int, ...], ...]:
    """Every tuple of `parts` non-negative ints summing to total."""
    if parts == 1:
        return ((total,),)
    return tuple((a,) + rest for a in range(total + 1) for rest in _compositions(total - a, parts - 1))


@cache
def _census(n: int) -> tuple[dict[Perm, int], dict[tuple[Perm, tuple[int, ...]], int], int]:
    """Count the cyclic orders of the boxes, inserting one row at a time.

    The state after row i maps each cycle of (label, o) over the row-i
    boxes, read from label 1, to its number of cyclic orders of rows <= i;
    o counts the boxes of rows < i in the gap after the box.  Row i + 1
    steps each cycle to one new cycle per cyclic order of rows <= i + 1
    over it, and mlq.transfer merges equal ones.  At row n the cycle is a
    bottom word and its gap vector, and rotating both by j = 0..n-1 gives
    (word_counts, weights, reps):
    - word_counts[pi]: *linear* arrangements (all rotations restored)
      whose bottom word reads pi from the origin; rotation j stands for
      the gaps[j-1] + 1 origins that read it;
    - weights[(pi, gaps)]: linear arrangements with a bottom box at the
      origin whose word and gap vector read so;
    - reps: the number of cyclic orders.
    """
    if n < 1:
        raise ValueError("need n >= 1")

    def insert(cycle):  # the cycles of row i + 1 over one of row i, i taken from the loop below
        # row-i box k at k * (i + 2), its gap's t-th new box at k * (i + 2) + t + 1;
        # label 1 claims first, from 0, so the new cycle starts at the first new box
        sources = sorted((label, k * (i + 2)) for k, (label, _) in enumerate(cycle))
        for c in _compositions(i + 1, i):
            targets = [k * (i + 2) + t + 1 for k, ck in enumerate(c) for t in range(ck)]
            labels, _, _ = _claim_labels(sources, targets, i + 1)
            for runs in itertools.product(*(_compositions(o, ck + 1) for (_, o), ck in zip(cycle, c))):
                olds = [0]  # boxes of rows <= i before the first new box, then after each
                for run in runs:
                    olds[-1] += 1 + run[0]
                    olds.extend(run[1:])
                lead = olds.pop(0)
                olds[-1] += lead
                yield tuple(zip(labels, olds))

    states = {((1, 0),): 1}
    for i in range(1, n):
        states = transfer(states, insert)

    word_counts: dict[Perm, int] = {}
    weights: dict[tuple[Perm, tuple[int, ...]], int] = {}
    for cycle, c in states.items():
        w, gaps = zip(*cycle)
        for j in range(n):
            shifted = w[j:] + w[:j]
            word_counts[shifted] = word_counts.get(shifted, 0) + (gaps[j - 1] + 1) * c
            key = (shifted, gaps[j:] + gaps[:j])
            weights[key] = weights.get(key, 0) + c
    reps = sum(states.values())
    if sum(word_counts.values()) != comb(n + 1, 2) * reps:
        raise RuntimeError("census bookkeeping is inconsistent")
    return word_counts, weights, reps


def permutation_distribution(n: int) -> dict[Perm, Fraction]:
    """Exact probability of each bottom permutation of the continuous
    queue (uniform arrangement, uniform origin cut), for n up to EXACT_CAP."""
    if n > EXACT_CAP:
        raise ValueError(f"n={n} above exact cap {EXACT_CAP}; use sampling instead")
    word_counts, _, reps = _census(n)
    total = reps * comb(n + 1, 2)
    if total != arrangement_count(n):
        raise RuntimeError("representative count disagrees with the closed form")
    return {pi: Fraction(c, total) for pi, c in sorted(word_counts.items())}


def _mc_word_chunk(args):
    """Bottom-word counts of `samples` queues from random.Random(seed).

    Each sample draws its B uniforms as one list; row r is the slice of
    its r draws, sorted, and is labelled as drawn and kept as
    pos[label - 1]: it holds exactly the labels 1..r, which claim in list
    order.  A label claims from free, the sorted row boxes not yet
    claimed: the first of them weakly right of p, free[bisect_left(free,
    p)], or free[0] past the end of the ring, which is the box the
    Ferrari-Martin scan over claimed slots finds.  So a claim pops its
    box, and the one box left starts label r.

    In the last row the claim indices, taken % len(free), are the sample's
    code: label t pops index i_t < n - t + 1, so codes and bottom words
    are in bijection, and each code is turned into its word once, by
    replaying the pops on range(n).  Codes and words are first met in the
    same order, so the counts come out in the order of first sight.
    """
    n, samples, seed = args
    rnd = random.Random(seed).random
    B = comb(n + 1, 2)
    draws_range, last = range(B), B - n
    rows = [(r * (r - 1) // 2, r * (r + 1) // 2) for r in range(2, n)]
    codes: dict[tuple[int, ...], int] = {}
    for _ in range(samples):
        draws = [rnd() for _ in draws_range]
        pos = draws[:1]  # at n = 1 row 1 is also the last row, and codes as (0,)
        for a, b in rows:
            free = draws[a:b]
            free.sort()
            nxt = []
            for p in pos:
                nxt.append(free.pop(bisect_left(free, p) % len(free)))
            nxt.append(free[0])
            pos = nxt
        free = draws[last:]
        free.sort()
        code = []
        for p in pos:
            i = bisect_left(free, p) % len(free)
            del free[i]
            code.append(i)
        code = tuple(code)
        codes[code] = codes.get(code, 0) + 1
    counts: dict[Perm, int] = {}
    for code, c in codes.items():
        free, word = list(range(n)), [n] * n  # the box left unclaimed gets label n
        for label, i in enumerate(code, 1):
            word[free.pop(i)] = label
        counts[tuple(word)] = c
    return counts


def _mc_counts(n: int, samples: int, seed: int, jobs: int) -> dict[Perm, int]:
    """Bottom-word counts merged over chunks of at most MC_CHUNK samples.
    Chunk c runs as _mc_word_chunk((n, its samples, "{seed}:{c}")), so the
    counts depend on (n, samples, seed) alone; jobs only sizes the process
    pool that runs the chunks when there is more than one of each."""
    if n < 1:
        raise ValueError("need n >= 1")
    if samples < 1:
        raise ValueError("need samples >= 1")
    starts = range(0, samples, MC_CHUNK)
    tasks = [(n, min(MC_CHUNK, samples - start), f"{seed}:{c}") for c, start in enumerate(starts)]
    workers = min(max(1, jobs), len(tasks))
    if workers == 1:
        results = map(_mc_word_chunk, tasks)
    else:
        import multiprocessing

        with multiprocessing.Pool(workers) as pool:
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
            fixed[(i, j)] = Fraction(v)
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
            "entries": {f"{i},{j}": rat_str(v) for (i, j), v in sorted(self.entries.items())},
        }


def _adjacency_counts(word_counts: dict[Perm, int]) -> dict[tuple[int, int], int]:
    """counts[(i, j)]: weighted number of reading positions at which label
    j cyclically follows label i."""
    counts: dict[tuple[int, int], int] = {}
    for w, c in word_counts.items():
        for pair in zip(w, w[1:] + w[:1]):
            counts[pair] = counts.get(pair, 0) + c
    return counts


def adjacency_exact(n: int) -> CorrTable:
    """Exact adjacency correlations from the arrangement census.  Pairs do
    not change under rotation, and the rotations of one representative
    carry B word counts, so the word counts give B times its pairs."""
    if n < 2:
        raise ValueError("need n >= 2")
    if n > EXACT_CAP:
        raise ValueError(f"n={n} above exact cap {EXACT_CAP}; use adjacency_mc")
    word_counts, _, reps = _census(n)
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


def adjacency_mc(n: int, samples: int, seed: int, jobs: int = 1) -> dict:
    """Monte Carlo adjacency estimates with standard errors.

    Entry (i, j) counts, over the sampled bottom words, the positions at
    which j cyclically follows i: n indicators per sample, so estimates
    are unbiased for the row-normalized table and rows sum to 1 exactly.
    The samples, and so the streams "{seed}:{c}" of their chunks c, are
    those of permutation_distribution_mc with the same seed, whatever jobs.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    counts = _adjacency_counts(_mc_counts(n, samples, seed, jobs))
    return {"n": n, "samples": samples, "entries": _estimates(counts, samples, "estimate")}


def syt_three_column_count(n: int, i: int) -> int:
    """Standard tableaux whose columns have lengths (n-2, n-2, i):
    (2n-4+i)! (n-i)(n-i-1) / (i! n! (n-1)!)."""
    if not (0 <= i <= n - 2):
        raise ValueError("need 0 <= i <= n-2")
    count, remainder = divmod(
        factorial(2 * n - 4 + i) * (n - i) * (n - i - 1), factorial(i) * factorial(n) * factorial(n - 1)
    )
    if remainder:
        raise RuntimeError("tableau count is not an integer")
    return count


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

@cache
def density_gap_forms(n: int) -> dict[Perm, MultiPoly]:
    """Position densities g_pi written in the cyclic gaps L_0..L_{n-1}, in
    divided powers, with integer coefficients.

    Conditioning on the bottom boxes at the q's, the upper boxes land in
    the n cyclic gaps; a gap of length L holding k boxes in a fixed
    relative order contributes L^k / k!, the divided power L^[k].  The
    census weighs each (pi, gap counts c) by the interleavings that
    realize it, and normalizing by the box-count multinomial gives
    G_pi = n! * prod_{i<n} i! * sum_c w(pi, c) * L^[c],
    homogeneous of degree B - n, with sum_pi integral(g_pi) = 1.  So the
    coefficient at c is the integer n! * prod_{i<n} i! * w(pi, c).
    Variable g is L_g = q_{g+2} - q_{g+1}, and L_{n-1} = 1 - q_n + q1
    (see poly); `_in_q` expands a form in q.
    """
    if n > EXACT_CAP:
        raise ValueError(f"n={n} above exact cap {EXACT_CAP}")
    _, weights, _ = _census(n)
    prefactor = 1
    for i in range(1, n + 1):
        prefactor *= factorial(i)
    terms: dict[Perm, dict] = {}
    for (w, cvec), mult in weights.items():
        terms.setdefault(w, {})[cvec] = prefactor * mult
    return {w: MultiPoly._of(n, t) for w, t in sorted(terms.items())}


def _in_q(forms: dict) -> dict:
    """Expand divided-power gap forms in q1..qn, for output; each gap
    monomial L^[c] is expanded once for all of the forms.  This is where
    the 1 / c_g! of the basis is divided out, as L_g^[k] = L_g^[k-1] L_g / k."""
    n = next(iter(forms.values())).nvars
    q = MultiPoly.variable
    gaps = [q(n, g + 1) - q(n, g) for g in range(n - 1)] + [MultiPoly.one(n) - q(n, n - 1) + q(n, 0)]
    powers = [[MultiPoly.one(n)] for _ in gaps]
    monomials: dict[tuple[int, ...], MultiPoly] = {}
    out = {}
    for key, form in forms.items():
        acc: dict = {}
        for cvec, coef in form.terms.items():
            if cvec not in monomials:
                mono = MultiPoly.constant(n, Fraction(1))  # so every q coefficient is a Fraction
                for g, c in enumerate(cvec):
                    while len(powers[g]) <= c:
                        powers[g].append(powers[g][-1] * gaps[g] * Fraction(1, len(powers[g])))
                    mono = mono * powers[g][c]
                monomials[cvec] = mono
            for e, v in monomials[cvec].terms.items():
                acc[e] = acc.get(e, 0) + coef * v
        out[key] = MultiPoly(n, acc)
    return out


def density_poly(pi) -> MultiPoly:
    """The density g_pi(q1..qn) of one permutation, expanded alone."""
    pi = check_permutation(pi)
    return _in_q({pi: density_gap_forms(len(pi))[pi]})[pi]


def check_operator_identity(target, op: OperatorExpr, base) -> dict:
    """Apply a differential operator to the density of `base` and compare
    exactly with the density of `target`, both in gap form."""
    target = check_permutation(target)
    base = check_permutation(base)
    if len(target) != len(base):
        raise ValueError("target and base have different lengths")
    forms = density_gap_forms(len(base))
    image = op.apply_gaps(forms[base])
    return {
        "target": target,
        "base": base,
        "match": image == forms[target],
        "difference_terms": len((image - forms[target]).terms),
    }
