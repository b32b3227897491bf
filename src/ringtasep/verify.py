"""Verification suite: one registered check per identity, theorem, or
conjecture, with machine-readable reports.

A check takes keyword parameters, whose registry defaults are written
only in `CHECKS`, and returns `(witnesses, detail)`: its counterexamples
(empty on a match, `None` if it did not run) and a one-line description.
Severity lives only in `CHECKS`, and `run_suite` alone turns witnesses
into a status.  A theorem-severity mismatch is an error (exit code 2 in
the CLI).  A conjecture-severity mismatch never fails the run: its
witness is a finding, not a bug.  Reports can be cached; cached entries
are audited by recomputation on a seeded 5% sample.
"""

import fnmatch
import functools
import hashlib
import inspect
import itertools
import json
import math
import os
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType

from .core import (
    RingWord,
    TypeVector,
    binomial,
    inversions,
    rat_str,
    reverse_permutation,
    swap_values,
)
from .count import (
    PathFamilySpec,
    _mlq_rows,
    bottom_position_census,
    bottom_word_counts,
    count_bottom_reverse,
    count_bottom_reverse_multi_swap,
    count_bottom_reverse_swap,
    lgv_brute,
    lgv_count,
    reverse_path_spec,
    total_mlq_count,
)
from .continuum import (
    adjacency_conjecture,
    adjacency_exact,
    adjacency_mc,
    check_operator_identity,
    density_gap_forms,
    permutation_distribution,
    reverse_probability_formula,
    syt_three_column_count,
    top_pair_adjacency_syt,
)
from . import markov
from .markov import _tasep_solve, k_tasep_stationary, push_through_last_row, tasep_stationary
from .mlq import Arrangement, DiscreteMLQ, _claim_rows, bottom_word, label_arrangement, label_mlq, last_row_step
from .poly import (
    MultiPoly,
    OperatorExpr,
    gap_laplacian,
    gap_leading_part,
    gap_vandermonde,
    integrate_gap_simplex,
    integrate_interval,
)
from .rs import LinkingPattern, _tables, apply_generator, rs_stationary
from .tableaux import (
    conjugate_partition,
    descending_prefix_probability,
    descending_start_count,
    hook_content_row_addition_check,
    interlacing_pattern_count,
    mlq_to_ssyt,
    ssyt_count_brute,
    ssyt_count_hook_content,
    ssyt_count_jacobi_trudi,
    ssyt_to_mlq,
    syt_count,
)

THEOREM = "theorem"
CONJECTURE = "conjecture"

PROVED_MATCH = "proved-match"
CONJECTURE_MATCH = "conjecture-match"
MISMATCH = "mismatch"
SKIPPED = "skipped"


@dataclass
class VerificationReport:
    check_id: str
    severity: str
    status: str
    params: dict = field(default_factory=dict)
    witnesses: list = field(default_factory=list)
    detail: str = ""
    runtime: float = 0.0
    cached: bool = False

    def to_json_dict(self) -> dict:
        return {
            "check": self.check_id,
            "severity": self.severity,
            "status": self.status,
            "params": self.params,
            "witnesses": self.witnesses,
            "detail": self.detail,
            "runtime": round(self.runtime, 3),
            "cached": self.cached,
        }


# --- published adjacency table for n = 6 --------------------------------------

TABLE_N6 = {
    (1, 2): "1/2", (1, 3): "1/6", (1, 4): "2/15", (1, 5): "6/55", (1, 6): "1/11",
    (2, 1): "1/14", (2, 3): "25/42", (2, 4): "2/15", (2, 5): "6/55", (2, 6): "1/11",
    (3, 1): "5/42", (3, 2): "1/21", (3, 4): "19/30", (3, 5): "6/55", (3, 6): "1/11",
    (4, 1): "16/105", (4, 2): "17/210", (4, 3): "1/30", (4, 5): "106/165", (4, 6): "1/11",
    (5, 1): "68/385", (5, 2): "81/770", (5, 3): "19/330", (5, 4): "4/165", (5, 6): "7/11",
    (6, 1): "37/77", (6, 2): "41/154", (6, 3): "34/231", (6, 4): "5/66", (6, 5): "1/33",
}


# --- shared base solves --------------------------------------------------------


@functools.cache
def _tasep(t: TypeVector):
    """The TASEP's stationary distribution, solved on the rotation quotient
    once per process and shared read-only by every check that needs it.
    `tasep_stationary` answers from the queue census, so the checks solve
    the chain instead: the `fm-*` checks then compare two independent
    routes, and `k-tasep-invariance` compares the solve with the census
    certified on each k-subset chain."""
    return MappingProxyType(_tasep_solve(t))


@functools.cache
def _rs(n: int, k: int):
    """rs_stationary(n, k), solved once per process and shared read-only."""
    return MappingProxyType(rs_stationary(n, k))


# --- check implementations -----------------------------------------------------


def _check_ferrari_martin(*, m, max_N):
    bad = []
    for N in range(sum(m), max_N + 1):
        t = TypeVector(m, N)
        dist = _tasep(t)
        counts = bottom_word_counts(t)
        Z = total_mlq_count(t)
        for w, p in dist.items():
            if p != Fraction(counts.get(w, 0), Z):
                bad.append({"m": list(m), "N": N, "word": list(w)})
    return bad[:5], "stationary == queue count / total, exactly"


def _census_mismatches(swaps, ns, max_N, formula):
    """(n, N, b, value) wherever value = formula(b, N) is not the number of
    queues on N sites whose bottom row holds the reverse permutation of n,
    with the value swaps applied in order, at the positions b."""
    for n in ns:
        pi = functools.reduce(swap_values, swaps, reverse_permutation(n))
        for N in range(n, max_N + 1):
            census = bottom_position_census(n, N)
            for b in itertools.combinations(range(N), n):
                value = formula(b, N)
                if value != census.get((pi, b), 0):
                    yield n, N, b, value


def _check_reverse_count(*, max_n, max_N):
    mismatches = _census_mismatches((), range(2, max_n + 1), max_N, lambda b, N: count_bottom_reverse(b))
    bad = [{"n": n, "N": N, "b": list(b)} for n, N, b, _ in mismatches]
    return bad[:5], "determinant/product formula == brute count"


def _check_reverse_det_vs_product(*, max_n, max_N):
    # count_bottom_reverse raises RuntimeError when its two routes disagree;
    # each b is evaluated once and reported on the smallest ring holding it
    bad = []
    for n in range(2, max_n + 1):
        for b in itertools.combinations(range(max_N), n):
            try:
                count_bottom_reverse(b)
            except RuntimeError as e:
                bad.append({"n": n, "N": b[-1] + 1, "b": list(b), "error": str(e)})
    return bad[:5], "determinant route equals product route on the full sweep"


def _check_swap_count(*, k, max_n, max_N):
    formula = functools.partial(count_bottom_reverse_swap, k)
    mismatches = _census_mismatches((k,), range(k + 1, max_n + 1), max_N, formula)
    bad = [{"n": n, "N": N, "b": list(b)} for n, N, b, _ in mismatches]
    return bad[:5], f"adjacent-swap count formula, k={k}"


def _check_multi_swap(*, kvec, n, max_N):
    sign = (-1) ** len(kvec)
    mismatches = _census_mismatches(kvec, (n,), max_N, lambda b, N: sign * count_bottom_reverse_multi_swap(kvec, b, N))
    bad = [{"N": N, "b": list(b), "formula": sign * value} for _, N, b, value in mismatches]
    return bad[:5], f"inclusion-exclusion count for swaps {list(kvec)} (sign (-1)^r restored)"


def _check_lgv():
    bad = []
    # reverse-count families
    for n in range(2, 4):
        for b in itertools.combinations(range(6), n):
            spec = reverse_path_spec(b)
            det, brute = lgv_count(spec), lgv_brute(spec)
            if det != brute or det != count_bottom_reverse(b):
                bad.append({"b": list(b), "det": det, "brute": brute})
    # a single path and a blocked family
    single = PathFamilySpec(((0, 0),), ((1, 2),))
    if lgv_count(single) != 3 or lgv_brute(single) != 3:
        bad.append({"spec": "single"})
    blocked = PathFamilySpec(((0, 0), (0, 1)), ((2, 0), (2, 1)))
    if lgv_brute(blocked) != lgv_count(blocked):
        bad.append({"spec": "blocked"})
    return bad[:5], "path determinant equals disjoint-family enumeration"


def _check_reverse_probability(*, max_n):
    bad = []
    for n in range(2, max_n + 1):
        dist = permutation_distribution(n)
        if dist[reverse_permutation(n)] != reverse_probability_formula(n):
            bad.append({"n": n})
        if sum(dist.values()) != 1:
            bad.append({"n": n, "total": str(sum(dist.values()))})
    return bad, "reverse-permutation probability closed form"


def _check_interlacing(*, max_n):
    bad = []
    for n in range(1, max_n + 1):
        rep = interlacing_pattern_count(n)
        if not rep["match"]:
            bad.append(rep)
    r3 = interlacing_pattern_count(3)
    if r3["brute"] != 2:
        bad.append(r3)
    return bad, "linear extensions vs corrected closed form; n=3 gives 2"


def _check_reverse_density(*, min_n=2, max_n):
    bad = []
    for n in range(min_n, max_n + 1):
        if density_gap_forms(n)[reverse_permutation(n)] != gap_vandermonde(n) * math.factorial(n):
            bad.append({"n": n})
    return bad, "reverse-permutation density is n! times the Vandermonde"


def _printed_operator_identities():
    I4 = OperatorExpr.identity(4)

    def D(orders, coeff=1):
        return OperatorExpr.partial(4, orders, coeff)

    I3 = OperatorExpr.identity(3)
    return {
        ((4, 3, 1, 2), (4, 3, 2, 1)): D({3: 1}) - I4,
        ((4, 2, 3, 1), (4, 3, 2, 1)): D({2: 1, 3: 1}, Fraction(1, 2)) - I4,
        ((3, 4, 2, 1), (4, 3, 2, 1)): D({1: 1, 2: 1, 3: 1}, Fraction(1, 6)) - I4,
        ((1, 3, 2), (3, 2, 1)): I3 + OperatorExpr.partial(3, {0: 1}) + OperatorExpr.partial(3, {0: 2}, Fraction(1, 2)),
        ((1, 4, 3, 2), (4, 3, 2, 1)): I4.scale(-1) - D({0: 1}) - D({0: 2}, Fraction(1, 2)) - D({0: 3}, Fraction(1, 6)),
        ((4, 1, 3, 2), (4, 3, 2, 1)): I4 - D({2: 1}) - D({3: 1}) + D({2: 1, 3: 1}, Fraction(1, 2)),
        ((4, 2, 1, 3), (4, 3, 2, 1)): I4 - D({3: 1}) + D({3: 2}, Fraction(1, 2)),
        ((3, 4, 1, 2), (4, 3, 2, 1)): I4
        - D({1: 1, 2: 1, 3: 1}, Fraction(1, 6))
        - D({3: 1})
        + D({1: 1, 2: 1, 3: 2}, Fraction(1, 6)),
    }


def _check_operator_identities():
    bad = []
    for (target, base), op in _printed_operator_identities().items():
        if not check_operator_identity(target, op, base)["match"]:
            bad.append({"target": list(target), "base": list(base)})
    return bad, "all printed derivative identities hold exactly"


def _swap_operator(n: int, k: int) -> OperatorExpr:
    """(1/k!) d^k/dq_{n-k+1}..dq_n - 1."""
    orders = {n - 1 - i: 1 for i in range(k)}
    return OperatorExpr.partial(n, orders, Fraction(1, math.factorial(k))) - OperatorExpr.identity(n)


def _check_operator_family(*, n):
    w0 = reverse_permutation(n)
    bad = []
    for k in range(1, n):
        target = swap_values(w0, k)
        if not check_operator_identity(target, _swap_operator(n, k), w0)["match"]:
            bad.append({"k": k})
    # chained swaps: the admissible two-step family for n = 4
    if n == 4:
        base = swap_values(w0, 3)
        target = swap_values(base, 1)
        if not check_operator_identity(target, _swap_operator(4, 1), base)["match"]:
            bad.append({"kvec": [3, 1]})
    return bad, "swap densities are derivative images of the reverse density"


def _check_laplace(*, n, expected_harmonic=None, enable_slow=False):
    if n >= 5 and not enable_slow:
        return None, "long-running; pass enable_slow to run"
    g = density_gap_forms(n)
    classes: dict = {}  # rotation class (keyed by its least rotation) -> members
    for w in g:
        classes.setdefault(min(w[k:] + w[:k] for k in range(len(w))), []).append(w)
    harmonic = []
    for rep, members in sorted(classes.items()):
        flags = {gap_laplacian(g[w]).is_zero() for w in members}
        if len(flags) != 1:
            return [{"class": list(rep)}], "harmonicity not constant on a rotation class"
        if flags.pop():
            harmonic.append(rep)
    expected = expected_harmonic if expected_harmonic is not None else len(classes)
    detail = f"{len(harmonic)} of {len(classes)} rotation classes harmonic (expected {expected})"
    if len(harmonic) == expected:
        return [], detail
    detail += (
        "; the densities themselves pass every independent validation"
        " (integrals vs census, proven swap identities, Monte Carlo moments)"
    )
    return [{"harmonic": len(harmonic), "classes": len(classes)}], detail


def _check_leading_part(*, n):
    g = density_gap_forms(n)
    w0 = reverse_permutation(n)
    bad = []
    for u, p in g.items():
        sign = 1 if (inversions(w0) - inversions(u)) % 2 == 0 else -1
        if gap_leading_part(p) != g[w0] * sign:
            bad.append({"u": list(u)})
    return bad, "maximal-degree part of each density is +-(reverse density)"


def _check_density_consistency(*, min_n=1, max_n):
    bad = []
    for n in range(min_n, max_n + 1):
        g = density_gap_forms(n)
        dist = permutation_distribution(n)
        total = Fraction(0)
        for w, p in g.items():
            v = integrate_gap_simplex(p)
            total += v
            if v != dist[w]:
                bad.append({"n": n, "w": list(w)})
        if total != 1:
            bad.append({"n": n, "total": str(total)})
    return bad[:5], "densities integrate to the permutation probabilities"


def _check_prop43(*, max_exact_n, max_formula_n):
    bad = []
    for n in range(3, max_exact_n + 1):
        table = adjacency_exact(n)
        if table.value(2, 1) != Fraction(4, (n + 1) * (n + 2)):
            bad.append({"n": n, "entry": "2,1"})
        if table.value(1, 2) != Fraction(4, n + 2):
            bad.append({"n": n, "entry": "1,2"})
        if table.value(n, n - 1) != Fraction(3, (2 * n - 1) * (2 * n - 3)):
            bad.append({"n": n, "entry": "n,n-1"})
    for n in range(3, max_formula_n + 1):
        if top_pair_adjacency_syt(n) != Fraction(3, (2 * n - 1) * (2 * n - 3)):
            bad.append({"n": n, "entry": "syt-sum"})
        # the last-row integral: int_0^1 2n (1-y)^2 y^(n-1) dy
        y = MultiPoly.variable(1, 0)
        integrand = (MultiPoly.one(1) - y) ** 2 * y ** (n - 1) * (2 * n)
        if integrate_interval(integrand, 0, 1) != Fraction(4, (n + 1) * (n + 2)):
            bad.append({"n": n, "entry": "integral"})
    # brute tableau counts behind the sum, small n
    for n in range(3, 6):
        for i in range(n - 1):
            lam = conjugate_partition(tuple(x for x in (n - 2, n - 2, i) if x))
            if syt_three_column_count(n, i) != syt_count(lam):
                bad.append({"n": n, "i": i, "entry": "syt-brute"})
    return bad[:5], "the three proved adjacency entries, all routes"


def _check_adjacency_conjecture(*, n):
    table = adjacency_exact(n)
    bad = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                continue
            if table.value(i, j) != adjacency_conjecture(i, j, n):
                bad.append({"i": i, "j": j, "exact": rat_str(table.value(i, j))})
    return bad[:5], f"conjectured adjacency table vs exact census, n={n}"


def _check_table6():
    bad = []
    for (i, j), val in TABLE_N6.items():
        if adjacency_conjecture(i, j, 6) != Fraction(val):
            bad.append({"i": i, "j": j, "formula": rat_str(adjacency_conjecture(i, j, 6)), "table": val})
    return bad, "closed form reproduces every published n=6 table entry"


def _check_adjacency_mc(*, n, samples, seed, jobs=os.cpu_count() or 1):
    res = adjacency_mc(n, samples, seed, jobs=jobs)
    bad = []
    for (i, j), e in res["entries"].items():
        truth = float(adjacency_conjecture(i, j, n))
        if abs(e["estimate"] - truth) > 3 * e["stderr"]:
            bad.append({"i": i, "j": j, "estimate": e["estimate"], "truth": truth, "stderr": e["stderr"]})
    return bad, f"{samples} samples, every entry within 3 standard errors of the table"


def _check_initial_prefix(*, max_N, max_len):
    bad = []
    for N in range(2, max_N + 1):
        dist = _tasep(TypeVector((1,) * N, N))
        for ell in range(1, min(max_len, N - 1) + 1):
            mass = {}  # prefix letters at sites 0..ell-1 -> their stationary mass
            for w, p in dist.items():
                mass[w[:ell]] = mass.get(w[:ell], 0) + p
            for xs in itertools.combinations(range(N, 0, -1), ell):  # xs is decreasing
                if mass.get(xs, 0) != descending_prefix_probability(xs, N):
                    bad.append({"N": N, "xs": list(xs)})
    return bad[:5], "prefix determinant equals exact stationary prefix mass"


def _check_prefix_reverse_duality(*, max_N):
    bad = []
    for N in range(2, max_N + 1):
        for ell in range(1, min(3, N - 1) + 1):
            z = Fraction(1)
            for i in range(1, ell + 1):
                z /= binomial(N, i)
            for xs in itertools.combinations(range(N, 0, -1), ell):
                lhs = descending_prefix_probability(xs, N)
                rhs = count_bottom_reverse(tuple(reversed(xs))) * z
                if lhs != rhs:
                    bad.append({"N": N, "xs": list(xs)})
    return bad[:5], "prefix probability equals normalized reverse-bottom count"


def _compositions(max_N, parts):
    """(N, m) for each composition m of N into k parts, 2 <= N <= max_N, k in parts."""
    for N in range(2, max_N + 1):
        for k in parts:
            for cuts in itertools.combinations(range(1, N), k - 1):
                yield N, tuple(b - a for a, b in zip((0,) + cuts, cuts + (N,)))


def _check_fw_routes(*, max_N):
    bad = []
    for N, m in _compositions(max_N, (2, 3)):
        try:
            expected = descending_start_count(m, N)
        except RuntimeError as e:  # its two routes disagree
            bad.append({"m": list(m), "N": N, "error": str(e)})
            continue
        prefix = tuple(range(len(m), 1, -1))
        brute = sum(c for w, c in bottom_word_counts(TypeVector(m, N)).items() if w[: len(m) - 1] == prefix)
        if expected != brute:
            bad.append({"m": list(m), "N": N, "routes": expected, "brute": brute})
    return bad[:5], "determinant-sum route == tableau route == brute count"


def _check_bijection(*, max_N):
    bad = []
    # the worked 13-column example
    t13 = TypeVector((2, 2, 2, 3, 4), 13)
    q13 = DiscreteMLQ(
        t13,
        ((5, 8), (3, 4, 7, 11), (2, 3, 6, 8, 10, 12), (1, 2, 3, 4, 7, 8, 10, 11, 12), tuple(range(13))),
    )
    tab = mlq_to_ssyt(label_mlq(q13))
    if [list(r) for r in tab.rows] != [[1, 1, 2, 5], [2, 3, 6, 8], [3, 5, 9], [5, 7], [6], [9]]:
        bad.append({"example": "worked", "got": [list(r) for r in tab.rows]})
    if ssyt_to_mlq(tab, (2, 2, 2, 3), 13) != q13:
        bad.append({"example": "roundtrip"})
    # exhaustive bijectivity on small rings
    for N, m in _compositions(max_N, (2, 3)):
        t = TypeVector(m, N)
        images = set()
        count = 0
        for rows in _descending_rows(t):
            q = DiscreteMLQ(t, rows)
            tab = mlq_to_ssyt(label_mlq(q))
            count += 1
            images.add(tab)
            if ssyt_to_mlq(tab, m, N) != q:
                bad.append({"m": list(m), "N": N, "q": q.to_json_dict()})
        try:
            if not len(images) == count == descending_start_count(m, N):
                bad.append({"m": list(m), "N": N, "injective": len(images) == count})
        except RuntimeError as e:  # the count's two routes disagree
            bad.append({"m": list(m), "N": N, "error": str(e)})
    return bad[:3], "queue/tableau correspondence is a bijection on the sweep"


def _descending_rows(t: TypeVector):
    """The rows of the queues of type t (n >= 2) that mlq_to_ssyt maps:
    no claim wraps, and the bottom word starts n, n-1, ..., 2.  Each row
    tuple is read through its claim steps, stopping at the first wrap,
    before any queue is built."""
    prefix = list(range(t.n, 1, -1))
    for rows in _mlq_rows(t):
        for _, labels, _, wrapped in _claim_rows(rows):
            if any(wrapped):
                break
        else:
            if labels[: t.n - 1] == prefix:
                yield rows


def _check_hook_jt_brute(*, max_t):
    bad = []
    shapes = [()] + [
        lam
        for k in range(1, 5)
        for lam in itertools.combinations_with_replacement(range(4, 0, -1), k)
    ]
    for lam in sorted(set(shapes)):
        for t in range(0, max_t + 1):
            try:
                hc = ssyt_count_hook_content(lam, t)
                jt = ssyt_count_jacobi_trudi(lam, t)
            except RuntimeError as e:  # the formula routes disagree
                bad.append({"shape": list(lam), "t": t, "error": str(e)})
                continue
            brute = ssyt_count_brute(lam, t)
            if not (hc == jt == brute):
                bad.append({"shape": list(lam), "t": t, "hc": hc, "jt": jt, "brute": brute})
    return bad[:5], "hook-content == both determinants == enumeration"


def _check_row_addition(*, max_N):
    compositions = _compositions(max_N, (2, 3, 4))
    bad = [{"m": list(m), "N": N} for N, m in compositions if not hook_content_row_addition_check(m, N)["match"]]
    return bad[:5], "row-addition hook-content identity over the sweep"


def _check_last_row_invariance(*, cases=(((1, 1), 4), ((1, 1), 5), ((1, 1, 1), 5))):
    bad = []
    for m, N in cases:
        dist = _tasep(TypeVector(tuple(m), N))
        if push_through_last_row(dist) != dist:
            bad.append({"m": list(m), "N": N})
    return bad, "the last-row update fixes the stationary distribution"


def _check_k_invariance(*, max_N):
    # one census per (n, N), certified on the TASEP, compared once with the
    # solve and then certified on each k-chain in integers; a refusal is a witness
    bad = []
    for N in range(2, max_N + 1):
        for n in range(1, N + 1):
            t = TypeVector((1,) * n, N)
            try:
                census = tasep_stationary(t)
            except (ValueError, RuntimeError) as e:  # no census for any k-chain
                bad.extend({"n": n, "N": N, "k": k, "error": str(e)} for k in range(1, N))
                continue
            same = census == _tasep(t)
            states, weights = markov._integer_census(t)
            table = markov._bell_table(states)  # one table, composed for every k
            for k in range(1, N):
                try:
                    markov._certify_weights(markov._subset_moves(table, k), weights)
                    if not same:
                        bad.append({"n": n, "N": N, "k": k})
                except (ValueError, RuntimeError) as e:  # the census refused on the k-chain
                    bad.append({"n": n, "N": N, "k": k, "error": str(e)})
    return bad[:5], "k-subset chains share the stationary distribution, k < N"


def _full_ring_findings(keys, base, full):
    """For each key, whether full(**key) solves uniquely to base(**key);
    no findings when every one does."""
    findings = []
    for key in keys:
        expected = base(**key)
        try:
            findings.append({**key, "unique": True, "equals_base": full(**key) == expected})
        except (ValueError, RuntimeError) as e:
            findings.append({**key, "unique": False, "error": str(e)})
    return [] if all(f.get("equals_base") for f in findings) else findings


def _check_k_full_ring(*, max_N):
    findings = _full_ring_findings(
        [{"n": n, "N": N} for N in range(2, max_N + 1) for n in range(1, N + 1)],
        lambda n, N: _tasep(TypeVector((1,) * n, N)),
        lambda n, N: k_tasep_stationary(TypeVector((1,) * n, N), N),
    )
    return findings, (
        "full-ring sweep (k = N): the cyclic firing rule has no valid order, so the forced cut "
        "yields a deterministic non-ergodic map; no unique stationary distribution exists"
    )


def _check_rs_relations(*, max_n):
    bad = []
    for n in range(1, max_n + 1):
        m = 2 * n
        _, gen, _ = _tables(n)  # gen[i - 1][s]: the position of e_i applied to pattern s
        for s in range(len(gen[0])):
            for i in range(1, m + 1):
                e = gen[i - 1]
                ei = e[s]
                ip1 = i % m + 1
                im1 = m if i == 1 else i - 1
                if e[gen[ip1 - 1][ei]] != ei:
                    bad.append({"n": n, "rel": "A+", "i": i})
                if e[gen[im1 - 1][ei]] != ei:
                    bad.append({"n": n, "rel": "A-", "i": i})
                if e[ei] != ei:
                    bad.append({"n": n, "rel": "B", "i": i})
                for j in range(1, m + 1):
                    if j in (i, ip1, im1):
                        continue
                    if gen[j - 1][ei] != e[gen[j - 1][s]]:
                        bad.append({"n": n, "rel": "C", "i": i, "j": j})
    return bad[:5], "generator relations hold exhaustively"


def _check_rs_figure():
    got = apply_generator(LinkingPattern(((1, 4), (2, 3), (5, 6))), 4)
    bad = [] if got == LinkingPattern(((1, 6), (2, 3), (4, 5))) else [{"got": got.pairs}]
    return bad, "worked generator action reproduced"


def _check_rs_k_independence(*, max_n):
    bad = []
    for n in range(2, max_n + 1):
        base = _rs(n, 1)
        for k in range(2, 2 * n):
            if rs_stationary(n, k) != base:
                bad.append({"n": n, "k": k})
    return bad, "pattern-chain stationary distribution is k-independent, k < 2n"


def _check_rs_full_ring(*, max_n):
    findings = _full_ring_findings(
        [{"n": n} for n in range(2, max_n + 1)],
        lambda n: _rs(n, 1),
        lambda n: rs_stationary(n, 2 * n),
    )
    return findings, "full-set generator sweep (k = 2n), outside the k-independence range; reported, not assumed"


def _most_nested(n):
    return LinkingPattern(tuple((i, 2 * n + 1 - i) for i in range(1, n + 1)))


def _least_nested(n):
    return LinkingPattern(tuple((2 * i - 1, 2 * i) for i in range(1, n + 1)))


def _check_extremes(*, max_n):
    bad = []
    for n in range(2, max_n + 1):
        rsd = _rs(n, 1)
        dist = permutation_distribution(n)
        # the pattern chain is rotation invariant, so extremes are attained
        # on whole rotation classes; compare values, not unique states
        ends = {
            ("patterns", "max"): rsd[_least_nested(n)] == max(rsd.values()),
            ("patterns", "min"): rsd[_most_nested(n)] == min(rsd.values()),
            ("ring", "max"): max(dist, key=dist.get) == tuple(range(1, n + 1)),
            ("ring", "min"): min(dist, key=dist.get) == reverse_permutation(n),
        }
        bad += [{"chain": chain, "n": n, "end": end} for (chain, end), ok in ends.items() if not ok]
    return bad, "stationary mass peaks at identity/least nested, dips at reverse/most nested"


def _asm_count(n: int) -> int:
    """A_n = prod_{k<n} (3k+1)!/(n+k)!, the number of n x n alternating sign
    matrices."""
    f = math.factorial
    return math.prod(f(3 * k + 1) for k in range(n)) // math.prod(f(n + k) for k in range(n))


def _check_rs_sum_rule(*, max_n):
    bad = []
    for n in range(1, max_n + 1):
        dist = _rs(n, 1)
        low = min(dist.values())
        scaled = {L: p / low for L, p in dist.items()}
        got = {
            "integral": all(v.denominator == 1 for v in scaled.values()),
            "sum": sum(scaled.values()),
            "most_nested": scaled[_most_nested(n)],
            "least_nested": scaled[_least_nested(n)],
        }
        expected = {"integral": True, "sum": _asm_count(n), "most_nested": 1, "least_nested": _asm_count(n - 1)}
        bad += [
            {"n": n, "entry": key, "got": str(got[key]), "expected": str(value)}
            for key, value in expected.items()
            if got[key] != value
        ]
    return bad, "smallest entry scaled to 1: integer entries summing to A_n, 1 most nested, A_(n-1) least nested"


def _check_figures():
    l = label_mlq(DiscreteMLQ(TypeVector((2, 1, 1), 8), ((3, 4), (0, 2, 4), (1, 5, 6, 7))))
    u = RingWord.from_dict(9, {0: 4, 2: 2, 7: 3, 8: 1})
    figures = {
        "labelling": l.labels[1] == (1, 2, 1) and l.labels[2] == (1, 1, 2, 3),
        "bottom-word": bottom_word(l) == RingWord.from_dict(8, {1: 1, 5: 1, 6: 2, 7: 3}),
        "continuous": label_arrangement(Arrangement((3, 1, 2, 2, 3, 1, 3, 2, 3))) == (3, 1, 2, 1),
        "last-row": last_row_step(u, (1, 4, 5, 7)) == RingWord.from_dict(9, {1: 1, 4: 2, 5: 4, 7: 3}),
    }
    return [{"figure": f} for f, ok in figures.items() if not ok], "worked queue figures reproduced"


CHECKS: dict[str, tuple[str, object, dict]] = {
    "fm-m11": (THEOREM, _check_ferrari_martin, {"m": (1, 1), "max_N": 6}),
    "fm-m21": (THEOREM, _check_ferrari_martin, {"m": (2, 1), "max_N": 6}),
    "fm-m111": (THEOREM, _check_ferrari_martin, {"m": (1, 1, 1), "max_N": 6}),
    "fm-m1111": (THEOREM, _check_ferrari_martin, {"m": (1, 1, 1, 1), "max_N": 6}),
    "reverse-count": (THEOREM, _check_reverse_count, {"max_n": 4, "max_N": 8}),
    "reverse-det-product": (THEOREM, _check_reverse_det_vs_product, {"max_n": 4, "max_N": 10}),
    "swap-count-k1": (THEOREM, _check_swap_count, {"k": 1, "max_n": 4, "max_N": 7}),
    "swap-count-k2": (THEOREM, _check_swap_count, {"k": 2, "max_n": 4, "max_N": 7}),
    "conj-swap-k3": (CONJECTURE, _check_swap_count, {"k": 3, "max_n": 5, "max_N": 7}),
    "conj-multi-swap": (CONJECTURE, _check_multi_swap, {"kvec": (3, 1), "n": 4, "max_N": 7}),
    "lgv-oracle": (THEOREM, _check_lgv, {}),
    "reverse-probability": (THEOREM, _check_reverse_probability, {"max_n": 4}),
    "interlacing-count": (THEOREM, _check_interlacing, {"max_n": 4}),
    "reverse-density": (THEOREM, _check_reverse_density, {"max_n": 4}),
    "reverse-density-n5": (THEOREM, _check_reverse_density, {"min_n": 5, "max_n": 5}),
    "operator-identities": (THEOREM, _check_operator_identities, {}),
    "conj-operator-family": (CONJECTURE, _check_operator_family, {"n": 4}),
    "conj-operator-family-n5": (CONJECTURE, _check_operator_family, {"n": 5}),
    "laplace-n4": (THEOREM, _check_laplace, {"n": 4}),
    "laplace-n5": (THEOREM, _check_laplace, {"n": 5, "expected_harmonic": 15, "enable_slow": False}),
    "conj-leading-part": (CONJECTURE, _check_leading_part, {"n": 4}),
    "conj-leading-part-n5": (CONJECTURE, _check_leading_part, {"n": 5}),
    "density-consistency": (THEOREM, _check_density_consistency, {"max_n": 4}),
    "density-consistency-n5": (THEOREM, _check_density_consistency, {"min_n": 5, "max_n": 5}),
    "prop43-adjacency": (THEOREM, _check_prop43, {"max_exact_n": 5, "max_formula_n": 10}),
    "conj-corr-n2": (CONJECTURE, _check_adjacency_conjecture, {"n": 2}),
    "conj-corr-n3": (CONJECTURE, _check_adjacency_conjecture, {"n": 3}),
    "conj-corr-n4": (CONJECTURE, _check_adjacency_conjecture, {"n": 4}),
    "conj-corr-n5": (CONJECTURE, _check_adjacency_conjecture, {"n": 5}),
    "corr-table-n6": (THEOREM, _check_table6, {}),
    "corr-mc-n6": (THEOREM, _check_adjacency_mc, {"n": 6, "samples": 10**7, "seed": 7}),
    "initial-prefix": (THEOREM, _check_initial_prefix, {"max_N": 6, "max_len": 3}),
    "prefix-reverse-duality": (THEOREM, _check_prefix_reverse_duality, {"max_N": 6}),
    "fw-routes": (THEOREM, _check_fw_routes, {"max_N": 7}),
    "ssyt-bijection": (THEOREM, _check_bijection, {"max_N": 6}),
    "hook-jt-brute": (THEOREM, _check_hook_jt_brute, {"max_t": 5}),
    "row-addition": (THEOREM, _check_row_addition, {"max_N": 8}),
    "last-row-invariance": (THEOREM, _check_last_row_invariance, {}),
    "k-tasep-invariance": (THEOREM, _check_k_invariance, {"max_N": 5}),
    "k-tasep-full-ring": (CONJECTURE, _check_k_full_ring, {"max_N": 5}),
    "rs-relations": (THEOREM, _check_rs_relations, {"max_n": 4}),
    "rs-figure": (THEOREM, _check_rs_figure, {}),
    "rs-k-independence": (THEOREM, _check_rs_k_independence, {"max_n": 4}),
    "rs-full-ring": (CONJECTURE, _check_rs_full_ring, {"max_n": 4}),
    "extreme-states": (CONJECTURE, _check_extremes, {"max_n": 4}),
    "rs-sum-rule": (THEOREM, _check_rs_sum_rule, {"max_n": 7}),
    "queue-figures": (THEOREM, _check_figures, {}),
}


@functools.cache
def _source_hash() -> str:
    """SHA-256 of the package's .py sources, so that any edit to the code
    invalidates cached reports; computed once, and only when caching."""
    h = hashlib.sha256()
    pkg = os.path.dirname(os.path.abspath(__file__))
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                data = fh.read()
            h.update(f"{name}\0{len(data)}\0".encode())
            h.update(data)
    return h.hexdigest()


def _cache_key(check_id: str, params: dict) -> str:
    # jobs sizes a process pool and changes no result, so it keys no report
    params = {k: v for k, v in params.items() if k != "jobs"}
    blob = json.dumps({"id": check_id, "params": params, "source": _source_hash()}, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


def run_suite(
    pattern: str = "*", overrides: dict | None = None, cache_dir: str | None = None
) -> list[VerificationReport]:
    """Run every check whose id matches the glob pattern.

    `overrides` maps check ids to parameter updates; an unknown id or
    parameter raises ValueError before any check runs.  With a cache
    directory, a report is reused while its check, its parameters and the
    sources are unchanged; a 5% sample of hits, seeded 0, is recomputed.
    """
    def outcome(severity, fn, params):
        """(status, witnesses, detail) of one run of a check."""
        witnesses, detail = fn(**params)
        if witnesses is None:
            return SKIPPED, [], detail
        if witnesses:
            return MISMATCH, witnesses, detail
        return (PROVED_MATCH if severity == THEOREM else CONJECTURE_MATCH), [], detail

    selected = [cid for cid in CHECKS if fnmatch.fnmatch(cid, pattern)]
    if not selected:
        raise ValueError(f"no checks match {pattern!r}")
    overrides = overrides or {}
    bound = {}  # the parameters of each selected or overridden check
    for cid in dict.fromkeys([*selected, *overrides]):
        if cid not in CHECKS:
            raise ValueError(f"no check {cid!r} to override")
        _, fn, defaults = CHECKS[cid]
        bound[cid] = {**defaults, **overrides.get(cid, {})}
        try:
            inspect.signature(fn).bind(**bound[cid])
        except TypeError as e:
            raise ValueError(f"check {cid!r}: {e}") from None
    if cache_dir:
        os.makedirs(cache_dir, exist_ok=True)
    audit_rng = random.Random(0)
    reports = []
    for cid in selected:
        severity, fn, _ = CHECKS[cid]
        params = bound[cid]
        cache_path = os.path.join(cache_dir, _cache_key(cid, params) + ".json") if cache_dir else None
        cached = cache_path is not None and os.path.exists(cache_path)
        if cached:
            with open(cache_path) as fh:
                data = json.load(fh)
            status, witnesses, detail, runtime = data["status"], data["witnesses"], data["detail"], data["runtime"]
            if audit_rng.random() < 0.05 and (fresh := outcome(severity, fn, params)[0]) != status:
                raise RuntimeError(f"cache audit failed for {cid}: {fresh} != {status}")
        else:
            t0 = time.perf_counter()
            status, witnesses, detail = outcome(severity, fn, params)
            runtime = time.perf_counter() - t0
        report = VerificationReport(cid, severity, status, params, witnesses, detail, runtime, cached)
        if cache_path and not cached:
            with open(cache_path, "w") as fh:
                json.dump(report.to_json_dict(), fh, sort_keys=True)
        reports.append(report)
    return reports


def suite_exit_code(reports) -> int:
    """0 unless a theorem-severity check mismatched (then 2)."""
    return 2 if any(r.severity == THEOREM and r.status == MISMATCH for r in reports) else 0
