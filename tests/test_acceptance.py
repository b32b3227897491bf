"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line.  Exact checks use rational arithmetic with zero
tolerance; the only statistical check is the seeded n=6 Monte Carlo.

Long-gated parts (the n=5 harmonicity census) run only with RUN_SLOW=1.

Criterion 11 is asserted twice: once over the theorem range k < N
(passes), and once literally over k in {1..N} as stated.  The literal
form cannot pass: for k = N the only k-subset is the whole ring, the
cyclic left-before-right firing rule admits no valid order, and the
forced-cut map is deterministic and non-ergodic, so no unique stationary
distribution exists.  See the README section "Tests and acceptance" for
the analysis; the failure is left visible on purpose.
"""

import os

from fractions import Fraction

from ringtasep.core import TypeVector, reverse_permutation
from ringtasep.continuum import (
    permutation_distribution,
    reverse_probability_formula,
    top_pair_adjacency_syt,
)
from ringtasep.markov import k_tasep_stationary, tasep_stationary
from ringtasep.tableaux import interlacing_pattern_count
from ringtasep.verify import CONJECTURE_MATCH, MISMATCH, PROVED_MATCH, run_suite

RUN_SLOW = os.environ.get("RUN_SLOW") == "1"


def _statuses(pattern, overrides=None):
    return {r.check_id: r for r in run_suite(pattern, overrides=overrides)}


def _report(name: str, ok: bool):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {name} failed"


def test_criterion_01_stationary_equals_queue_counts():
    reports = _statuses("fm-*")
    assert set(reports) == {"fm-m11", "fm-m21", "fm-m111", "fm-m1111"}
    _report("01-stationary-vs-queue-counts", all(r.status == PROVED_MATCH for r in reports.values()))


def test_criterion_02_reverse_count_formula():
    reports = _statuses("reverse-count") | _statuses("reverse-det-product")
    _report("02-reverse-count-formula", all(r.status == PROVED_MATCH for r in reports.values()))


def test_criterion_03_swap_count_theorem_and_conjectures():
    theorem = _statuses("swap-count-k*")
    ok = all(r.status == PROVED_MATCH for r in theorem.values())
    conj = _statuses("conj-swap-k3") | _statuses("conj-multi-swap")
    for r in conj.values():
        # conjecture checks must run and report; a mismatch needs a witness
        ok = ok and r.status in (CONJECTURE_MATCH, MISMATCH)
        if r.status == MISMATCH:
            print(f"FINDING {r.check_id}: {r.witnesses[:3]}")
            ok = ok and bool(r.witnesses)
    _report("03-swap-count", ok)


def test_criterion_04_reverse_probability():
    reports = _statuses("reverse-probability")
    ok = all(r.status == PROVED_MATCH for r in reports.values())
    ok = ok and interlacing_pattern_count(3)["brute"] == 2
    # n = 5 is cheap here because the census is shared with criterion 8
    ok = ok and permutation_distribution(5)[reverse_permutation(5)] == reverse_probability_formula(5)
    _report("04-reverse-probability", ok)


def test_criterion_05_density_and_operator_identities():
    reports = _statuses("reverse-density") | _statuses("operator-identities")
    ok = all(r.status == PROVED_MATCH for r in reports.values())
    family = _statuses("conj-operator-family")["conj-operator-family"]
    ok = ok and family.status == CONJECTURE_MATCH
    _report("05-operator-identities", ok)


def test_criterion_06_harmonicity_census():
    """n=4: every rotation class harmonic.  The n=5 census is gated
    (RUN_SLOW=1) and asserts the pinned count of 15 harmonic classes out
    of 24; the reproducible computation yields 24 of 24 (densities
    validated by the proven swap identities at n=5 and by Monte Carlo
    moments, and equal to those of the former independent interleaving
    sweep, whose 37,700 (word, gap vector) weights the shared census
    reproduces exactly, as recorded in CHANGES.md), so the pinned count
    fails honestly when run.  Analysis in the reviewer notes."""
    n4 = _statuses("laplace-n4")["laplace-n4"]
    ok = n4.status == PROVED_MATCH
    if RUN_SLOW:
        n5 = run_suite("laplace-n5", overrides={"laplace-n5": {"enable_slow": True}})[0]
        print(f"ACCEPTANCE 06-harmonicity n=5 census: {n5.detail}")
        ok = ok and n5.status == PROVED_MATCH and "15 of 24" in n5.detail
    else:
        print("ACCEPTANCE 06-harmonicity: n=5 census gated (set RUN_SLOW=1)")
    _report("06-harmonicity", ok)


def test_criterion_07_density_consistency():
    r = _statuses("density-consistency")["density-consistency"]
    _report("07-density-consistency", r.status == PROVED_MATCH)


def test_criterion_08_adjacency_correlations():
    conj = _statuses("conj-corr-n*")
    ok = all(r.status == CONJECTURE_MATCH for r in conj.values())
    ok = ok and _statuses("prop43-adjacency")["prop43-adjacency"].status == PROVED_MATCH
    ok = ok and _statuses("corr-table-n6")["corr-table-n6"].status == PROVED_MATCH
    ok = ok and top_pair_adjacency_syt(6) == Fraction(1, 33)
    mc = run_suite("corr-mc-n6", overrides={"corr-mc-n6": {"jobs": os.cpu_count() or 1}})[0]
    ok = ok and mc.status == PROVED_MATCH
    _report("08-adjacency-correlations", ok)


def test_criterion_09_prefix_and_tableaux():
    reports = (
        _statuses("initial-prefix")
        | _statuses("prefix-reverse-duality")
        | _statuses("fw-routes")
        | _statuses("ssyt-bijection")
        | _statuses("hook-jt-brute")
        | _statuses("row-addition")
    )
    _report("09-prefix-and-tableaux", all(r.status == PROVED_MATCH for r in reports.values()))


def test_criterion_10_last_row_invariance():
    r = _statuses("last-row-invariance")["last-row-invariance"]
    _report("10-last-row-invariance", r.status == PROVED_MATCH)


def test_criterion_11_k_subset_invariance_theorem_range():
    r = _statuses("k-tasep-invariance")["k-tasep-invariance"]
    _report("11-k-subset-invariance(k<N)", r.status == PROVED_MATCH)


def test_criterion_11_full_range_as_stated():
    """The literal criterion: identical stationary distribution for every
    k in {1..N}.  Unattainable at k = N (see module docstring)."""
    failures = []
    for N in range(2, 6):
        for n in range(1, N + 1):
            t = TypeVector((1,) * n, N)
            base = tasep_stationary(t)
            for k in range(1, N + 1):
                try:
                    if k_tasep_stationary(t, k) != base:
                        failures.append((n, N, k, "distribution differs"))
                except (ValueError, RuntimeError) as e:
                    failures.append((n, N, k, str(e)))
    _report("11-k-subset-invariance(full-range-as-stated)", not failures)


def test_criterion_12_pattern_chain():
    reports = _statuses("rs-relations") | _statuses("rs-figure") | _statuses("rs-k-independence")
    from ringtasep.rs import enumerate_patterns

    ok = all(r.status == PROVED_MATCH for r in reports.values())
    ok = ok and len(enumerate_patterns(4)) == 14
    _report("12-pattern-chain", ok)
