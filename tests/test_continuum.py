import hashlib
from fractions import Fraction
from math import comb, factorial

import pytest

from ringtasep import continuum
from ringtasep.core import reverse_permutation, swap_values
from ringtasep.continuum import (
    EXACT_CAP,
    CorrTable,
    _census,
    _in_q,
    _mc_counts,
    adjacency_conjecture,
    adjacency_exact,
    adjacency_mc,
    arrangement_count,
    check_operator_identity,
    density_gap_forms,
    density_poly,
    enumerate_arrangements,
    permutation_distribution,
    permutation_distribution_mc,
    reverse_probability_formula,
    syt_three_column_count,
    top_pair_adjacency_syt,
)
from ringtasep.mlq import label_arrangement, label_mlq, materialize
from ringtasep.poly import (
    MultiPoly,
    OperatorExpr,
    gap_laplacian,
    gap_leading_part,
    gap_vandermonde,
    integrate_gap_simplex,
    integrate_ordered_simplex,
    laplacian,
    vandermonde,
)
from ringtasep.tableaux import conjugate_partition, syt_count
from ringtasep.verify import _printed_operator_identities, _swap_operator


def test_arrangement_counts():
    assert arrangement_count(2) == 3
    assert arrangement_count(3) == 60
    assert arrangement_count(4) == 12600
    assert sum(1 for _ in enumerate_arrangements(3)) == 60


def test_enumeration_cap():
    # every exact entry point refuses n above the cap before any census call
    entries = (lambda n: list(enumerate_arrangements(n)), permutation_distribution, adjacency_exact, density_gap_forms)
    for entry in entries:
        misses = _census.cache_info().misses
        with pytest.raises(ValueError, match=f"above .*cap {EXACT_CAP}"):
            entry(EXACT_CAP + 1)
        assert _census.cache_info().misses == misses


def test_permutation_distribution_small():
    assert permutation_distribution(2) == {(1, 2): Fraction(2, 3), (2, 1): Fraction(1, 3)}
    d3 = permutation_distribution(3)
    assert d3[(3, 2, 1)] == Fraction(1, 30)
    assert sum(d3.values()) == 1
    assert sum(permutation_distribution(4).values()) == 1


@pytest.mark.parametrize("n", [0, -1])
def test_permutation_distribution_refuses_n_below_one(n):
    before = _census.cache_info().currsize
    with pytest.raises(ValueError, match="need n >= 1"):
        permutation_distribution(n)
    assert _census.cache_info().currsize == before  # nothing memoised


def test_density_gap_forms_refuses_n_below_one():
    with pytest.raises(ValueError, match="need n >= 1"):
        density_gap_forms(0)


def test_permutation_distribution_matches_full_enumeration():
    # the pinned-origin census must agree with enumerating every
    # arrangement and reading from the origin cut
    for n in (2, 3, 4):
        direct: dict = {}
        for a in enumerate_arrangements(n):
            w = label_arrangement(a)
            direct[w] = direct.get(w, 0) + 1
        total = arrangement_count(n)
        assert permutation_distribution(n) == {w: Fraction(c, total) for w, c in sorted(direct.items())}


def test_density_weights_match_full_enumeration():
    # rebuild the census's (word, gap vector) weights from every
    # arrangement with a bottom box at the origin
    for n in (1, 2, 3, 4):
        B = comb(n + 1, 2)
        weights: dict = {}
        for a in enumerate_arrangements(n):
            if a.order[0] == n:
                q = materialize(a)
                bottom = q.rows[-1]
                w = tuple(label_mlq(q).labels[-1])
                gaps = tuple((bottom[(j + 1) % n] - bottom[j] - 1) % B for j in range(n))
                weights[(w, gaps)] = weights.get((w, gaps), 0) + 1
        assert _census(n)[1] == weights


def test_exact_outputs_are_pinned():
    # SHA-256 of the outputs as recorded with the separate density sweep
    # over bottom-pinned interleavings
    def poly_digest(g):
        return hashlib.sha256(repr([(w, sorted(p.terms.items())) for w, p in sorted(g.items())]).encode()).hexdigest()

    densities = {
        1: "39d6835e655ba99a2dbfe3cc1bd21cf03715248dd13642c9324e05ab69c900df",
        2: "e027d6e8ad2bab264e39dfed7646ecd330ec60635daaac886b3057db8834a9f9",
        3: "be49a40f1b7554f912a1ec00cec26cf15731ed19e1a43611a06ff8a863b26f71",
        4: "079e52d2af72c3ba842b011ec6cfc0b9168c379e93eec4df88929863ebeefac0",
    }
    perms = {
        1: "b7d555a21ea92f5cdc8dcc1ed0bbb66a265917583584f96c1c821009e9af204d",
        2: "e37e27fcf34e4a47ad82dff3aa0d4470682132fd8719364b452966e97bae4e4d",
        3: "4606b15456ad43c5f68637dc42b772c579da5abf6a190bcbb682b299730a48af",
        4: "cf126d5c1f8c12224de2869a45b7e2d1a38af5d17afb23fa3069bb7791185dd2",
    }
    adjacencies = {
        2: "13cfbbf1ff3d0d3438fd2909247f5f8f5991c0759faa7ac95af223b147cb6182",
        3: "42ce830c12464418565041b5e5b13543393cac7fccbccd76da2211bfd6eabdb3",
        4: "20b66eb9ac5f794b5ee9150ad141010e781789162f8071f6a13af06a78fb1610",
    }
    assert {n: poly_digest(_densities(n)) for n in densities} == densities
    assert {n: _digest(permutation_distribution(n)) for n in perms} == perms
    assert {n: _digest(adjacency_exact(n).entries) for n in adjacencies} == adjacencies


def test_census_n5_is_pinned():
    # SHA-256 of the n = 5 word counts and weights as recorded with the
    # arrangement search that pinned the row-1 box and chose every row's slots
    word_counts, weights, reps = _census(5)
    assert reps == arrangement_count(5) // 15 == 2_522_520
    assert _digest(word_counts) == "ca5a8458e46e7ee00be64015a168368039ed1b5f86d8ced55d8f48ec7d200943"
    assert _digest(weights) == "a5c1994717a1e2625a2f34422e51e438ddeaed64324db35609721acc78ba11dc"


def test_reverse_probability_formula():
    assert reverse_probability_formula(2) == Fraction(1, 3)
    assert reverse_probability_formula(3) == Fraction(1, 30)
    assert reverse_probability_formula(4) == Fraction(1, 1050)
    for n in (2, 3, 4):
        assert permutation_distribution(n)[reverse_permutation(n)] == reverse_probability_formula(n)


def test_adjacency_exact_small():
    t2 = adjacency_exact(2)
    assert t2.value(1, 2) == 1 and t2.value(2, 1) == 1
    t3 = adjacency_exact(3)
    assert t3.value(2, 1) == Fraction(1, 5)
    assert t3.value(1, 2) == Fraction(4, 5)


def test_adjacency_rows_sum_to_one():
    for n in (2, 3, 4):
        sums = adjacency_exact(n).row_sums()
        assert all(s == 1 for s in sums.values())


def test_adjacency_origin_cut_invariance():
    # cutting the circle at any slot before reading leaves the adjacency
    # census unchanged (the cyclic pair multiset ignores the cut), and the
    # table equals n times the reading-position average of the pair
    # probabilities; single fixed reading positions genuinely differ
    for n in (2, 3):
        total = arrangement_count(n)
        census = adjacency_exact(n)
        for shift in range(1, n + 1):
            counts: dict = {}
            for arr in enumerate_arrangements(n):
                w = label_arrangement(arr.rotate(shift))
                for a in range(n):
                    pair = (w[a], w[(a + 1) % n])
                    counts[pair] = counts.get(pair, 0) + 1
            assert census.entries == {p: Fraction(c, total) for p, c in counts.items()}
        avg: dict = {}
        for arr in enumerate_arrangements(n):
            w = label_arrangement(arr)
            for a in range(n):
                pair = (w[a], w[(a + 1) % n])
                avg[pair] = avg.get(pair, 0) + 1
        for (i, j), c in avg.items():
            assert census.value(i, j) == n * Fraction(c, n * total)


def test_adjacency_conjecture_values():
    assert adjacency_conjecture(3, 1, 6) == Fraction(5, 42)
    assert adjacency_conjecture(1, 2, 6) == Fraction(1, 2)
    assert adjacency_conjecture(6, 1, 6) == Fraction(37, 77)
    assert adjacency_conjecture(6, 5, 6) == Fraction(1, 33)
    with pytest.raises(ValueError):
        adjacency_conjecture(2, 2, 6)


def test_adjacency_conjecture_matches_exact():
    for n in (2, 3, 4):
        labels = range(1, n + 1)
        conj = {(i, j): adjacency_conjecture(i, j, n) for i in labels for j in labels if i != j}
        assert adjacency_exact(n).entries == conj


def test_corr_table_validation():
    with pytest.raises(ValueError):
        CorrTable(2, {(1, 1): Fraction(1)})


def test_adjacency_mc_determinism_and_accuracy():
    a = adjacency_mc(3, 40000, seed=5)
    b = adjacency_mc(3, 40000, seed=5)
    assert a == b
    exact = adjacency_exact(3)
    for (i, j), e in a["entries"].items():
        assert abs(e["estimate"] - float(exact.value(i, j))) <= 3 * e["stderr"] + 1e-9
    # rows sum to one exactly, sample by sample
    for i in range(1, 4):
        assert abs(sum(e["estimate"] for (a_, b_), e in a["entries"].items() if a_ == i) - 1) < 1e-12


def test_adjacency_mc_jobs_split_deterministic():
    a = adjacency_mc(3, 10000, seed=5, jobs=2)
    b = adjacency_mc(3, 10000, seed=5, jobs=2)
    assert a == b


def test_mc_counts_do_not_depend_on_jobs(monkeypatch):
    # 2,500 samples in chunks of 1,000: three seeded streams, whichever
    # pool size runs them, and one of them the whole run at jobs=1
    monkeypatch.setattr(continuum, "MC_CHUNK", 1_000)
    runs = [_mc_counts(4, 2_500, 9, jobs) for jobs in (1, 2, 3)]
    assert runs[0] == runs[1] == runs[2] and sum(runs[0].values()) == 2_500
    assert list(runs[0].items()) == list(runs[2].items())
    monkeypatch.setattr(continuum, "MC_CHUNK", 10**6)
    assert _mc_counts(4, 2_500, 9, 3) != runs[0]


def test_mc_refuses_jobs_below_one():
    from ringtasep.verify import run_suite

    for jobs in (0, -3):
        with pytest.raises(ValueError, match="need jobs >= 1"):
            adjacency_mc(3, 10, 0, jobs=jobs)
        with pytest.raises(ValueError, match="need jobs >= 1"):
            permutation_distribution_mc(3, 10, 0, jobs=jobs)
        with pytest.raises(ValueError, match="need jobs >= 1"):
            run_suite("corr-mc-n6", overrides={"corr-mc-n6": {"samples": 1000, "jobs": jobs}})


def test_permutation_distribution_mc():
    from ringtasep.continuum import permutation_distribution_mc

    res = permutation_distribution_mc(3, 60000, seed=2)
    exact = permutation_distribution(3)
    for w, e in res["words"].items():
        assert abs(e["freq"] - float(exact[w])) <= 3 * e["stderr"] + 1e-9
    assert res == permutation_distribution_mc(3, 60000, seed=2)


def test_permutation_distribution_mc_refuses_n_below_one():
    with pytest.raises(ValueError, match="need n >= 1"):
        permutation_distribution_mc(-2, 5, seed=1)
    assert permutation_distribution_mc(1, 5, seed=1)["words"][(1,)]["freq"] == 1.0


def test_adjacency_mc_refuses_n_below_two():
    with pytest.raises(ValueError, match="need n >= 2"):
        adjacency_mc(1, 10, seed=1)


def _digest(d: dict) -> str:
    return hashlib.sha256(repr(sorted(d.items())).encode()).hexdigest()


def test_mc_streams_are_pinned():
    # SHA-256 of the outputs as recorded with the samplers that drew all
    # rows first and labelled them afterwards; one chunk of samples, so
    # jobs=2 draws the stream of jobs=1
    assert _digest(adjacency_mc(6, 20_000, seed=5)) == (
        "6a0f223a991aa088e498a9b8e6cef182540c19314e55c98ad817ec21e57d011b"
    )
    assert _digest(adjacency_mc(6, 20_000, seed=5, jobs=2)) == (
        "6a0f223a991aa088e498a9b8e6cef182540c19314e55c98ad817ec21e57d011b"
    )
    assert _digest(permutation_distribution_mc(5, 20_000, seed=2)) == (
        "e7e9db8125ffe8a146741aa9263d325d1e68c357f9f8d4beb4b2c3a2030adbd7"
    )


def test_syt_three_column_counts():
    assert syt_three_column_count(3, 0) == 1
    for n in (3, 4, 5):
        for i in range(n - 1):
            lam = conjugate_partition(tuple(x for x in (n - 2, n - 2, i) if x))
            assert syt_three_column_count(n, i) == syt_count(lam)


def test_top_pair_adjacency():
    assert top_pair_adjacency_syt(3) == Fraction(1, 5)
    assert top_pair_adjacency_syt(6) == Fraction(1, 33)
    for n in (3, 4, 5):
        assert top_pair_adjacency_syt(n) == adjacency_exact(n).value(n, n - 1)


def test_density_polys_two_particles():
    g = _densities(2)
    q1, q2 = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    assert g[(2, 1)] == (q2 - q1) * 2
    assert g[(1, 2)] == (MultiPoly.one(2) - q2 + q1) * 2


def test_density_reverse_is_vandermonde():
    for n in (2, 3, 4):
        assert _densities(n)[reverse_permutation(n)] == vandermonde(n) * factorial(n)


def test_densities_integrate_to_probabilities():
    for n in (2, 3, 4):
        g = _densities(n)
        dist = permutation_distribution(n)
        total = Fraction(0)
        for w, p in g.items():
            v = integrate_ordered_simplex(p)
            assert v == dist[w]
            total += v
        assert total == 1


def test_operator_identity_check():
    op = OperatorExpr.partial(4, {3: 1}) - OperatorExpr.identity(4)
    assert check_operator_identity((4, 3, 1, 2), op, (4, 3, 2, 1))["match"]
    bad = OperatorExpr.partial(4, {2: 1}) - OperatorExpr.identity(4)
    assert not check_operator_identity((4, 3, 1, 2), bad, (4, 3, 2, 1))["match"]


def test_density_poly_single():
    for n in (1, 2, 3, 4):
        g = _densities(n)
        for pi in g:
            assert density_poly(pi) == g[pi]


def test_density_poly_reverse_n5_is_vandermonde():
    # expanded alone from the census weights, against the q-side product
    assert density_poly(reverse_permutation(5)) == vandermonde(5) * 120


def _q(form):
    return _in_q({0: form})[0]


def _densities(n):
    """Every density g_pi of size n, expanded in q."""
    return _in_q(density_gap_forms(n))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_gap_route_matches_q_route(n):
    # each gap-side operation, expanded in q, equals the same operation
    # done on the q densities; the top q-degree is B - n
    g, G = _densities(n), density_gap_forms(n)
    for w, p in g.items():
        assert _q(G[w]) == p
        lap = gap_laplacian(G[w])
        assert _q(lap) == laplacian(p) and lap.is_zero() == laplacian(p).is_zero()
        assert _q(gap_leading_part(G[w])) == MultiPoly(n, {e: c for e, c in p.terms.items() if sum(e) == comb(n, 2)})
        assert integrate_gap_simplex(G[w]) == integrate_ordered_simplex(p)
    assert _q(gap_vandermonde(n)) == vandermonde(n)


def test_operator_identities_agree_across_routes():
    cases = list(_printed_operator_identities().items())
    for n in (2, 3, 4):
        w0 = reverse_permutation(n)
        cases += [((swap_values(w0, k), w0), _swap_operator(n, k)) for k in range(1, n)]
    base = swap_values(reverse_permutation(4), 3)
    cases.append(((swap_values(base, 1), base), _swap_operator(4, 1)))
    false = ((4, 3, 1, 2), (4, 3, 2, 1)), OperatorExpr.partial(4, {2: 1}) - OperatorExpr.identity(4)
    cases.append(false)
    qs = {n: _densities(n) for n in (2, 3, 4)}
    matches = []
    for (target, base), op in cases:
        g, G = qs[len(base)], density_gap_forms(len(base))
        assert _q(op.apply_gaps(G[base])) == op.apply(g[base])
        matches.append(op.apply(g[base]) == g[target])
        assert check_operator_identity(target, op, base)["match"] == matches[-1]
    assert matches == [True] * (len(cases) - 1) + [False]


def test_density_gap_forms_have_int_coefficients():
    for n in (1, 2, 3, 4):
        assert all(type(c) is int for form in density_gap_forms(n).values() for c in form.terms.values())


def test_gap_leading_part_refuses_an_inexact_division():
    # (1/2) L_1^[2] has leading part (1/2) L_0^[2]: Horner gives 1 at L_0^[2], and 2! does not divide it
    with pytest.raises(RuntimeError, match=r"coefficient 1 of L\^\[\(2, 0\)\] is not a multiple of 2!"):
        gap_leading_part(MultiPoly(2, {(0, 2): Fraction(1, 2)}))
    # the same form times 2 is integral, and its part is X^2 / 2! = L_0^[2]
    assert gap_leading_part(MultiPoly(2, {(0, 2): 1})) == MultiPoly(2, {(2, 0): 1})
