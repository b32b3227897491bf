import functools
import hashlib
import importlib.util
import inspect
import json
import types
from fractions import Fraction
from pathlib import Path

import pytest

from ringtasep import continuum, markov, tableaux, verify
from ringtasep.core import TypeVector
from ringtasep.count import enumerate_mlqs
from ringtasep.mlq import label_mlq
from ringtasep.verify import (
    CHECKS,
    CONJECTURE,
    CONJECTURE_MATCH,
    MISMATCH,
    PROVED_MATCH,
    SKIPPED,
    THEOREM,
    VerificationReport,
    run_suite,
    suite_exit_code,
)


def test_registry_shape():
    for cid, (severity, fn, params) in CHECKS.items():
        assert severity in (THEOREM, CONJECTURE)
        assert callable(fn)
        assert isinstance(params, dict)


def test_checks_take_keyword_parameters_the_registry_binds():
    # a typo in a registry entry fails here, not in a user's run
    entries = {}  # check -> the parameter names of each of its entries
    for cid, (_, fn, defaults) in CHECKS.items():
        sig = inspect.signature(fn)
        assert all(p.kind is p.KEYWORD_ONLY for p in sig.parameters.values()), cid
        assert "params" not in sig.parameters, cid
        sig.bind(**defaults)
        entries.setdefault(fn, []).append(set(defaults))
    # a default every entry of a check supplies is written only in CHECKS
    for fn, keys in entries.items():
        for name, p in inspect.signature(fn).parameters.items():
            if p.default is not p.empty:
                assert any(name not in k for k in keys), (fn.__name__, name)


def test_unknown_overrides_are_refused_before_any_check_runs(monkeypatch, tmp_path):
    ran = []
    for cid, (severity, fn, defaults) in CHECKS.items():
        spy = functools.wraps(fn)(lambda *args, _cid=cid, **kwargs: ran.append(_cid) or ([], ""))
        monkeypatch.setitem(CHECKS, cid, (severity, spy, defaults))
    refused = [
        ("*", {"conj-swap-k3": {"maxN": 9}}, "'conj-swap-k3': got an unexpected keyword argument 'maxN'"),
        ("fm-m11", {"fm-m11": {"max_n": 9}}, "'fm-m11': got an unexpected keyword argument 'max_n'"),
        ("rs-figure", {"corr-mc-n6": {"sample": 10}}, "'corr-mc-n6': got an unexpected keyword argument 'sample'"),
        ("*", {"no-such-check": {}}, "no check 'no-such-check' to override"),
    ]
    for pattern, overrides, message in refused:
        with pytest.raises(ValueError, match=message):
            run_suite(pattern, overrides=overrides, cache_dir=str(tmp_path / "cache"))
    assert ran == [] and not (tmp_path / "cache").exists()
    # the spies take what their checks take
    run_suite("fm-m11", overrides={"fm-m11": {"max_N": 3}})
    assert ran == ["fm-m11"]


def test_exit_codes():
    theorem_bad = VerificationReport("x", THEOREM, MISMATCH)
    conj_bad = VerificationReport("y", CONJECTURE, MISMATCH)
    ok = VerificationReport("z", THEOREM, PROVED_MATCH)
    assert suite_exit_code([ok, conj_bad]) == 0
    assert suite_exit_code([ok, theorem_bad]) == 2


def test_unknown_pattern_raises():
    with pytest.raises(ValueError):
        run_suite("no-such-check-*")


def test_full_ring_reports_carry_witnesses():
    r = run_suite("k-tasep-full-ring", overrides={"k-tasep-full-ring": {"max_N": 3}})[0]
    assert r.severity == CONJECTURE
    assert r.status == MISMATCH
    assert r.witnesses and all("N" in w for w in r.witnesses)
    r = run_suite("rs-full-ring", overrides={"rs-full-ring": {"max_n": 2}})[0]
    assert r.status == MISMATCH and r.witnesses


def test_cache_hit_and_audit(tmp_path, monkeypatch):
    fresh = run_suite("rs-figure", cache_dir=str(tmp_path))[0]
    assert not fresh.cached
    hit = run_suite("rs-figure", cache_dir=str(tmp_path))[0]
    assert hit.cached and hit.status == fresh.status
    # an audit draw in the 5% window forces a recomputation of the cached
    # check; results must agree
    monkeypatch.setattr(verify.random, "Random", lambda seed: types.SimpleNamespace(random=lambda: 0.0))
    audited = run_suite("rs-figure", cache_dir=str(tmp_path))[0]
    assert audited.cached and audited.status == fresh.status
    # a cached status that the recomputation contradicts is refused
    (entry,) = tmp_path.iterdir()
    entry.write_text(entry.read_text().replace(PROVED_MATCH, MISMATCH))
    with pytest.raises(RuntimeError, match="cache audit failed for rs-figure: proved-match != mismatch"):
        run_suite("rs-figure", cache_dir=str(tmp_path))


def test_cache_is_keyed_on_the_sources(tmp_path, monkeypatch):
    monkeypatch.setattr(verify, "_source_hash", lambda: "a" * 64)
    assert not run_suite("rs-figure", cache_dir=str(tmp_path))[0].cached
    assert run_suite("rs-figure", cache_dir=str(tmp_path))[0].cached
    # an edited source tree must not be served the old report
    monkeypatch.setattr(verify, "_source_hash", lambda: "b" * 64)
    assert not run_suite("rs-figure", cache_dir=str(tmp_path))[0].cached


def test_cache_is_not_keyed_on_jobs(tmp_path):
    # the samples do not depend on jobs, so one report serves every pool size
    def run(jobs):
        overrides = {"corr-mc-n6": {"samples": 2_000, "jobs": jobs}}
        return run_suite("corr-mc-n6", overrides=overrides, cache_dir=str(tmp_path))[0]

    assert not run(1).cached
    hit = run(3)
    assert hit.cached and hit.params["jobs"] == 3


def test_report_json_shape():
    r = run_suite("queue-figures")[0]
    d = r.to_json_dict()
    assert d["check"] == "queue-figures"
    assert d["status"] == "proved-match"
    assert set(d) == {"check", "severity", "status", "params", "witnesses", "detail", "runtime", "cached"}


# Reports of every check at registry defaults, except conj-corr-n5 and
# the 10^7 Monte Carlo samples of corr-mc-n6; prop43-adjacency stops at
# n = 4.  The n = 5 density checks build the n = 5 census, about a second.
GOLDEN_SKIP = {"corr-mc-n6", "conj-corr-n5"}
GOLDEN_OVERRIDES = {"prop43-adjacency": {"max_exact_n": 4}}

# SHA-256 of json.dumps(report.to_json_dict() without runtime and cached,
# sort_keys=True), recorded before the checks were reduced to witnesses
GOLDEN = {
    "fm-m11": "075f0ce69087db45cd275ba57b57985c1e1358c7f91cad23af172868b31ab21f",
    "fm-m21": "41ca6399c442f02491ba590549a8bff1d0233a44a5fac1b4f0829291e7e54fa3",
    "fm-m111": "29bcf1aaf4766863c0d2d66ecfdd959c74d29784c865308770c6da5532476010",
    "fm-m1111": "5dfbe8713acf3d417c4bd04f80e77455a05f8a2e1e1ecdc53e19173ccca047e2",
    "reverse-count": "5cd22bb883c4e16b44660bf81c473bd86ea472cf1fdfedbd839e4b6f467922a7",
    "reverse-det-product": "cb06cb3ad540b76d8c485f3d2b61324d59c45fd563540b1c66535a9c569eef06",
    "swap-count-k1": "0e27942502c7814dac4bbc7ced4c94111d91b9858a305da8ee4c422ba5c23610",
    "swap-count-k2": "d3a3e0f50d31fd1267903a973395bbaa71c030343c57ab9570818cde47a2288c",
    "conj-swap-k3": "0e7c05c4169e775dab9b4633f67d8cb6e88b6a717644cb3850cb6c9bf182d867",
    "conj-multi-swap": "bc523777e1b4630354f902fb3290c69b0560b25975ae4e2b5c1a96b31906f3b1",
    "lgv-oracle": "f8bc48a9bbd2d13c7b85a0810c7eb1a0bf50a109cbd6f216a43040435dedb709",
    "reverse-probability": "3e792c42207b449fab6bcb4bc220dd7b2ec5460e83277dadc28fd59fe9b5063f",
    "interlacing-count": "194f1d8d0f02fdd2fc802b39d545ddf0e7c30bc403b9690152b3a74183bf31a8",
    "reverse-density": "e2c9a1e29dc4d8a34cdabd29bd7f7d32cc33a5c4240117560160b840489e4403",
    "reverse-density-n5": "dfaf75e0d88acdf5a80f63db12c3b33019ed144c777bb510e704cceef5f1c563",
    "operator-identities": "11880f34fbe7c0498e0260c1205d0130a0046c81aa5bb25af4a1e4b2d6295067",
    "conj-operator-family": "943ab31d84c909d1647e074477b7e16e1df057ee3a66c2cca388ed09cc4a82de",
    "conj-operator-family-n5": "7873a91a08af01aab9fdcc1881eaaa2c6ce542ac4b4cd587e3306d46da9bef9d",
    "laplace-n4": "9263198375e87c8acd87831aeb16f5871a17ff1427f102db6a34392c6eaa1e71",
    "laplace-n5": "cb34e29612aeeb5f4710b0bce58486523d05c777a2de1e358d7a69f3fc39d563",
    "conj-leading-part": "ec04054265c659c442e7486b69a0a657fab3047fb5de885f8d697326d02a5b7b",
    "conj-leading-part-n5": "df956a3e06dbab1105c5046fce6b16a4a100f41cb67082433a714aa3735dd77b",
    "density-consistency": "61685c3a36b29b22135a259151abd5650b40ee31c19759fb250207f460c8dcbc",
    "density-consistency-n5": "e67653bba69ceb64fac2e7381290c78c543ca4ea822693dfa59e731f33e045e0",
    "prop43-adjacency": "84d8f5e2a31cbb4349d0ec619c72730268eae68040512ea63712ce51e2abc15d",
    "conj-corr-n2": "9d52919f06437c26eb91fef33ac995322833b091146be40ebe25387bd2ed854b",
    "conj-corr-n3": "3b3935ee2ae35cabdcd764b0e55a9ce1989d15bc7d26dba605cda49df48aa6a7",
    "conj-corr-n4": "bfa8a56a7ddbe9d6cfb28f61db399205844120a979f5d770b05b10ff6ec5c0b3",
    "corr-table-n6": "2683b5d98aab3436e86d69fa13fb9c51a289bbd80b5ad9c6732f34f1200f1890",
    "initial-prefix": "b67447e0ed6eb26b4fc9734316a8e12759a5d8fdc695adaa93ef16becb451ce3",
    "prefix-reverse-duality": "b3ab6b73adc5590bea7f858cc6778a3976ce5448662827ac023e4bc237e25f0f",
    "fw-routes": "9fb5e553483675a2e5ce4adaac37e2834791d2f83b8e898d8ae56bae4bee85e7",
    "ssyt-bijection": "97e9a0f321b38ba46ff8cb349bd62821285c2cb171e457ca15fff9d89a6e39ac",
    "hook-jt-brute": "5db8d3537b553057b03ece8aedf36e119887995d40a45f9653d9548c6c883a8d",
    "row-addition": "f9b28bfd1ba2f7895c551bd8d935e3649efd5fcbceb377c51bf34b0bc0609cf4",
    "last-row-invariance": "e7ac1e591124b899dc1615e57b3a6c5984a7e1f6f84021d5928fe698b251a2d8",
    "k-tasep-invariance": "185ff016c30f4a52b1e19b1407147bc0b0b910815c05e7e9e8988ab58fbe1b50",
    "k-tasep-full-ring": "8b6378183ae05c4e6c973de2418025a381f11f95773535db6cca941f62737ef7",
    "rs-relations": "e5b784ba338ece568ed434ad4564e219904983466185d7bac6f18e1c1c5f08c1",
    "rs-figure": "ab4ac8d62fc5cb03f8c87bd4312b5d0c0d251a1dfd9fe71c2bb5f0011c28c32d",
    "rs-k-independence": "09910caf9b7ef8fdd0e2681e2e74fffb6227fd8adfdf0620e566b545f72d6d1b",
    "rs-full-ring": "c13ad8e6bd127a4fee0aa0d481c7df4cbcac9a35b144b99c635e6c56ef6c4781",
    "extreme-states": "7166a8ede2f899712495a7ffc8377630f0a6e6d1d1929855044f7c676220c894",
    "rs-sum-rule": "8131148797999bdfdc4246ec3cf2da178eb7c542ea34212958ede9f22174389a",
    "queue-figures": "1159cd7e1615d3ed05c7b377422f326caccb25969fa4f76d5cf1fea4a8edbf10",
}


@pytest.fixture(scope="module")
def cheap_reports():
    return [run_suite(cid, overrides=GOLDEN_OVERRIDES)[0] for cid in CHECKS if cid not in GOLDEN_SKIP]


def test_reports_match_golden_digests(cheap_reports):
    digests = {}
    for r in cheap_reports:
        d = r.to_json_dict()
        del d["runtime"], d["cached"]
        digests[r.check_id] = hashlib.sha256(json.dumps(d, sort_keys=True).encode()).hexdigest()
    assert digests == GOLDEN


def test_status_follows_registry_severity(cheap_reports):
    match = {THEOREM: PROVED_MATCH, CONJECTURE: CONJECTURE_MATCH}
    for r in cheap_reports:
        assert r.severity == CHECKS[r.check_id][0]
        assert r.status in (match[r.severity], MISMATCH, SKIPPED), r.check_id
    # swap-count-k1 is a theorem in the registry, whatever its k
    r = run_suite("swap-count-k1", overrides={"swap-count-k1": {"k": 3}})[0]
    assert (r.severity, r.status) == (THEOREM, PROVED_MATCH)


def test_reverse_det_product_reports_route_disagreement(monkeypatch):
    real = verify.count_bottom_reverse

    def disagree_at_02(b):
        if tuple(b) == (0, 2):
            raise RuntimeError("determinant/product routes disagree: 1 vs 2")
        return real(b)

    monkeypatch.setattr(verify, "count_bottom_reverse", disagree_at_02)
    r = run_suite("reverse-det-product", overrides={"reverse-det-product": {"max_n": 2, "max_N": 3}})[0]
    assert (r.severity, r.status) == (THEOREM, MISMATCH)
    assert r.witnesses == [{"n": 2, "N": 3, "b": [0, 2], "error": "determinant/product routes disagree: 1 vs 2"}]
    assert suite_exit_code([r]) == 2


def test_tableau_checks_report_route_disagreement(monkeypatch, cold_memos):
    # a Jacobi-Trudi determinant off by one makes the routes refuse; each
    # case is a witness and the run goes on
    det = tableaux.det_fraction_free
    monkeypatch.setattr(tableaux, "det_fraction_free", lambda rows: det(rows) + 1)
    r = run_suite("hook-jt-brute", overrides={"hook-jt-brute": {"max_t": 1}})[0]
    assert (r.severity, r.status) == (THEOREM, MISMATCH)
    assert r.witnesses[0] == {"shape": [1], "t": 0, "error": "tableau-count routes disagree: det 1, det 1, hook-content 0"}
    assert len(r.witnesses) == 5
    assert suite_exit_code([r]) == 2


@pytest.mark.parametrize("cid", ["fw-routes", "ssyt-bijection"])
def test_descending_start_checks_report_route_disagreement(monkeypatch, cold_memos, cid):
    # the tableau route of descending_start_count off by one
    real = tableaux._hook_content
    monkeypatch.setattr(tableaux, "_hook_content", lambda lam, t: real(lam, t) + 1)
    r = run_suite(cid, overrides={cid: {"max_N": 3}})[0]
    assert (r.severity, r.status) == (THEOREM, MISMATCH)
    assert r.witnesses[0] == {"m": [1, 1], "N": 2, "error": "count routes disagree: 1 vs 2"}
    assert suite_exit_code([r]) == 2


def test_bijection_sweep_keeps_the_rows_of_the_labelling_filter():
    # the claim-step filter keeps exactly the queues that labelling each
    # one keeps: no wrap, bottom word starting n, n-1, ..., 2
    kept = 0
    for N, m in verify._compositions(6, (2, 3)):
        t = TypeVector(m, N)
        prefix = tuple(range(t.n, 1, -1))
        labelled = [label_mlq(q) for q in enumerate_mlqs(t)]
        expected = [l.base.rows for l in labelled if tuple(l.labels[-1][: t.n - 1]) == prefix and not l.wrapped]
        assert list(verify._descending_rows(t)) == expected, (m, N)
        kept += len(expected)
    assert kept == 201


def test_k_invariance_reports_a_refused_k_chain(monkeypatch):
    # the 2-subset chain mirrored: its particles jump left, so the census
    # is refused on it, and the check reports that as a witness
    real_table, real_moves = markov._bell_table, markov._subset_moves
    listed = []  # the words each bell table is built on

    def table_of(states):
        listed.append(states)
        return real_table(states)

    def mirrored(table, k):
        succ = real_moves(table, k)
        if k != 2:
            return succ
        states = listed[-1]
        index = {w: i for i, w in enumerate(states)}
        mirror = [index[w[::-1]] for w in states]  # the mirror image of each word, on positions
        return [[mirror[j] for j in succ[mirror[i]]] for i in range(len(states))]

    monkeypatch.setattr(markov, "_bell_table", table_of)
    monkeypatch.setattr(markov, "_subset_moves", mirrored)
    r = run_suite("k-tasep-invariance", overrides={"k-tasep-invariance": {"max_N": 3}})[0]
    error = "stationarity verification failed on the full chain"
    assert (r.severity, r.status) == (THEOREM, MISMATCH)
    assert r.witnesses == [{"n": n, "N": 3, "k": 2, "error": error} for n in (2, 3)]
    assert suite_exit_code([r]) == 2


def test_k_invariance_reports_a_refused_census(monkeypatch):
    # one census serves every k-chain of an (n, N), so a census refused on
    # the TASEP is a witness for each k
    real = markov.bottom_word_counts

    def bumped(t):
        census = dict(real(t))
        census[min(census)] += 1
        return census

    monkeypatch.setattr(markov, "bottom_word_counts", bumped)
    r = run_suite("k-tasep-invariance", overrides={"k-tasep-invariance": {"max_N": 3}})[0]
    assert (r.severity, r.status) == (THEOREM, MISMATCH)
    assert [(w["n"], w["N"], w["k"]) for w in r.witnesses] == [(1, 2, 1), (2, 2, 1), (1, 3, 1), (1, 3, 2), (2, 3, 1)]
    assert all(w["error"].startswith("census of ") for w in r.witnesses)


def test_census_checks_report_their_witnesses(monkeypatch):
    swap, multi = verify.count_bottom_reverse_swap, verify.count_bottom_reverse_multi_swap
    monkeypatch.setattr(verify, "count_bottom_reverse_swap", lambda k, b, N: swap(k, b, N) + 1)
    monkeypatch.setattr(verify, "count_bottom_reverse_multi_swap", lambda kvec, b, N: multi(kvec, b, N) + 1)
    r = run_suite("swap-count-k1", overrides={"swap-count-k1": {"max_n": 2, "max_N": 2}})[0]
    assert (r.status, r.witnesses) == (MISMATCH, [{"n": 2, "N": 2, "b": [0, 1]}])
    # the multi-swap witness keeps the formula's value as printed, before the sign is restored
    r = run_suite("conj-multi-swap", overrides={"conj-multi-swap": {"kvec": (3,), "max_N": 4}})[0]
    printed = multi((3,), (0, 1, 2, 3), 4) + 1
    assert (r.status, r.witnesses) == (MISMATCH, [{"N": 4, "b": [0, 1, 2, 3], "formula": printed}])


def test_density_checks_never_expand_in_q(monkeypatch):
    # the density checks work on the gap forms; a fallback to the q
    # expansion would raise here instead of quietly costing the old time
    def refuse(forms):
        raise AssertionError("a density check expanded a density in q")

    monkeypatch.setattr(continuum, "_in_q", refuse)
    expected = {
        "reverse-density": PROVED_MATCH,
        "operator-identities": PROVED_MATCH,
        "conj-operator-family": CONJECTURE_MATCH,
        "laplace-n4": PROVED_MATCH,
        "laplace-n5": SKIPPED,
        "conj-leading-part": CONJECTURE_MATCH,
        "density-consistency": PROVED_MATCH,
    }
    assert {cid: run_suite(cid)[0].status for cid in expected} == expected


def test_benchmarked_checks_give_their_recorded_statuses():
    # the checks of the verify-exact benchmark workload, at its parameters,
    # give the statuses recorded in its references
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    verify._tasep.cache_clear()  # solve every base chain here, not in an earlier test
    verify._rs.cache_clear()
    statuses = {cid: run_suite(cid, overrides={cid: params})[0].status for cid, params in workloads.VERIFY_PARAMS.items()}
    assert statuses == {cid: status for cid, status in workloads.load_refs()["verify_status"].items() if cid in statuses}


def test_rs_sum_rule_reaches_n8():
    r = run_suite("rs-sum-rule", overrides={"rs-sum-rule": {"max_n": 8}})[0]
    assert (r.severity, r.status) == (THEOREM, PROVED_MATCH)
    assert [verify._asm_count(n) for n in range(9)] == [1, 1, 2, 7, 42, 429, 7436, 218348, 10850216]


def test_rs_sum_rule_reports_each_broken_entry(monkeypatch):
    real = verify._rs

    def skewed(n, k):
        # one of the three most-nested-class patterns at n = 3 gets 3/2 of its mass
        dist = dict(real(n, k))
        if n < 3:
            return dist
        low = min(dist.values())
        L = next(L for L, p in dist.items() if p == low and L != verify._most_nested(n))
        dist[L] = low * Fraction(3, 2)
        return dist

    monkeypatch.setattr(verify, "_rs", skewed)
    r = run_suite("rs-sum-rule", overrides={"rs-sum-rule": {"max_n": 3}})
    assert (r[0].status, r[0].witnesses) == (MISMATCH, [
        {"n": 3, "entry": "integral", "got": "False", "expected": "True"},
        {"n": 3, "entry": "sum", "got": "15/2", "expected": "7"},
    ])
    assert suite_exit_code(r) == 2


def test_base_solves_are_shared_read_only():
    t = verify.TypeVector((1, 1), 4)
    assert verify._tasep(t) is verify._tasep(t)
    assert verify._rs(3, 1) is verify._rs(3, 1)
    with pytest.raises(TypeError):
        verify._rs(3, 1)[next(iter(verify._rs(3, 1)))] = 0


def test_rs_relations_read_the_generator_tables(monkeypatch):
    # the relations are checked on rs._tables' integer e_i rows; no pattern
    # is built per relation, and a broken row is reported as witnesses
    def refuse(L, i):
        raise AssertionError("rs-relations built a pattern through apply_generator")

    monkeypatch.setattr(verify, "apply_generator", refuse)
    r = run_suite("rs-relations")[0]
    assert (r.severity, r.status, r.witnesses) == (THEOREM, PROVED_MATCH, [])
    real = verify._tables

    def e1_is_identity(n):
        patterns, gen, rot = real(n)
        return patterns, [list(range(len(patterns)))] + gen[1:], rot

    monkeypatch.setattr(verify, "_tables", e1_is_identity)
    r = run_suite("rs-relations", overrides={"rs-relations": {"max_n": 2}})[0]
    # at n = 1 the one pattern is fixed by every e_i, so only n = 2 breaks
    assert (r.status, r.witnesses) == (MISMATCH, [{"n": 2, "rel": "A+", "i": 1}, {"n": 2, "rel": "A-", "i": 1}])
