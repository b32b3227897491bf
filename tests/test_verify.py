import hashlib
import json
import random

import pytest

from ringtasep import verify
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


def test_cache_hit_and_audit(tmp_path):
    fresh = run_suite("rs-figure", cache_dir=str(tmp_path))[0]
    assert not fresh.cached
    hit = run_suite("rs-figure", cache_dir=str(tmp_path))[0]
    assert hit.cached and hit.status == fresh.status
    # an audit seed whose first draw falls in the 5% window forces a
    # recomputation of the cached check; results must agree
    audit_seed = next(s for s in range(1000) if random.Random(s).random() < 0.05)
    audited = run_suite("rs-figure", cache_dir=str(tmp_path), audit_seed=audit_seed)[0]
    assert audited.cached and audited.status == fresh.status


def test_cache_is_keyed_on_the_sources(tmp_path, monkeypatch):
    monkeypatch.setattr(verify, "_source_hash", lambda: "a" * 64)
    assert not run_suite("rs-figure", cache_dir=str(tmp_path))[0].cached
    assert run_suite("rs-figure", cache_dir=str(tmp_path))[0].cached
    # an edited source tree must not be served the old report
    monkeypatch.setattr(verify, "_source_hash", lambda: "b" * 64)
    assert not run_suite("rs-figure", cache_dir=str(tmp_path))[0].cached


def test_report_json_shape():
    r = run_suite("queue-figures")[0]
    d = r.to_json_dict()
    assert d["check"] == "queue-figures"
    assert d["status"] == "proved-match"
    assert set(d) == {"check", "severity", "status", "params", "witnesses", "detail", "runtime", "cached"}


# Reports of every check at registry defaults, except the two that need
# the n = 5 continuum census or 10^7 Monte Carlo samples; prop43-adjacency
# stops at n = 4 for the same reason.  Together they take a few seconds.
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
    "operator-identities": "11880f34fbe7c0498e0260c1205d0130a0046c81aa5bb25af4a1e4b2d6295067",
    "conj-operator-family": "943ab31d84c909d1647e074477b7e16e1df057ee3a66c2cca388ed09cc4a82de",
    "laplace-n4": "9263198375e87c8acd87831aeb16f5871a17ff1427f102db6a34392c6eaa1e71",
    "laplace-n5": "cb34e29612aeeb5f4710b0bce58486523d05c777a2de1e358d7a69f3fc39d563",
    "conj-leading-part": "ec04054265c659c442e7486b69a0a657fab3047fb5de885f8d697326d02a5b7b",
    "density-consistency": "61685c3a36b29b22135a259151abd5650b40ee31c19759fb250207f460c8dcbc",
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
