import random

import pytest

from ringtasep import verify
from ringtasep.verify import (
    CHECKS,
    CONJECTURE,
    MISMATCH,
    PROVED_MATCH,
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
