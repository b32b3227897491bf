"""Self-test of the benchmark.

    python3 -m pytest perfbench/tests        # about 70 s

Re-derives the stored references by independent routes, shows that a
perturbed result is a failed op, and checks the tracer: attribution of
self time, and a missing or renamed function reported as absent.
"""

import math
import sys
import textwrap
import time
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402
from worker import run_ops  # noqa: E402

import ringtasep  # noqa: E402
import ringtasep.verify  # noqa: E402
from ringtasep import continuum, count, markov, rs, verify  # noqa: E402
from ringtasep.core import TypeVector  # noqa: E402

REFS = workloads.load_refs()


def fm_distribution(t):
    """Ferrari-Martin: stationary probability = queue count / total."""
    Z = count.total_mlq_count(t)
    return {w: Fraction(c, Z) for w, c in count.bottom_word_counts(t).items()}


# --- references, by independent routes ----------------------------------------


def test_chain_reference_is_the_queue_count_distribution():
    t = TypeVector(workloads.CHAIN_M, workloads.CHAIN_N)
    assert workloads.parse_dist(REFS["tasep_stationary_111_N5"]) == fm_distribution(t)


@pytest.mark.parametrize(
    "op, route",
    [
        ("tasep-2111-N7", lambda: fm_distribution(TypeVector((2, 1, 1, 1), 7))),
        ("tasep-11111-N7", lambda: fm_distribution(TypeVector((1, 1, 1, 1, 1), 7))),
        # k-subset chains share the TASEP's stationary distribution for k < N
        ("k2-tasep-1111-N7", lambda: fm_distribution(TypeVector((1, 1, 1, 1), 7))),
        # the pattern chain's stationary distribution is k-independent, k < 2n
        ("rs-n6-k2", lambda: rs.rs_stationary(6, 1)),
    ],
)
def test_stationary_digests_by_another_route(op, route):
    assert workloads.digest(route()) == REFS["stationary_sha256"][op]


def test_permutation_reference_matches_the_census():
    stored = workloads.parse_dist(REFS["permutation_distribution_5"])
    assert sum(stored.values()) == 1
    assert stored[(5, 4, 3, 2, 1)] == continuum.reverse_probability_formula(5)
    assert stored == continuum.permutation_distribution(5)


def test_adjacency_truth_is_the_published_table():
    for (i, j), v in verify.TABLE_N6.items():
        assert continuum.adjacency_conjecture(i, j, 6) == Fraction(v)


def test_recorded_statuses():
    statuses = REFS["verify_status"]
    assert set(statuses) == set(workloads.VERIFY_PARAMS)
    assert set(workloads.VERIFY_PARAMS) <= set(verify.CHECKS)
    odd = {cid: s for cid, s in statuses.items() if not s.endswith("-match")}
    assert odd == {"k-tasep-full-ring": "mismatch", "rs-full-ring": "mismatch", "laplace-n5": "skipped"}


def test_tv_threshold_covers_its_sweep():
    tv = REFS["mc_stationary_tv"]
    assert tv["sweep_max"] < tv["threshold"] < 0.05


def test_nominal_counts():
    assert layers.sweep_work(range(1, 5), 8) == (878_080, 890_856)
    assert layers.sweep_work(range(1, 6), 7)[0] == 3_781_575
    assert layers.rep_census_work(5)[0] == 2_522_520
    for n in range(1, 7):
        assert layers.rep_census_work(n)[0] * math.comb(n + 1, 2) == continuum.arrangement_count(n)
    assert layers.state_count((2, 1, 1, 1), 7) == markov.state_count(TypeVector((2, 1, 1, 1), 7))


# --- oracles --------------------------------------------------------------------


class Perturbed(workloads.Op):
    """An op whose result is altered before its oracle sees it."""

    def __init__(self, op, change):
        super().__init__(op.name, op.module, op.func, op.args, op.kwargs, op.oracle)
        self.change = change

    def run(self, lib):
        return self.change(super().run(lib))


def _bump_one(dist):
    dist = dict(dist)
    first = min(dist)
    dist[first] += Fraction(1, 10**9)
    return dist


def test_perturbed_results_fail():
    small = workloads.Op("tasep-111-N5", "markov", "tasep_stationary", (TypeVector((1, 1, 1), 5),))
    small.oracle = workloads.digest_oracle(workloads.digest(fm_distribution(TypeVector((1, 1, 1), 5))))
    check = workloads.Op("check:rs-figure", "verify", "run_suite", ("rs-figure",), {}, workloads.status_oracle("mismatch"))
    boom = workloads.Op("raises", "markov", "k_tasep_stationary", (TypeVector((1, 1), 3), 9), {}, small.oracle)
    results = run_ops(ringtasep, [small, Perturbed(small, _bump_one), check, boom])
    assert [r["ok"] for r in results] == [True, False, False, False]
    assert "ValueError" in results[3]["error"]


def test_sampler_oracles_reject_a_shift():
    exact = workloads.parse_dist(REFS["permutation_distribution_5"])
    n = workloads.PDIST_SAMPLES
    good = {w: {"freq": float(p)} for w, p in exact.items()}
    assert workloads.within_sigmas(good, exact, n, "freq")[0]
    w = max(exact, key=exact.get)
    p = float(exact[w])
    shifted = dict(good)
    shifted[w] = {"freq": p + 6 * math.sqrt(p * (1 - p) / n)}
    assert not workloads.within_sigmas(shifted, exact, n, "freq")[0]
    outside = dict(good)
    outside[(1, 1, 1, 1, 1)] = {"freq": 0.0}
    assert not workloads.within_sigmas(outside, exact, n, "freq")[0]

    chain = workloads.parse_dist(REFS["tasep_stationary_111_N5"])
    tv = workloads.tv_oracle(chain, REFS["mc_stationary_tv"]["threshold"])
    assert tv({s: {"freq": float(p)} for s, p in chain.items()})[0]
    lumped = {min(chain): {"freq": 1.0}}
    assert not tv(lumped)[0]


def test_mc_ops_pass_at_a_fresh_seed():
    ops = workloads.mc_sampler(ringtasep, REFS, 12345)
    small = [
        workloads.Op(op.name, op.module, op.func, op.args, op.kwargs, op.oracle)
        for op in ops
        if op.name == "mc-stationary-111-N5"
    ]
    assert [r["ok"] for r in run_ops(ringtasep, small)] == [True]


# --- tracer -----------------------------------------------------------------------


@pytest.fixture
def toy(tmp_path, monkeypatch):
    """A two-module package: b.outer calls a.inner through a from-import,
    and a.work calls a.inner through its own globals."""
    pkg = tmp_path / "toypkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "a.py").write_text(
        textwrap.dedent(
            """
            import time

            def inner(x):
                time.sleep(0.02)
                return x + 1

            def work(x):
                time.sleep(0.01)
                return inner(x)

            def _private(x):
                return inner(x)
            """
        )
    )
    (pkg / "b.py").write_text(
        textwrap.dedent(
            """
            import time
            from .a import inner

            def outer(x):
                time.sleep(0.01)
                return inner(x) * 2
            """
        )
    )
    monkeypatch.syspath_prepend(str(tmp_path))
    import importlib

    for name in ("toypkg.b", "toypkg.a", "toypkg"):
        sys.modules.pop(name, None)
    yield importlib.import_module("toypkg")
    for name in ("toypkg.b", "toypkg.a", "toypkg"):
        sys.modules.pop(name, None)


def test_tracer_wraps_every_binding_and_attributes_self_time(toy):
    import toypkg.a
    import toypkg.b

    seen = []
    tracer = Tracer(toy, watch={"toypkg.a.inner": lambda a: seen.append(a["x"]) or {"x": a["x"]}})
    assert tracer.install() == []

    def op():
        assert toypkg.b.outer(1) == 4
        assert toypkg.a.work(1) == 2
        assert toypkg.a._private(5) == 6

    t0 = time.perf_counter()
    tracer.root("bench.op", op)()
    wall = time.perf_counter() - t0
    tracer.uninstall()
    assert seen == [1, 1, 5]
    totals = tracer.layer_totals()
    assert totals["a"][0] == 4 and totals["b"][0] == 1
    assert totals["a"][1] == pytest.approx(0.07, abs=0.02)
    assert totals["b"][1] == pytest.approx(0.01, abs=0.01)
    assert sum(s for _, s in totals.values()) == pytest.approx(wall, rel=0.01)
    assert toypkg.b.inner is toypkg.a.inner  # the originals are back


def test_tracer_reports_missing_functions_as_absent(toy):
    watch = {
        "toypkg.a.renamed": lambda a: {},
        "toypkg.a.inner": lambda a: {"y": a["y"]},  # the argument was renamed
    }
    tracer = Tracer(toy, watch=watch)
    assert tracer.install() == ["toypkg.a.renamed"]
    import toypkg.a

    assert tracer.root("bench.op", toypkg.a.work)(1) == 2
    tracer.uninstall()
    assert tracer.watch_errors == ["toypkg.a.inner"]
    metrics = layers.per_layer(tracer, [("op", 0.03)])
    assert metrics["count.census.queues"] == (0, "count")
    assert metrics["markov.solve_s"] == (0, "s")


def test_library_has_every_watched_function():
    tracer = Tracer(ringtasep, watch=layers.WATCH)
    try:
        assert tracer.install() == []
        assert "ringtasep.cli" not in {n.rsplit(".", 1)[0] for n in tracer.names}
        assert {"core", "mlq", "markov", "count", "continuum", "poly", "tableaux", "rs", "verify"} <= set(
            tracer.layers
        )
    finally:
        tracer.uninstall()


def test_traced_round_counts_census_and_solve_work():
    tracer = Tracer(ringtasep, watch=layers.WATCH)
    tracer.install()
    try:
        ops = [
            workloads.Op("check:reverse-count", "verify", "run_suite", ("reverse-count",),
                         {"overrides": {"reverse-count": {"max_n": 3, "max_N": 5}}}, lambda r: (True, "")),
            workloads.Op("census", "continuum", "adjacency_exact", (3,), {}, lambda r: (True, "")),
            workloads.Op("again", "continuum", "permutation_distribution", (3,), {}, lambda r: (True, "")),
            workloads.Op("solve", "markov", "tasep_stationary", (TypeVector((1, 1, 1), 5),), {}, lambda r: (True, "")),
        ]
        results = run_ops(ringtasep, ops, tracer)
    finally:
        tracer.uninstall()
    m = layers.per_layer(tracer, [(r["op"], r["seconds"]) for r in results])
    queues = sum(layers.sweep_work(range(1, n + 1), N)[0] for n in range(2, 4) for N in range(n, 6))
    assert m["count.census.queues"][0] == queues
    assert m["continuum.census.reps"][0] == 10 and m["continuum.census.hits"][0] == 1
    assert m["markov.states"][0] == 60 and m["markov.classes"][0] == 12
    assert m["verify.check_s.reverse-count"][0] == results[0]["seconds"]
    attributed = sum(s for _, s in tracer.layer_totals().values())
    assert attributed == pytest.approx(sum(r["seconds"] for r in results), rel=0.01)
