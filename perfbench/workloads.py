"""The benchmark's workloads: their ops, inputs and oracles.

An op names a public library function by module and attribute and looks
it up when it runs, so the traced round calls the wrapped function.  Each
op has an oracle that turns its result into (ok, message); an op fails if
it raises or if its oracle says no.
"""

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

REFS = Path(__file__).resolve().parent / "refs.json"

# Parameters of every timed check, pinned to the registry defaults of the
# commit the references were recorded at, so that later registry edits do
# not change the work.  Left out: corr-mc-n6 (10^7 samples; the sampler is
# the mc-sampler workload) and conj-corr-n5, and prop43-adjacency stops at
# n = 4.  Both of those need the n = 5 continuum census, one call of about
# 47 s, which does not fit in one run of the benchmark (see README.md).
VERIFY_PARAMS = {
    "fm-m11": {"m": (1, 1), "max_N": 6},
    "fm-m21": {"m": (2, 1), "max_N": 6},
    "fm-m111": {"m": (1, 1, 1), "max_N": 6},
    "fm-m1111": {"m": (1, 1, 1, 1), "max_N": 6},
    "reverse-count": {"max_n": 4, "max_N": 8},
    "reverse-det-product": {"max_n": 4, "max_N": 10},
    "swap-count-k1": {"k": 1, "max_n": 4, "max_N": 7},
    "swap-count-k2": {"k": 2, "max_n": 4, "max_N": 7},
    "conj-swap-k3": {"k": 3, "max_n": 5, "max_N": 7},
    "conj-multi-swap": {"kvec": (3, 1), "n": 4, "max_N": 7},
    "lgv-oracle": {},
    "reverse-probability": {"max_n": 4},
    "interlacing-count": {"max_n": 4},
    "reverse-density": {"max_n": 4},
    "operator-identities": {},
    "conj-operator-family": {"n": 4},
    "laplace-n4": {"n": 4},
    "laplace-n5": {"n": 5, "expected_harmonic": 15, "enable_slow": False},
    "conj-leading-part": {"n": 4},
    "density-consistency": {"max_n": 4},
    "prop43-adjacency": {"max_exact_n": 4, "max_formula_n": 10},
    "conj-corr-n2": {"n": 2},
    "conj-corr-n3": {"n": 3},
    "conj-corr-n4": {"n": 4},
    "corr-table-n6": {},
    "initial-prefix": {"max_N": 6, "max_len": 3},
    "prefix-reverse-duality": {"max_N": 6},
    "fw-routes": {"max_N": 7},
    "ssyt-bijection": {"max_N": 6},
    "hook-jt-brute": {"max_t": 5},
    "row-addition": {"max_N": 8},
    "last-row-invariance": {"cases": [((1, 1), 4), ((1, 1), 5), ((1, 1, 1), 5)]},
    "k-tasep-invariance": {"max_N": 5},
    "k-tasep-full-ring": {"max_N": 5},
    "rs-relations": {"max_n": 4},
    "rs-figure": {},
    "rs-k-independence": {"max_n": 4},
    "rs-full-ring": {"max_n": 4},
    "extreme-states": {"max_n": 4},
    "queue-figures": {},
}

# A quarter of the sample counts of a first design (5e5, 3e5, 1e6): one
# round then takes about 5 s, so a run fits several rounds and reports
# their median, which a single 20-s round on a shared machine cannot.
ADJ_N, ADJ_SAMPLES = 6, 125_000
PDIST_N, PDIST_SAMPLES = 5, 75_000
CHAIN_M, CHAIN_N, CHAIN_BURN, CHAIN_SAMPLES = (1, 1, 1), 5, 1_000, 250_000
SIGMAS = 5


@dataclass
class Op:
    name: str
    module: str
    func: str
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)
    oracle: object = None  # result -> (ok, message)

    def run(self, lib):
        return getattr(getattr(lib, self.module), self.func)(*self.args, **self.kwargs)


def load_refs():
    with open(REFS) as fh:
        return json.load(fh)


def derive_seed(seed, name):
    """Per-op seed: the workload seed and the op name, hashed."""
    return int.from_bytes(hashlib.sha256(f"{seed}:{name}".encode()).digest()[:8], "big")


# --- oracles ----------------------------------------------------------------


def canonical_text(dist):
    """One line per state, sorted: the state, a tab, the probability p/q.

    A state is a word (tuple of site labels) or a linking pattern (its
    sorted pairs)."""
    lines = []
    for state, p in dist.items():
        pairs = getattr(state, "pairs", None)
        key = " ".join(f"{a}-{b}" for a, b in pairs) if pairs is not None else ",".join(map(str, state))
        p = Fraction(p)
        lines.append(f"{key}\t{p.numerator}/{p.denominator}")
    return "\n".join(sorted(lines)) + "\n"


def digest(dist):
    return hashlib.sha256(canonical_text(dist).encode()).hexdigest()


def status_oracle(expected):
    def check(reports):
        got = [r.status for r in reports]
        if got == [expected]:
            return True, ""
        return False, f"status {got}, expected {expected}"

    return check


def digest_oracle(expected):
    def check(dist):
        got = digest(dist)
        return got == expected, "" if got == expected else f"sha256 {got[:12]}, expected {expected[:12]}"

    return check


def within_sigmas(estimates, exact, samples, key):
    """Every exact entry is estimated within SIGMAS standard errors that
    are computed from the exact probability; nothing outside the support
    is sampled.  estimates: {state: {key: frequency}}."""
    extra = set(estimates) - set(exact)
    if extra:
        return False, f"{len(extra)} sampled states outside the exact support"
    worst, where = 0.0, None
    for state, p in exact.items():
        p = float(p)
        est = estimates[state][key] if state in estimates else 0.0
        z = abs(est - p) / math.sqrt(p * (1 - p) / samples)
        if z > worst:
            worst, where = z, state
    if worst > SIGMAS:
        return False, f"entry {where} off by {worst:.2f} standard errors"
    return True, ""


def tv_oracle(exact, threshold):
    def check(out):
        states = set(out) | set(exact)
        tv = sum(abs(out.get(s, {"freq": 0.0})["freq"] - float(exact.get(s, 0))) for s in states) / 2
        return tv <= threshold, "" if tv <= threshold else f"total variation {tv:.5f} above {threshold}"

    return check


def parse_dist(table):
    """{"3,1,2": "p/q"} -> {(3, 1, 2): Fraction}."""
    return {tuple(int(x) for x in k.split(",")): Fraction(v) for k, v in table.items()}


# --- workloads ----------------------------------------------------------------


def verify_exact(lib, refs, seed):
    # Registry order matters (later checks reuse censuses that earlier ones
    # memoised), so the seed changes nothing here.
    statuses = refs["verify_status"]
    return [
        Op(
            f"check:{cid}",
            "verify",
            "run_suite",
            (cid,),
            {"overrides": {cid: params}},
            status_oracle(statuses[cid]),
        )
        for cid, params in VERIFY_PARAMS.items()
    ]


def stationary_ops(lib):
    TypeVector = lib.core.TypeVector
    return [
        Op("tasep-11111-N7", "markov", "tasep_stationary", (TypeVector((1, 1, 1, 1, 1), 7),)),
        Op("tasep-2111-N7", "markov", "tasep_stationary", (TypeVector((2, 1, 1, 1), 7),)),
        Op("k2-tasep-1111-N7", "markov", "k_tasep_stationary", (TypeVector((1, 1, 1, 1), 7),), {"k": 2}),
        Op("rs-n6-k2", "rs", "rs_stationary", (6, 2)),
    ]


def stationary(lib, refs, seed):
    sha = refs["stationary_sha256"]
    ops = stationary_ops(lib)
    for op in ops:
        op.oracle = digest_oracle(sha[op.name])
    # The solves share no state, so the seed only fixes their order.
    random.Random(seed).shuffle(ops)
    return ops


def mc_sampler(lib, refs, seed):
    TypeVector = lib.core.TypeVector
    adjacency_conjecture = lib.continuum.adjacency_conjecture
    adj_exact = {
        (i, j): adjacency_conjecture(i, j, ADJ_N)
        for i in range(1, ADJ_N + 1)
        for j in range(1, ADJ_N + 1)
        if i != j
    }
    pdist = parse_dist(refs["permutation_distribution_5"])
    chain = parse_dist(refs["tasep_stationary_111_N5"])
    tv = refs["mc_stationary_tv"]["threshold"]
    return [
        Op(
            "adjacency-mc-n6",
            "continuum",
            "adjacency_mc",
            (ADJ_N, ADJ_SAMPLES, derive_seed(seed, "adjacency-mc-n6")),
            {"jobs": 1},
            lambda out: within_sigmas(out["entries"], adj_exact, ADJ_SAMPLES, "estimate"),
        ),
        Op(
            "pdist-mc-n5",
            "continuum",
            "permutation_distribution_mc",
            (PDIST_N, PDIST_SAMPLES, derive_seed(seed, "pdist-mc-n5")),
            {"jobs": 1},
            lambda out: within_sigmas(out["words"], pdist, PDIST_SAMPLES, "freq"),
        ),
        Op(
            "mc-stationary-111-N5",
            "markov",
            "mc_stationary",
            (TypeVector(CHAIN_M, CHAIN_N), CHAIN_BURN, CHAIN_SAMPLES, derive_seed(seed, "mc-stationary-111-N5")),
            {},
            tv_oracle(chain, tv),
        ),
    ]


WORKLOADS = {"verify-exact": verify_exact, "stationary": stationary, "mc-sampler": mc_sampler}
