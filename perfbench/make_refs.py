"""Record the benchmark's references in perfbench/refs.json.

    PYTHONPATH=src python3 perfbench/make_refs.py

Run from the root of a checkout whose library is trusted; it takes a few
minutes (the exact n = 5 permutation distribution alone takes about 47 s).
Recorded: the status of every timed verify check, the SHA-256 of each
exact stationary solve, the exact n = 5 continuum permutation
distribution, the exact stationary distribution that mc_stationary is
checked against, and the total-variation threshold for that check, set
from a sweep over seeds.  The benchmark's self-test derives the exact
references again by independent routes.
"""

import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import ringtasep  # noqa: E402
import workloads  # noqa: E402
from ringtasep import continuum, markov, verify  # noqa: E402
from ringtasep.core import TypeVector  # noqa: E402

TV_SWEEP_SEEDS = range(20)
TV_MARGIN = 2  # threshold = margin x the largest distance in the sweep


def rat_table(dist):
    return {",".join(map(str, k)): f"{v.numerator}/{v.denominator}" for k, v in sorted(dist.items())}


def main():
    refs = {}
    refs["verify_status"] = {
        cid: verify.run_suite(cid, overrides={cid: params})[0].status
        for cid, params in workloads.VERIFY_PARAMS.items()
    }
    refs["stationary_sha256"] = {
        op.name: workloads.digest(op.run(ringtasep)) for op in workloads.stationary_ops(ringtasep)
    }
    refs["permutation_distribution_5"] = rat_table(continuum.permutation_distribution(workloads.PDIST_N))
    t = TypeVector(workloads.CHAIN_M, workloads.CHAIN_N)
    exact = markov.tasep_stationary(t)
    refs["tasep_stationary_111_N5"] = rat_table(exact)
    sweep = []
    for seed in TV_SWEEP_SEEDS:
        out = markov.mc_stationary(t, workloads.CHAIN_BURN, workloads.CHAIN_SAMPLES, workloads.derive_seed(seed, "tv"))
        sweep.append(sum(abs(out.get(s, {"freq": 0.0})["freq"] - float(p)) for s, p in exact.items()) / 2)
    refs["mc_stationary_tv"] = {
        "samples": workloads.CHAIN_SAMPLES,
        "sweep_seeds": len(sweep),
        "sweep_median": statistics.median(sweep),
        "sweep_max": max(sweep),
        "threshold": round(TV_MARGIN * max(sweep), 4),
    }
    with open(workloads.REFS, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(json.dumps({k: v for k, v in refs.items() if k in ("verify_status", "mc_stationary_tv")}, indent=1))


if __name__ == "__main__":
    main()
