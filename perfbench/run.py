"""ringtasep benchmark: times exact verification, exact stationary solves
and Monte Carlo sampling, each round in a fresh interpreter.

    python3 perfbench/run.py --workload verify-exact --seed 1 --seconds 35 --trace 0

Run from the root of a checkout; the library is imported from ./src.
With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics (wall_s, setup_s, peak_rss_mb); with --trace 1 it holds
the per-layer metrics of the first traced round, and the spans are written
to .perfbench/.  Exits non-zero, printing no result, if the library cannot be
imported or a worker misbehaves.  See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
SETUP_PROBES = 9
WORKER_TIMEOUT = 170  # seconds; a run must end within 180
ATTRIBUTION_TOLERANCE = 0.01  # layers' self time vs traced wall, as a share

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402


class WorkerError(RuntimeError):
    pass


def clean_env():
    """The caller's environment without RINGTASEP_* settings."""
    return {k: v for k, v in os.environ.items() if not k.startswith("RINGTASEP_")}


def run_worker(root, workload, seed, mode, deadline):
    """Spawn one worker; return (setup seconds, report or None)."""
    lines = []

    def read():
        for line in proc.stdout:
            lines.append((time.perf_counter(), line))

    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-I", str(WORKER), str(root), workload, str(seed), mode],
        stdout=subprocess.PIPE,
        env=clean_env(),
        cwd=root,
        text=True,
    )
    reader = threading.Thread(target=read)
    reader.start()
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        reader.join()
        proc.stdout.close()
    setup = next((t - t0 for t, line in lines if line == "READY\n"), None)
    report = next((json.loads(line[7:]) for _, line in lines if line.startswith("RESULT ")), None)
    if code != 0 or setup is None or (mode != "setup" and report is None):
        raise WorkerError(f"worker {mode} for {workload} exited with code {code}")
    return setup, report


def tally(reports):
    """(attempted, failed) over the reports' ops; failures go to stderr."""
    ops = [op for r in reports for op in r["ops"]]
    for op in ops:
        if not op["ok"]:
            print(f"FAILED {op['op']}: {op['error']}", file=sys.stderr)
    return len(ops), sum(not op["ok"] for op in ops)


def ops_wall(report):
    return sum(r["seconds"] for r in report["ops"])


def metric(value, unit):
    return {"value": value, "unit": unit}


def repeat_within(seconds, run_round):
    """Call run_round until another call would end after `seconds`; at
    least once.  Returns the results."""
    out = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        out.append(run_round())
        now = time.perf_counter()
        if (now - start) + (now - t0) > seconds:
            return out


def end_to_end(root, workload, seed, seconds, deadline):
    setups = [run_worker(root, workload, seed, "setup", deadline)[0] for _ in range(SETUP_PROBES)]
    spawns = repeat_within(seconds, lambda: run_worker(root, workload, seed, "ops", deadline))
    setups += [setup for setup, _ in spawns]
    rounds = [report for _, report in spawns]
    attempted, failed = tally(rounds)
    walls = [ops_wall(r) for r in rounds]
    print(
        f"{workload}: {len(rounds)} round(s), wall_s {[round(w, 3) for w in walls]}, "
        f"setup_s median of {len(setups)}"
    )
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "wall_s": metric(statistics.median(walls), "s"),
            "setup_s": metric(statistics.median(setups), "s"),
            "peak_rss_mb": metric(statistics.median(r["peak_rss_mb"] for r in rounds), "MB"),
        },
    }


def traced(root, workload, seed, seconds, deadline):
    """Untraced and traced rounds in pairs, as many pairs as fit in
    `seconds` (at least one).  The layer metrics come from the first
    traced round; the overhead compares the medians of the two kinds."""
    pairs = repeat_within(
        seconds,
        lambda: [run_worker(root, workload, seed, mode, deadline)[1] for mode in ("ops", "traced")],
    )
    plains, reps = [p for p, _ in pairs], [r for _, r in pairs]
    plain, rep = plains[0], reps[0]
    plain_wall, traced_wall = ops_wall(plain), ops_wall(rep)
    overhead = statistics.median(map(ops_wall, reps)) / statistics.median(map(ops_wall, plains)) - 1
    metrics = {name: metric(v, unit) for name, (v, unit) in rep["layers"].items()}
    cpu = sum(r["cpu_s"] for r in plain["ops"])
    metrics["proc.cpu_s"] = metric(cpu, "s")
    metrics["proc.wait_s"] = metric(plain_wall - cpu, "s")
    metrics["trace.overhead_share"] = metric(overhead, "share")

    attributed = sum(rep["self_s"].values())
    gap = abs(attributed - traced_wall) / traced_wall
    shares = {layer: secs / traced_wall for layer, secs in sorted(rep["self_s"].items()) if secs}
    print(f"{workload}: self-time shares of the traced wall {traced_wall:.3f} s: "
          + ", ".join(f"{k} {v:.3f}" for k, v in shares.items()))
    print(f"{workload}: attributed {attributed:.3f} s, gap {gap:.5f}; tracing overhead "
          f"{overhead:.3f} over {len(reps)} pair(s)")
    if rep["absent"]:
        print(f"{workload}: absent from the library: {', '.join(rep['absent'])}")
    ok_attribution = gap <= ATTRIBUTION_TOLERANCE
    if not ok_attribution:
        print(f"attribution gap {gap:.4f} above {ATTRIBUTION_TOLERANCE}", file=sys.stderr)
    attempted, failed = tally(plains + reps)
    return {
        "correct": failed == 0 and ok_attribution,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    root = Path.cwd()
    deadline = time.perf_counter() + WORKER_TIMEOUT
    try:
        if args.trace:
            out = traced(root, args.workload, args.seed, args.seconds, deadline)
        else:
            out = end_to_end(root, args.workload, args.seed, args.seconds, deadline)
    except (WorkerError, subprocess.TimeoutExpired) as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 2
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
