"""One round of a workload in a fresh interpreter.

Started by run.py as `python3 -I worker.py <root> <workload> <seed> <mode>`
with mode "setup" (set up, report ready, exit), "ops" (run the ops) or
"traced" (run the ops with every public library function wrapped).  It
imports the library from <root>/src only, loads inputs and references,
prints READY, runs each op and its oracle, and prints one RESULT line.
"""

import json
import resource
import sys
import time
from pathlib import Path


def run_ops(lib, ops, tracer=None):
    """Run each op, timed, then its oracle; an op fails if it raises or
    its oracle rejects the result.  The oracle is not timed."""
    results = []
    for op in ops:
        error = ""
        run = op.run if tracer is None else tracer.root(f"bench.{op.name}", op.run)
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            out = run(lib)
        except Exception as e:  # an op that raises is a failed op, not a crash
            out, error = None, f"{type(e).__name__}: {e}"
        secs, cpu = time.perf_counter() - t0, time.process_time() - c0
        if not error:
            ok, error = op.oracle(out)
            error = "" if ok else error or "rejected by the oracle"
        del out
        results.append({"op": op.name, "seconds": secs, "cpu_s": cpu, "ok": not error, "error": error})
    return results


def main(argv):
    root, workload, seed, mode = Path(argv[1]), argv[2], int(argv[3]), argv[4]
    sys.path[:0] = [str(root / "src"), str(Path(__file__).resolve().parent)]
    import ringtasep
    import ringtasep.verify  # imports every library module the ops use

    if not Path(ringtasep.__file__).resolve().is_relative_to((root / "src").resolve()):
        raise SystemExit(f"ringtasep was imported from {ringtasep.__file__}, not {root / 'src'}")
    import layers
    import workloads

    ops = workloads.WORKLOADS[workload](ringtasep, workloads.load_refs(), seed)
    print("READY", flush=True)
    if mode == "setup":
        return

    tracer = None
    if mode == "traced":
        from tracer import Tracer

        tracer = Tracer(ringtasep, watch=layers.WATCH)
        tracer.install()

    results = run_ops(ringtasep, ops, tracer)
    report = {
        "ops": results,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        tracer.uninstall()
        op_seconds = [(r["op"], r["seconds"]) for r in results]
        report["layers"] = {k: list(v) for k, v in layers.per_layer(tracer, op_seconds).items()}
        totals = tracer.layer_totals()
        report["self_s"] = {layer: secs for layer, (_, secs) in totals.items()}
        report["absent"] = tracer.absent + tracer.watch_errors
        out_dir = Path.cwd() / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(out_dir / f"trace-{workload}-seed{seed}.json")
    print("RESULT " + json.dumps(report), flush=True)


if __name__ == "__main__":
    main(sys.argv)
