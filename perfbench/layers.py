"""Per-layer metrics from a traced round.

Work counts are nominal: they are computed from the call arguments of the
census, solve and sampling entry points as the brute-force sweeps would
count them, so an algorithm that does less work (a row-transfer census)
still reports the same count and shows up as a higher rate.  A census is
counted once per distinct argument in a process; a repeated argument is a
hit, which the library serves from its memo caches.
"""

from math import comb

MODULES = ("core", "mlq", "markov", "count", "continuum", "poly", "tableaux", "rs", "verify")
NAMED_CHECKS = ("prop43-adjacency", "conj-swap-k3", "reverse-count")

P = "ringtasep."
COUNT_CENSUS = (P + "count.bottom_position_census", P + "count.bottom_word_counts")
CONTINUUM_CENSUS = (P + "continuum.adjacency_exact", P + "continuum.permutation_distribution")
SOLVE = (P + "markov.stationary_exact",)
CHAINS = (P + "markov.tasep_stationary", P + "markov.k_tasep_stationary")
RS = (P + "rs.rs_stationary",)
CONTINUUM_MC = (P + "continuum.adjacency_mc", P + "continuum.permutation_distribution_mc")
MARKOV_MC = (P + "markov.mc_stationary",)


def _type(t):
    return {"m": list(t.m), "N": t.N}


# name -> summary of the bound arguments, taken at call time
WATCH = {
    COUNT_CENSUS[0]: lambda a: {"sizes": list(range(1, a["n"] + 1)), "N": a["N"]},
    COUNT_CENSUS[1]: lambda a: {"sizes": list(a["t"].M), "N": a["t"].N},
    CONTINUUM_CENSUS[0]: lambda a: {"n": a["n"]},
    CONTINUUM_CENSUS[1]: lambda a: {"n": a["n"]},
    SOLVE[0]: lambda a: {"rows": a["P"].n_rows},
    CHAINS[0]: lambda a: _type(a["t"]),
    CHAINS[1]: lambda a: _type(a["t"]),
    RS[0]: lambda a: {"n": a["n"]},
    CONTINUUM_MC[0]: lambda a: {"samples": a["samples"]},
    CONTINUUM_MC[1]: lambda a: {"samples": a["samples"]},
    MARKOV_MC[0]: lambda a: {"steps": a["burn_in"] + a["samples"] * a.get("thin", 1)},
}


def sweep_work(sizes, N):
    """(queues, claims) of the brute sweep over rows of the given sizes:
    one claim per partial queue at every depth."""
    queues, claims = 1, 0
    for s in sizes:
        queues *= comb(N, s)
        claims += queues
    return queues, claims


def rep_census_work(n):
    """(representatives, claims) of the continuum sweep with the single
    top-row box pinned: rows 2..n-1 are chosen from the free slots, the
    last row takes the rest, and every choice is one claim."""
    free = comb(n + 1, 2) - 1
    reps, claims = 1, 0
    for size in range(2, n):
        reps *= comb(free, size)
        free -= size
        claims += reps
    return reps, claims + reps


def catalan(n):
    return comb(2 * n, n) // (n + 1)


def state_count(m, N):
    out, rest = comb(N, sum(m)), sum(m)
    for x in m:
        out *= comb(rest, x)
        rest -= x
    return out


def _rate(work, secs):
    return work / secs if secs > 0 else 0.0


def outermost_events(tracer, group):
    """(seconds, summary) of watched calls in the group that no other call
    of the group encloses, so a census built from another is counted once."""
    spans, names = tracer.spans, tracer.names
    out = []
    for sid, name, summary in tracer.events:
        if name not in group:
            continue
        parent = spans[sid][3]
        while parent >= 0 and names[spans[parent][0]] not in group:
            parent = spans[parent][3]
        if parent < 0:
            out.append((spans[sid][2] - spans[sid][1], summary))
    return out


def per_layer(tracer, op_seconds):
    """Every per-layer metric except the process ones.

    op_seconds: [(op name, seconds)] as the benchmark timed the ops.
    """
    m = {}
    totals = tracer.layer_totals()
    for mod in MODULES:
        calls, secs = totals.get(mod, (0, 0.0))
        m[f"{mod}.calls"] = (calls, "count")
        m[f"{mod}.self_s"] = (secs, "s")

    checks = {name[len("check:"):]: secs for name, secs in op_seconds if name.startswith("check:")}
    for cid in NAMED_CHECKS:
        m[f"verify.check_s.{cid}"] = (checks.get(cid, 0.0), "s")
    m["verify.check_s.rest"] = (sum(secs for cid, secs in checks.items() if cid not in NAMED_CHECKS), "s")

    census_s = queues = claims = 0
    seen = set()
    for secs, s in outermost_events(tracer, COUNT_CENSUS):
        census_s += secs
        key = (tuple(s["sizes"]), s["N"])
        if key not in seen:
            seen.add(key)
            q, c = sweep_work(*key)
            queues += q
            claims += c
    m["count.census_s"] = (census_s, "s")
    m["count.census.queues"] = (queues, "count")
    m["count.census.queues_per_s"] = (_rate(queues, census_s), "1/s")

    rep_s = reps = hits = 0
    seen = set()
    for secs, s in outermost_events(tracer, CONTINUUM_CENSUS):
        rep_s += secs
        if s["n"] in seen:
            hits += 1
            continue
        seen.add(s["n"])
        r, c = rep_census_work(s["n"])
        reps += r
        claims += c
    m["continuum.census_s"] = (rep_s, "s")
    m["continuum.census.reps"] = (reps, "count")
    m["continuum.census.reps_per_s"] = (_rate(reps, rep_s), "1/s")
    m["continuum.census.hits"] = (hits, "count")
    m["mlq.claim.nominal_steps"] = (claims, "count")
    m["mlq.claim.nominal_steps_per_s"] = (_rate(claims, census_s + rep_s), "1/s")

    solves = outermost_events(tracer, SOLVE)
    solve_s = sum(secs for secs, _ in solves)
    classes = sum(s["rows"] for _, s in solves)
    m["markov.solve_s"] = (solve_s, "s")
    m["markov.states"] = (sum(state_count(s["m"], s["N"]) for _, s in outermost_events(tracer, CHAINS)), "count")
    m["markov.classes"] = (classes, "count")
    m["markov.classes_per_s"] = (_rate(classes, solve_s), "1/s")
    m["rs.patterns"] = (sum(catalan(s["n"]) for _, s in outermost_events(tracer, RS)), "count")

    mc = outermost_events(tracer, CONTINUUM_MC)
    samples, mc_s = sum(s["samples"] for _, s in mc), sum(secs for secs, _ in mc)
    m["continuum.mc.samples"] = (samples, "count")
    m["continuum.mc.samples_per_s"] = (_rate(samples, mc_s), "1/s")
    chain = outermost_events(tracer, MARKOV_MC)
    steps, chain_s = sum(s["steps"] for _, s in chain), sum(secs for secs, _ in chain)
    m["markov.mc.steps"] = (steps, "count")
    m["markov.mc.steps_per_s"] = (_rate(steps, chain_s), "1/s")
    return m
