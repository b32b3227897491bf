"""Command-line interface.

Exit codes: 0 for success (including conjecture mismatches, which are
findings, not failures), 1 for usage errors, 2 when a theorem-severity
verification check mismatches.  Output is deterministic for a fixed
command line and seed.
"""

import functools
import json
import sys

import click

from . import __version__
from .core import TypeVector, parse_perm, rat_str, reverse_permutation, swap_values, word_string
from .count import (
    PathFamilySpec,
    PositionVector,
    count_bottom_reverse,
    count_bottom_reverse_multi_swap,
    count_bottom_reverse_swap,
    lgv_brute,
    lgv_count,
    mlq_bottom_count,
    total_mlq_count,
)
from .continuum import (
    adjacency_conjecture,
    adjacency_exact,
    adjacency_mc,
    density_poly,
    permutation_distribution,
    permutation_distribution_mc,
)
from .markov import mc_stationary, tasep_stationary
from .mlq import DiscreteMLQ, label_mlq
from .poly import laplacian, vandermonde
from .rs import rs_stationary
from .tableaux import descending_start_count, ssyt_count_brute, ssyt_count_hook_content, ssyt_count_jacobi_trudi
from .verify import CHECKS, CONJECTURE, MISMATCH, run_suite, suite_exit_code

# Usage errors exit with 1; click's default of 2 is reserved for theorem
# mismatches here.
click.UsageError.exit_code = 1


class _Command(click.Command):
    """Surface domain validation failures as usage errors (exit 1), with
    the failing command's usage line."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except ValueError as e:
            raise click.UsageError(str(e), ctx)


class _Group(click.Group):
    """Every command of the group is a _Command, and every nested group a
    _Group."""

    command_class = _Command
    group_class = type


def _emit(data, fmt: str, csv_rows=None, csv_header=None):
    """Print a result deterministically as JSON or CSV."""
    if fmt == "csv" and csv_rows is not None:
        import csv
        import io

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        if csv_header:
            writer.writerow(csv_header)
        writer.writerows(csv_rows)
        click.echo(buf.getvalue().rstrip("\n"))
    else:
        click.echo(json.dumps(data, sort_keys=True, indent=2, default=str))


def _sample_count(text: str) -> int:
    """--samples as a whole number, written as digits or as a float with
    an integral value, such as 1e6; 2.5 and 1e9999 are refused."""
    try:
        return int(text)
    except ValueError:
        pass
    try:
        value = float(text)
    except ValueError:
        value = float("nan")
    if not value.is_integer():  # nor are nan and inf
        raise ValueError(f"need a whole number of samples, got {text!r}")
    return int(value)


@click.group(cls=_Group)
@click.version_option(__version__)
@click.option("--seed", type=int, envvar="RINGTASEP_SEED", help="master RNG seed [default: 0; corr-mc-n6: 7]")
@click.option("--jobs", type=click.IntRange(min=1), default=1, envvar="RINGTASEP_JOBS", show_default=True)
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json", envvar="RINGTASEP_FORMAT")
@click.option("--cache-dir", type=click.Path(), default=None, envvar="RINGTASEP_CACHE_DIR")
@click.pass_context
def main(ctx, seed, jobs, fmt, cache_dir):
    """Exact tools for the multi-type ring TASEP and multiline queues."""
    ctx.ensure_object(dict)
    ctx.obj.update(seed=seed, jobs=jobs, fmt=fmt, cache_dir=cache_dir)


# --- tasep ---------------------------------------------------------------------


@main.group()
def tasep():
    """The particle chain itself."""


@tasep.command("stationary")
@click.option("--m", "m_text", required=True, help="class sizes, e.g. 1,1,1")
@click.option("--N", "N", type=int, required=True)
@click.option("--exact/--mc", default=True)
@click.option("--samples", default="100000", show_default=True)
@click.option("--burn-in", type=int, default=1000, show_default=True)
@click.pass_context
def tasep_stationary_cmd(ctx, m_text, N, exact, samples, burn_in):
    """Stationary distribution, exact or Monte Carlo."""
    t = TypeVector.parse(m_text, N)
    if exact:
        dist = tasep_stationary(t)
        data = {word_string(w): rat_str(p) for w, p in sorted(dist.items())}
        _emit(data, ctx.obj["fmt"], csv_rows=sorted(data.items()), csv_header=("state", "probability"))
    else:
        est = mc_stationary(t, burn_in, _sample_count(samples), seed=ctx.obj["seed"] or 0)
        rows = [(word_string(w), e["freq"], e["stderr"], e["count"]) for w, e in est.items()]
        data = {word_string(w): e for w, e in est.items()}
        _emit(data, ctx.obj["fmt"], csv_rows=rows, csv_header=("state", "freq", "stderr", "count"))


# --- mlq -----------------------------------------------------------------------


@main.group("mlq")
def mlq_group():
    """Multiline queues."""


@mlq_group.command("count")
@click.option("--pi", "pi_text", required=True, help="bottom permutation, e.g. 4,3,2,1")
@click.option("--b", "b_text", required=True, help="bottom positions, e.g. 0,2,5,6")
@click.option("--N", "N", type=int, required=True)
@click.option("--formula", default=None, help="w0 | skw0:k | sw0:k1,k2,...")
@click.pass_context
def mlq_count_cmd(ctx, pi_text, b_text, N, formula):
    """Count queues with the given bottom row, by row-transfer census or formula."""
    pi = parse_perm(pi_text)
    b = PositionVector(tuple(int(x) for x in b_text.split(",")), N).b
    swaps = ()
    if formula is None:
        value = mlq_bottom_count(pi, b, N)
        route = "row-transfer"
    elif formula == "w0":
        value = count_bottom_reverse(b)
        route = "reverse-formula"
    elif formula.startswith("skw0:"):
        swaps = (int(formula.split(":")[1]),)
        value = count_bottom_reverse_swap(swaps[0], b, N)
        route = "swap-formula"
    elif formula.startswith("sw0:"):
        swaps = tuple(int(x) for x in formula.split(":")[1].split(","))
        value = count_bottom_reverse_multi_swap(swaps, b, N)
        route = "multi-swap-formula (printed sign)"
    else:
        raise click.UsageError(f"unknown formula {formula!r}")
    counted = functools.reduce(swap_values, swaps, reverse_permutation(len(b)))
    if formula is not None and pi != counted:
        raise ValueError(f"formula {formula} counts the permutation {','.join(map(str, counted))}, not {pi_text}")
    _emit({"pi": list(pi), "b": list(b), "N": N, "route": route, "count": value}, ctx.obj["fmt"])


@mlq_group.command("label")
@click.option("--m", "m_text", required=True)
@click.option("--N", "N", type=int, required=True)
@click.option("--rows", "rows_text", required=True, help="semicolon-separated rows, e.g. 3,4;0,2,4;1,5,6,7")
@click.pass_context
def mlq_label_cmd(ctx, m_text, N, rows_text):
    """Label a queue and print it with labels and bully paths."""
    t = TypeVector.parse(m_text, N)
    rows = tuple(tuple(int(x) for x in part.split(",")) for part in rows_text.split(";"))
    labeled = label_mlq(DiscreteMLQ(t, rows))
    _emit(labeled.to_json_dict(), ctx.obj["fmt"])


# --- count ----------------------------------------------------------------------


@main.group("count")
def count_group():
    """Global counts and path families."""


@count_group.command("z")
@click.option("--m", "m_text", required=True)
@click.option("--N", "N", type=int, required=True)
@click.pass_context
def count_z_cmd(ctx, m_text, N):
    """Total number of queues of a type."""
    t = TypeVector.parse(m_text, N)
    _emit({"m": list(t.m), "N": N, "total": total_mlq_count(t)}, ctx.obj["fmt"])


@count_group.command("lgv")
@click.option("--starts", required=True, help="e.g. 2,0;1,0")
@click.option("--ends", required=True, help="e.g. 2,0;2,2")
@click.option("--brute", is_flag=True, default=False)
@click.pass_context
def count_lgv_cmd(ctx, starts, ends, brute):
    """Nonintersecting path count by determinant (optionally also brute)."""

    def parse_points(text):
        return tuple(tuple(int(x) for x in p.split(",")) for p in text.split(";"))

    spec = PathFamilySpec(parse_points(starts), parse_points(ends))
    data = {"det": lgv_count(spec)}
    if brute:
        data["brute"] = lgv_brute(spec)
    _emit(data, ctx.obj["fmt"])


# --- continuum -------------------------------------------------------------------


@main.group()
def continuum():
    """The continuous ring limit."""


@continuum.command("pdist")
@click.option("--n", type=int, required=True)
@click.option("--mc", is_flag=True, default=False, help="sample instead of enumerating (needed for n >= 6)")
@click.option("--samples", default="1e6", show_default=True)
@click.pass_context
def continuum_pdist_cmd(ctx, n, mc, samples):
    """Probability of each bottom permutation, exact or sampled."""
    if mc:
        res = permutation_distribution_mc(n, _sample_count(samples), ctx.obj["seed"] or 0, jobs=ctx.obj["jobs"])
        data = {word_string(w): e for w, e in res["words"].items()}
        _emit(
            {"n": n, "samples": res["samples"], "words": data},
            ctx.obj["fmt"],
            csv_rows=[(k, e["freq"], e["stderr"], e["count"]) for k, e in sorted(data.items())],
            csv_header=("permutation", "freq", "stderr", "count"),
        )
        return
    dist = permutation_distribution(n)
    data = {word_string(w): rat_str(p) for w, p in dist.items()}
    _emit(data, ctx.obj["fmt"], csv_rows=sorted(data.items()), csv_header=("permutation", "probability"))


@continuum.command("gpoly")
@click.option("--pi", "pi_text", required=True)
@click.pass_context
def continuum_gpoly_cmd(ctx, pi_text):
    """Exact position density polynomial for a permutation."""
    _emit(density_poly(parse_perm(pi_text)).to_json_dict(), ctx.obj["fmt"])


@continuum.command("corr")
@click.option("--n", type=int, required=True)
@click.option("--mc", is_flag=True, default=False)
@click.option("--samples", default="1e6", show_default=True)
@click.pass_context
def continuum_corr_cmd(ctx, n, mc, samples):
    """Adjacency correlation table, exact or Monte Carlo."""
    if not mc:
        table = adjacency_exact(n)
        rows = [(i, j, rat_str(v)) for (i, j), v in sorted(table.entries.items())]
        _emit(table.to_json_dict(), ctx.obj["fmt"], csv_rows=rows, csv_header=("i", "j", "value"))
        return
    res = adjacency_mc(n, _sample_count(samples), ctx.obj["seed"] or 0, jobs=ctx.obj["jobs"])
    rows = []
    entries = {}
    for (i, j), e in sorted(res["entries"].items()):
        conj = rat_str(adjacency_conjecture(i, j, n))
        rows.append((i, j, e["estimate"], e["stderr"], conj))
        entries[f"{i},{j}"] = {"estimate": e["estimate"], "stderr": e["stderr"], "conjecture": conj}
    _emit(
        {"n": n, "samples": res["samples"], "entries": entries},
        ctx.obj["fmt"],
        csv_rows=rows,
        csv_header=("i", "j", "estimate", "stderr", "conjecture"),
    )


# --- poly -----------------------------------------------------------------------


@main.group("poly")
def poly_group():
    """Polynomial utilities on the densities."""


@poly_group.command("laplacian")
@click.option("--pi", "pi_text", required=True)
@click.pass_context
def poly_laplacian_cmd(ctx, pi_text):
    """Laplacian of a permutation's density polynomial."""
    pi = parse_perm(pi_text)
    result = laplacian(density_poly(pi))
    _emit({"pi": list(pi), "laplacian": result.to_json_dict(), "harmonic": result.is_zero()}, ctx.obj["fmt"])


@poly_group.command("vandermonde")
@click.option("--n", type=int, required=True)
@click.pass_context
def poly_vandermonde_cmd(ctx, n):
    _emit(vandermonde(n).to_json_dict(), ctx.obj["fmt"])


# --- tab ------------------------------------------------------------------------


@main.group("tab")
def tab_group():
    """Partitions and tableaux."""


@tab_group.command("ssyt-count")
@click.option("--shape", required=True, help="partition, e.g. 2,1")
@click.option("--t", "t_bound", type=int, required=True)
@click.option("--route", type=click.Choice(["hook", "jt", "brute"]), default="hook", show_default=True)
@click.pass_context
def tab_ssyt_count_cmd(ctx, shape, t_bound, route):
    """Count semistandard tableaux with entries in [t]."""
    lam = tuple(int(x) for x in shape.split(","))
    if route == "hook":
        value = ssyt_count_hook_content(lam, t_bound)
    elif route == "jt":
        value = ssyt_count_jacobi_trudi(lam, t_bound)
    else:
        value = ssyt_count_brute(lam, t_bound)
    _emit({"shape": list(lam), "t": t_bound, "route": route, "count": value}, ctx.obj["fmt"])


@tab_group.command("fw")
@click.option("--m", "m_text", required=True, help="class sizes; a short vector is padded to sum N")
@click.option("--N", "N", type=int, required=True)
@click.pass_context
def tab_fw_cmd(ctx, m_text, N):
    """Count queues whose bottom word starts n(n-1)...2 (both routes)."""
    m = tuple(int(x) for x in m_text.split(","))
    value = descending_start_count(m, N)
    _emit({"m": list(m), "N": N, "count": value}, ctx.obj["fmt"])


# --- rs -------------------------------------------------------------------------


@main.group("rs")
def rs_group():
    """The linking-pattern chain."""


@rs_group.command("stationary")
@click.option("--n", type=int, required=True)
@click.option("--k", type=int, required=True)
@click.pass_context
def rs_stationary_cmd(ctx, n, k):
    """Exact stationary distribution of the k-subset pattern chain."""
    dist = rs_stationary(n, k)
    data = {json.dumps(L.pairs): rat_str(p) for L, p in sorted(dist.items(), key=lambda kv: kv[0].pairs)}
    _emit(data, ctx.obj["fmt"], csv_rows=sorted(data.items()), csv_header=("pattern", "probability"))


# --- verify -----------------------------------------------------------------------


@main.command("verify")
@click.argument("pattern", default="*")
@click.option("--list", "list_only", is_flag=True, default=False, help="list check ids and exit")
@click.option("--samples", default=None, help="override sample counts for Monte Carlo checks")
@click.option("--enable-slow", is_flag=True, default=False, help="run gated long jobs (n=5 harmonicity census)")
@click.pass_context
def verify_cmd(ctx, pattern, list_only, samples, enable_slow):
    """Run verification checks matching PATTERN (fnmatch glob)."""
    if list_only:
        for cid, (severity, _, params) in CHECKS.items():
            click.echo(f"{cid}\t{severity}\t{json.dumps(params, sort_keys=True, default=str)}")
        return
    overrides: dict = {"corr-mc-n6": {"jobs": ctx.obj["jobs"]}}
    if samples is not None:
        overrides["corr-mc-n6"]["samples"] = _sample_count(samples)
    if ctx.obj["seed"] is not None:
        overrides["corr-mc-n6"]["seed"] = ctx.obj["seed"]
    if enable_slow:
        overrides["laplace-n5"] = {"enable_slow": True}
    reports = run_suite(pattern, overrides=overrides, cache_dir=ctx.obj["cache_dir"])
    _emit(
        [r.to_json_dict() for r in reports],
        ctx.obj["fmt"],
        csv_rows=[(r.check_id, r.severity, r.status, round(r.runtime, 3), r.detail) for r in reports],
        csv_header=("check", "severity", "status", "runtime", "detail"),
    )
    for r in reports:
        if r.severity == CONJECTURE and r.status == MISMATCH:
            click.echo(f"FINDING: conjecture check {r.check_id} mismatched; see witnesses", err=True)
    sys.exit(suite_exit_code(reports))


if __name__ == "__main__":
    main()
