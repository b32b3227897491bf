import json

from click.testing import CliRunner

from ringtasep.cli import main


def run(*args):
    return CliRunner().invoke(main, list(args))


def test_tasep_stationary_exact():
    r = run("tasep", "stationary", "--m", "1", "--N", "3")
    assert r.exit_code == 0
    data = json.loads(r.output)
    assert data == {"1..": "1/3", ".1.": "1/3", "..1": "1/3"}


def test_tasep_stationary_mc_reproducible():
    a = run("--seed", "3", "tasep", "stationary", "--m", "1,1", "--N", "3", "--mc", "--samples", "2000")
    b = run("--seed", "3", "tasep", "stationary", "--m", "1,1", "--N", "3", "--mc", "--samples", "2000")
    assert a.exit_code == b.exit_code == 0
    assert a.output == b.output


def test_tasep_stationary_mc_refuses_negative_burn_in():
    r = run("tasep", "stationary", "--m", "1,1", "--N", "4", "--mc", "--burn-in", "-5")
    assert r.exit_code == 1
    assert "need burn_in >= 0" in r.output
    assert isinstance(r.exception, SystemExit)


def test_mlq_count_routes_agree():
    census = json.loads(run("mlq", "count", "--pi", "2,1", "--b", "0,2", "--N", "5").output)
    formula = json.loads(
        run("mlq", "count", "--pi", "2,1", "--b", "0,2", "--N", "5", "--formula", "w0").output
    )
    assert census["count"] == formula["count"] == 2
    assert census["route"] == "row-transfer"
    assert formula["route"] == "reverse-formula"


def test_mlq_count_formulas_refuse_other_permutations_and_positions_off_the_ring():
    refused = [
        (("--pi", "1,2", "--b", "0,1", "--N", "4", "--formula", "w0"), "formula w0 counts the permutation 2,1, not 1,2"),
        (
            ("--pi", "3,2,1", "--b", "0,1,3", "--N", "4", "--formula", "skw0:1"),
            "formula skw0:1 counts the permutation 3,1,2, not 3,2,1",
        ),
        (("--pi", "2,1", "--b", "0,5", "--N", "4", "--formula", "w0"), "positions must lie in 0..3"),
    ]
    for args, message in refused:
        r = run("mlq", "count", *args)
        assert r.exit_code == 1, args
        assert f"Error: {message}" in r.output
        assert isinstance(r.exception, SystemExit)
    # the permutation a formula counts is counted as the census counts it
    for formula, pi, b, N in (("skw0:1", "3,1,2", "0,1,3", 4), ("sw0:3,1", "3,4,1,2", "0,1,3,4", 6)):
        census = json.loads(run("mlq", "count", "--pi", pi, "--b", b, "--N", str(N)).output)
        counted = json.loads(run("mlq", "count", "--pi", pi, "--b", b, "--N", str(N), "--formula", formula).output)
        assert counted["count"] == census["count"] > 0


def test_jobs_must_be_positive(monkeypatch):
    for jobs in ("0", "-3"):
        r = run("--jobs", jobs, "continuum", "corr", "--n", "3", "--mc", "--samples", "10")
        assert r.exit_code == 1, jobs
        assert f"Invalid value for '--jobs': {jobs} is not in the range x>=1" in r.output
    monkeypatch.setenv("RINGTASEP_JOBS", "0")
    r = run("verify", "corr-mc-n6", "--samples", "10")
    assert r.exit_code == 1
    assert "Invalid value for '--jobs'" in r.output


def test_mlq_count_bad_formula():
    r = run("mlq", "count", "--pi", "2,1", "--b", "0,1", "--N", "4", "--formula", "nope")
    assert r.exit_code == 1


def test_mlq_label_roundtrip():
    r = run("mlq", "label", "--m", "2,1,1", "--N", "8", "--rows", "3,4;0,2,4;1,5,6,7")
    data = json.loads(r.output)
    assert data["labels"] == [[1, 1], [1, 2, 1], [1, 1, 2, 3]]


def test_count_z():
    data = json.loads(run("count", "z", "--m", "1,1", "--N", "4").output)
    assert data["total"] == 24


def test_count_lgv():
    data = json.loads(
        run("count", "lgv", "--starts", "0,0", "--ends", "1,2", "--brute").output
    )
    assert data == {"det": 3, "brute": 3}


def test_count_lgv_refuses_points_that_are_not_pairs():
    for starts, ends in (("1", "2"), ("0,0,5", "1,2,9")):
        for brute in ((), ("--brute",)):
            r = run("count", "lgv", "--starts", starts, "--ends", ends, *brute)
            assert r.exit_code == 1, (starts, brute)
            assert "Error: starts must be (row, column) pairs of ints" in r.output
            assert isinstance(r.exception, SystemExit)  # a usage error, not a traceback


def test_continuum_pdist():
    data = json.loads(run("continuum", "pdist", "--n", "2").output)
    assert data == {"12": "2/3", "21": "1/3"}


def test_continuum_pdist_refuses_n_below_one():
    r = run("continuum", "pdist", "--n", "0")
    assert r.exit_code == 1
    assert "need n >= 1" in r.output
    assert "Usage: main continuum pdist [OPTIONS]" in r.output  # the failing command's usage
    assert isinstance(r.exception, SystemExit)  # a usage error, not a traceback


def test_continuum_gpoly():
    data = json.loads(run("continuum", "gpoly", "--pi", "2,1").output)
    assert data["vars"] == ["q1", "q2"]
    assert {"coef": "2", "exps": [0, 1]} in data["terms"]


def test_continuum_corr_exact_csv():
    r = run("--format", "csv", "continuum", "corr", "--n", "2")
    lines = r.output.strip().splitlines()
    assert lines[0] == "i,j,value"
    assert "1,2,1" in lines[1:]


def test_continuum_corr_mc():
    r = run("--seed", "1", "continuum", "corr", "--n", "3", "--mc", "--samples", "1e3")
    data = json.loads(r.output)
    assert data["samples"] == 1000
    assert "estimate" in data["entries"]["1,2"]


def test_continuum_mc_takes_whole_sample_counts_only():
    for command in ("pdist", "corr"):
        for text, samples in (("300", 300), ("1e3", 1000), ("2.5e2", 250)):
            r = run("continuum", command, "--n", "3", "--mc", "--samples", text)
            assert r.exit_code == 0, (command, text)
            assert json.loads(r.output)["samples"] == samples
        for text in ("2.5", "1e9999", "-inf", "nan", "many"):
            r = run("continuum", command, "--n", "3", "--mc", "--samples", text)
            assert r.exit_code == 1, (command, text)
            assert f"Error: need a whole number of samples, got '{text}'" in r.output
            assert isinstance(r.exception, SystemExit)  # a usage error, not a traceback
        r = run("continuum", command, "--n", "3", "--mc", "--samples", "0")
        assert r.exit_code == 1
        assert "Error: need samples >= 1" in r.output


def test_tasep_and_verify_take_whole_sample_counts_only():
    r = run("tasep", "stationary", "--m", "1,1", "--N", "3", "--mc", "--samples", "1e3")
    assert r.exit_code == 0
    assert sum(e["count"] for e in json.loads(r.output).values()) == 1000
    r = run("verify", "corr-mc-n6", "--samples", "1e3")
    assert r.exit_code in (0, 2)  # a finding or a match, not a usage error
    assert json.loads(r.output)[0]["params"]["samples"] == 1000
    for args in (("tasep", "stationary", "--m", "1,1", "--N", "3", "--mc"), ("verify", "corr-mc-n6")):
        r = run(*args, "--samples", "2.5")
        assert r.exit_code == 1, args
        assert "Error: need a whole number of samples, got '2.5'" in r.output
        assert isinstance(r.exception, SystemExit)


def test_verify_conj_corr_check():
    r = run("verify", "conj-corr-n2")
    assert r.exit_code == 0
    data = json.loads(r.output)
    assert data[0]["status"] == "conjecture-match"


def test_poly_laplacian_harmonic():
    data = json.loads(run("poly", "laplacian", "--pi", "1,4,3,2").output)
    assert data["harmonic"] is True


def test_tab_ssyt_count_routes():
    for route in ("hook", "jt", "brute"):
        data = json.loads(
            run("tab", "ssyt-count", "--shape", "2,1", "--t", "3", "--route", route).output
        )
        assert data["count"] == 8


def test_tab_ssyt_count_refuses_negative_t_on_every_route():
    for route in ("hook", "jt", "brute"):
        for shape in ("2,1", "1"):
            r = run("tab", "ssyt-count", "--shape", shape, "--t", "-1", "--route", route)
            assert r.exit_code == 1, (route, shape)
            assert "need t >= 0" in r.output


def test_continuum_pdist_mc_keys():
    # a permutation has no vacancy; its labels are comma separated only
    # when one of them is over 9
    for n, sep in [(3, ""), (10, ",")]:
        data = json.loads(run("--seed", "1", "continuum", "pdist", "--n", str(n), "--mc", "--samples", "20").output)
        assert data["samples"] == 20
        for key in data["words"]:
            assert sorted(map(int, key.split(",") if sep else key)) == list(range(1, n + 1))


def test_tab_fw():
    data = json.loads(run("tab", "fw", "--m", "2,2,2,3", "--N", "13").output)
    assert data["count"] == 5336100


def test_rs_stationary():
    data = json.loads(run("rs", "stationary", "--n", "2", "--k", "1").output)
    assert set(data.values()) == {"1/2"}


def test_rs_stationary_refuses_n_below_one():
    r = run("rs", "stationary", "--n", "0", "--k", "1")
    assert r.exit_code == 1
    assert "need n >= 1" in r.output
    assert isinstance(r.exception, SystemExit)


def test_verify_single_check_and_exit_codes():
    r = run("verify", "queue-figures")
    assert r.exit_code == 0
    data = json.loads(r.output)
    assert data[0]["status"] == "proved-match"


def test_verify_unknown_filter_is_usage_error():
    r = run("verify", "nonexistent-*")
    assert r.exit_code == 1
    assert "Usage: main verify [OPTIONS] [PATTERN]" in r.output
    assert "no checks match 'nonexistent-*'" in r.output


def test_verify_list():
    r = run("verify", "--list")
    assert r.exit_code == 0
    assert "fm-m11" in r.output
    assert "corr-mc-n6" in r.output


def test_verify_output_deterministic():
    a = run("--format", "csv", "verify", "rs-figure")
    b = run("--format", "csv", "verify", "rs-figure")
    # runtime column differs; compare the stable columns
    strip = lambda out: [",".join(line.split(",")[:3]) for line in out.strip().splitlines()]
    assert strip(a.output) == strip(b.output)


def test_verify_cache_roundtrip(tmp_path):
    args = ["--cache-dir", str(tmp_path), "verify", "queue-figures"]
    a = run(*args)
    b = run(*args)
    assert a.exit_code == b.exit_code == 0
    assert json.loads(b.output)[0]["cached"] is True
    assert json.loads(a.output)[0]["status"] == json.loads(b.output)[0]["status"]
