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


def test_mlq_count_routes_agree():
    census = json.loads(run("mlq", "count", "--pi", "2,1", "--b", "0,2", "--N", "5").output)
    formula = json.loads(
        run("mlq", "count", "--pi", "2,1", "--b", "0,2", "--N", "5", "--formula", "w0").output
    )
    assert census["count"] == formula["count"] == 2
    assert census["route"] == "row-transfer"
    assert formula["route"] == "reverse-formula"


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


def test_continuum_pdist():
    data = json.loads(run("continuum", "pdist", "--n", "2").output)
    assert data == {"12": "2/3", "21": "1/3"}


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


def test_continuum_verify_subcommand():
    r = run("continuum", "verify", "corr-conjecture", "--n", "2")
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


def test_tab_fw():
    data = json.loads(run("tab", "fw", "--m", "2,2,2,3", "--N", "13").output)
    assert data["count"] == 5336100


def test_rs_stationary():
    data = json.loads(run("rs", "stationary", "--n", "2", "--k", "1").output)
    assert set(data.values()) == {"1/2"}


def test_verify_single_check_and_exit_codes():
    r = run("verify", "queue-figures")
    assert r.exit_code == 0
    data = json.loads(r.output)
    assert data[0]["status"] == "proved-match"


def test_verify_unknown_filter_is_usage_error():
    assert run("verify", "nonexistent-*").exit_code == 1


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
