"""Command-line interface: output formats, exit codes, cache, determinism."""

import json
import math
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zeta_eta.cli as cli
from zeta_eta import approx, distribution
from zeta_eta.approx import ApproxConfig, prime_power_poly, residual
from zeta_eta.cli import (MAX_GRID_POINTS, _parse_complex, _parse_floats,
                          _t_grid, main)
from zeta_eta.distribution import _samples
from zeta_eta.errors import ValidationError
from zeta_eta.eta import eta_vertical
from zeta_eta.kernels import DEFAULT_KERNEL, make_kernel
from zeta_eta.precision import DEFAULT_PRECISION, SCAN_PRECISION
from zeta_eta.zeros import builtin_store

GAMMA_LINES = "14.134725141734694\n21.022039638771554\n25.010857580145688\n"


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("ZETA_ETA_CACHE", str(tmp_path / "cache"))
    return tmp_path


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_a_process_that_evaluates_no_scipy_function_loads_no_scipy(
        tmp_path):
    # scipy.special is imported on first use: importing the CLI, a whole
    # dist tails run, a poly-bump CDF and a whole residual-scan leave it
    # unloaded, and one E* evaluation loads it
    tails, scan = tmp_path / "tails.csv", tmp_path / "scan.csv"
    code = ("import sys\n"
            "import zeta_eta.cli as cli\n"
            "print('scipy', 'scipy.special' in sys.modules)\n"
            f"argv = ['--out', {str(tails)!r}, 'dist', 'tails', '--t-big',\n"
            "        '1000', '--seed', '1', '--count', '100', '--v-list',\n"
            "        '0,0.5']\n"
            "assert cli.main(argv) == 0\n"
            "print('scipy', 'scipy.special' in sys.modules)\n"
            "from zeta_eta.kernels import e_star, make_kernel\n"
            "make_kernel('poly_bump', 3).f_cdf(0.25)\n"
            f"argv = ['--out', {str(scan)!r}, 'residual-scan', '--m', '1',\n"
            "        '--x-list', '10,100', '--sigma', '0.5', '--t-from',\n"
            "        '100', '--t-to', '200', '--t-step', '100']\n"
            "assert cli.main(argv) == 0\n"
            "print('scipy', 'scipy.special' in sys.modules)\n"
            "e_star(1, 1 + 1j)\n"
            "print('scipy', 'scipy.special' in sys.modules)\n")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    loaded = [line.split()[1] for line in run.stdout.splitlines()
              if line.startswith("scipy ")]
    assert loaded == ["False", "False", "False", "True"], run.stdout
    assert tails.read_text().count("\n") == 3
    assert scan.read_text().count("\n") == 5


def test_eval_zeta_point(capsys):
    code, out, err = _run(capsys, ["eval", "--what", "zeta", "--s", "2"])
    assert code == 0 and err == ""
    re_, im_, est = out.strip().split(",")
    assert float(re_) == pytest.approx(1.6449340668482264, abs=1e-10)
    assert float(im_) == 0.0
    assert float(est) == 1e-10


def test_eval_logzeta_matches_branch_value(capsys):
    code, out, _ = _run(capsys,
                        ["eval", "--what", "logzeta", "--s", "0.5+30i"])
    assert code == 0
    re_, im_, est = (float(p) for p in out.strip().split(","))
    assert re_ == pytest.approx(-0.5174667619879809, abs=1e-9)
    assert im_ == pytest.approx(-1.7746148293844037, abs=1e-9)
    assert 0.0 <= est <= 1e-9


def test_eval_abs_err_flag(capsys):
    code, out, _ = _run(capsys, ["--abs-err", "1e-12",
                                 "eval", "--what", "zeta", "--s", "2"])
    assert code == 0
    assert float(out.strip().split(",")[2]) == 1e-12


def test_abs_err_zero_is_refused(capsys):
    # 0 is a value the user gave, not a request for the default
    for argv in (["--abs-err", "0", "eval", "--what", "zeta", "--s", "2"],
                 ["--abs-err", "0", "residual-scan", "--m", "1",
                  "--x-list", "10", "--t-from", "50", "--t-to", "50",
                  "--t-step", "1"]):
        code, out, err = _run(capsys, argv)
        assert code == 3 and out == "" and "abs_err" in err, argv


def test_eval_eta_check_routes(capsys):
    code, out, _ = _run(capsys, ["eval", "--what", "eta", "--s", "0.5+50i",
                                 "--m", "1", "--check-routes"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("vertical,")
    assert lines[1].startswith("iterated,")
    tail = lines[2].split(",")
    assert tail[0] == "diff" and tail[4] == "agree" and tail[5] == "true"


def test_eval_eta_prints_the_vertical_route(capsys):
    code, out, err = _run(capsys, ["eval", "--what", "eta", "--s", "0.75+40i",
                                   "--m", "2"])
    v = eta_vertical(complex(0.75, 40.0), 2, builtin_store(), DEFAULT_PRECISION)
    assert code == 0 and err == ""
    want = (float(v.value.real), float(v.value.imag), float(v.est_err))
    assert out == ",".join(map(repr, want)) + "\n"


def test_parser_built_once_and_commands_looked_up_when_run(capsys,
                                                          monkeypatch):
    # one parser serves every call, and it binds no command: a cmd_
    # function replaced after it was built is the one that runs, each
    # subcommand's by its name, with the exit code it returns; a usage
    # error still exits 3
    parser = cli._build_parser()
    ran = []
    for name in ("zeros_import", "eval", "residual_scan", "dist"):
        monkeypatch.setattr(cli, f"cmd_{name}",
                            lambda args, name=name: ran.append(name) or 7)
    argvs = [["zeros-import", "t.csv"], ["eval", "--what", "zeta"],
             ["residual-scan", "--m", "1", "--x-list", "10", "--t-from", "1",
              "--t-to", "2", "--t-step", "1"],
             ["dist", "tails", "--t-big", "100", "--seed", "1", "--v-list",
              "0"]]
    assert [cli.main(argv) for argv in argvs] == [7, 7, 7, 7]
    assert ran == ["zeros_import", "eval", "residual_scan", "dist"]
    assert cli._build_parser() is parser
    code, out, err = _run(capsys, ["eval", "--what", "nothing"])
    assert code == 3 and err.startswith("error: argument --what")


def test_numerical_failure_exits_one(capsys, monkeypatch):
    monkeypatch.setattr(sys.modules["zeta_eta.zeta"], "_MAX_CUTOFF", 16)
    code, out, err = _run(capsys, ["eval", "--what", "zeta", "--s",
                                   "0.5+1500i"])
    assert code == 1 and out == "" and "exceeds 16" in err


def test_stalled_sweep_exits_one(capsys, tmp_path):
    # a sweep midpoint on the model root of a hypothetical zero, one zeta
    # lacks: the continuation's refusal, not a traceback
    table = tmp_path / "zeros.csv"
    table.write_text(builtin_store().inject_hypothetical(0.75,
                                                         30.0).dump_csv())
    code, out, err = _run(capsys, ["--zeros", str(table), "eval", "--what",
                                   "eta", "--s", "0.75+45i", "--m", "1",
                                   "--check-routes"])
    assert code == 1 and out == ""
    assert err.startswith("error: continuation of log zeta stalled")


def test_eval_s_m(capsys):
    code, out, _ = _run(capsys, ["eval", "--what", "s_m", "--t", "30",
                                 "--m", "0"])
    assert code == 0
    val = float(out.strip().split(",")[0])
    assert val == pytest.approx(-0.5648774443614166, abs=1e-9)


def test_usage_errors_exit_three(capsys):
    for argv in (["eval", "--what", "zeta"],                 # missing --s
                 ["eval", "--what", "eta", "--s", "2+20i"],  # missing --m
                 ["eval", "--what", "nonsense", "--s", "2"],
                 ["eval", "--what", "zeta", "--s", "two"],
                 ["dist", "tails", "--t-big", "1000"],       # missing --seed
                 ["dist", "tails", "--t-big", "1000", "--seed", "1"],
                 ["residual-scan", "--m", "1", "--x-list", "",
                  "--t-from", "50", "--t-to", "60", "--t-step", "5"]):
        code, _, err = _run(capsys, argv)
        assert code == 3, argv
        assert "error:" in err or "usage" in err.lower()


def test_out_of_domain_exits_three(capsys):
    code, _, err = _run(capsys, ["eval", "--what", "logzeta",
                                 "--s", "0.5+1e9i"])
    assert code == 3 and "error:" in err


def test_eta_left_of_minus_one_on_the_real_axis_exits_three(capsys):
    # refused as input, not run into the Euler-Maclaurin budget (exit 1)
    code, out, err = _run(capsys, ["eval", "--what", "eta", "--m", "0",
                                   "--s=-30"])
    assert code == 3 and out == "" and "sigma=-30" in err


def test_eta_order_above_the_limit_exits_three(capsys):
    # refused as input, not an OverflowError traceback (exit 1)
    code, out, err = _run(capsys, ["eval", "--what", "eta", "--m", "200",
                                   "--s", "0.5+100i"])
    assert code == 3 and out == "" and "m=200" in err


def test_missing_zeros_file_exits_two(capsys, tmp_path):
    code, _, err = _run(capsys, ["--zeros", str(tmp_path / "nope.csv"),
                                 "eval", "--what", "logzeta",
                                 "--s", "0.5+30i"])
    assert code == 2 and "error:" in err


def test_zeros_directory_exits_two(capsys, tmp_path):
    code, out, err = _run(capsys, ["--zeros", str(tmp_path), "eval",
                                   "--what", "logzeta", "--s", "0.5+30i"])
    assert code == 2 and out == "" and "error:" in err


def test_out_in_a_missing_directory_exits_two(capsys, tmp_path):
    code, _, err = _run(capsys, ["--out", str(tmp_path / "nope" / "x.csv"),
                                 "dist", "tails", "--t-big", "1000",
                                 "--seed", "7", "--count", "100",
                                 "--v-list", "0"])
    assert code == 2 and "error:" in err and "Traceback" not in err


def test_eval_zeta_far_right_exits_zero(capsys):
    code, out, err = _run(capsys, ["eval", "--what", "zeta", "--s", "1e6"])
    assert code == 0 and err == ""
    assert out.split(",")[:2] == ["1.0", "0.0"]


def test_eval_zeta_above_the_height_cap_exits_three(capsys):
    # it used to exit 1 with mpmath's OverflowError
    code, out, err = _run(capsys, ["eval", "--what", "zeta",
                                   "--s", "2+1e300i"])
    assert code == 3 and out == "" and "t=" in err
    assert "Traceback" not in err


def test_logzeta_with_a_phase_of_noise_exits_three(capsys):
    # 1e-9 below the zero at gamma = 530.87, where |zeta| is far below
    # abs_err = 1e-3: refused as near a singularity, not stalled (exit 1)
    gamma = builtin_store().gammas
    t = float(gamma[abs(gamma - 530.8669).argmin()]) + 5e-10
    code, out, err = _run(capsys, ["--abs-err", "1e-3", "eval", "--what",
                                   "logzeta", "--s", f"0.5+{t!r}i"])
    assert code == 3 and out == "" and "error:" in err


def test_logzeta_at_a_target_sent_to_extended_precision_exits_three(capsys):
    # at abs_err 1e-13 and t = 1500.5 zeta goes to mpmath; the ray walks in
    # doubles, so the target is refused, naming abs_err and t
    code, out, err = _run(capsys, ["--abs-err", "1e-13", "eval", "--what",
                                   "logzeta", "--s", "0.3+1500.5i"])
    assert code == 3 and out == ""
    assert "abs_err=1e-13 at t=1500.5" in err and "Traceback" not in err


def test_malformed_zeros_file_exits_three(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("14.13\n25.01\n21.02\n")        # out of order
    code, _, err = _run(capsys, ["--zeros", str(bad),
                                 "--zeros-format", "plain-ordinates",
                                 "eval", "--what", "logzeta",
                                 "--s", "0.5+20i"])
    assert code == 3 and "error:" in err


def test_zeros_import_populates_cache(capsys, tmp_path):
    src = tmp_path / "zeros.txt"
    src.write_text(GAMMA_LINES)
    code, out, _ = _run(capsys, ["zeros-import", str(src)])
    assert code == 0
    assert "imported 3 zeros" in out
    cache = tmp_path / "cache" / "zeros.csv"
    assert cache.exists()
    # later runs prefer the (tiny) cached table: t=100 is now out of range
    code, _, err = _run(capsys, ["eval", "--what", "s_m", "--t", "100",
                                 "--m", "0"])
    assert code == 3 and "error:" in err
    # but in-range requests use it fine
    code, out, _ = _run(capsys, ["eval", "--what", "s_m", "--t", "20",
                                 "--m", "0"])
    assert code == 0


def test_zeros_flag_overrides_cache(capsys, tmp_path):
    src = tmp_path / "zeros.txt"
    src.write_text(GAMMA_LINES)
    assert main(["zeros-import", str(src)]) == 0
    bigger = tmp_path / "bigger.txt"
    bigger.write_text(GAMMA_LINES + "30.424876125859513\n")
    capsys.readouterr()
    code, _, err = _run(capsys, ["--zeros", str(bigger),
                                 "--zeros-format", "plain-ordinates",
                                 "eval", "--what", "s_m", "--t", "28",
                                 "--m", "0"])
    assert code == 0, err


def test_residual_scan_rows_and_threads(capsys):
    argv = ["residual-scan", "--m", "1", "--x-list", "10,30",
            "--t-from", "50", "--t-to", "60", "--t-step", "5"]
    code, out, _ = _run(capsys, argv)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("# metadata: ")
    meta = json.loads(lines[0][len("# metadata: "):])
    assert meta["command"] == "residual-scan" and meta["x_list"] == [10.0,
                                                                     30.0]
    assert "timestamp" not in json.dumps(meta).lower()
    header = lines[1].split(",")
    assert header[:2] == ["t", "x"] and "ratio" in header
    assert len(lines) == 2 + 3 * 2          # 3 t-values x 2 X-values
    # a rerun with the same arguments is byte-identical
    code2, out2, _ = _run(capsys, argv)
    assert code2 == 0 and out2 == out
    # there is no thread pool to ask for
    code3, _, err3 = _run(capsys, ["--threads", "3"] + argv)
    assert code3 == 3 and "error:" in err3


def test_residual_scan_rows_are_the_residual_reports(capsys):
    # eta is computed once per height and each X's polynomial once per
    # scan: every column of every row must still be exactly what residual()
    # reports for its (t, X), on the line and off it with the other kernel
    store = builtin_store()
    for extra, sigma, kernel in [
            ([], 0.5, DEFAULT_KERNEL),
            (["--sigma", "0.75", "--kernel", "tent"], 0.75,
             make_kernel("tent"))]:
        code, out, _ = _run(capsys, [
            "residual-scan", "--m", "1", "--x-list", "10,30,100", "--h", "2",
            "--t-from", "50", "--t-to", "60", "--t-step", "5"] + extra)
        assert code == 0
        lines = out.strip().splitlines()
        header = lines[1].split(",")
        assert header == ["t", "x", "eta_re", "eta_im", "poly_re", "poly_im",
                          "y_re", "y_im", "r_re", "r_im", "bound_esrm",
                          "bound_esrm2", "ratio"]
        rows = [dict(zip(header, line.split(","))) for line in lines[2:]]
        assert [(row["t"], row["x"]) for row in rows] == [
            (repr(t), repr(x)) for t in (50.0, 55.0, 60.0)
            for x in (10.0, 30.0, 100.0)]
        for row in rows:
            t, x = float(row["t"]), float(row["x"])
            rep = residual(complex(sigma, t),
                           ApproxConfig(m=1, X=x, H=2.0, kernel=kernel),
                           store, SCAN_PRECISION)
            want = [t, x]
            for value in (rep.eta, rep.poly, rep.y_m, rep.r_m):
                want += [value.real, value.imag]
            want += [rep.bound_esrm, rep.bound_esrm2, rep.ratio]
            assert [row[h] for h in header] == [repr(v) for v in want], row


def test_residual_scan_builds_each_polynomial_once(capsys, monkeypatch):
    # 3 heights x 3 X: one prime-power polynomial per X, not one per row
    built = []

    def counting_poly(*args, **kwargs):
        built.append(args[0])
        return prime_power_poly(*args, **kwargs)

    monkeypatch.setattr(approx, "prime_power_poly", counting_poly)
    code, out, err = _run(capsys, ["residual-scan", "--m", "1", "--x-list",
                                   "10,100,1000", "--t-from", "100",
                                   "--t-to", "1400", "--t-step", "650"])
    assert code == 0, err
    assert len(out.strip().splitlines()) == 2 + 9
    assert built == [100, 10000, 1000000]


def test_residual_scan_refuses_h_above_half_t(capsys):
    argv = ["residual-scan", "--m", "1", "--x-list", "10", "--h", "1e300",
            "--t-from", "50", "--t-to", "60", "--t-step", "5"]
    code, out, err = _run(capsys, argv)
    assert code == 3 and out == ""
    assert "H=1e+300" in err and "Traceback" not in err


def test_dist_tails_csv_and_json_deterministic(capsys, tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    base = ["dist", "tails", "--t-big", "1000", "--seed", "7",
            "--count", "120", "--v-list", "0,1"]
    assert main(["--out", str(out1)] + base) == 0
    assert main(["--out", str(out2)] + base) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    assert (tmp_path / "a.csv.json").read_bytes() == \
        (tmp_path / "b.csv.json").read_bytes()
    doc = json.loads((tmp_path / "a.csv.json").read_text())
    assert set(doc) == {"metadata", "rows"}
    assert doc["metadata"]["seed"] == 7
    fr = [row["fraction"] for row in doc["rows"]]
    assert fr[0] >= fr[1]
    header = out1.read_text().splitlines()[0]
    assert header == "V,fraction,stderr,gaussian_ref,jutila_ref"


def test_dist_tails_different_seed_differs(capsys, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "c.csv"
    assert main(["--out", str(a), "dist", "tails", "--t-big", "1000",
                 "--seed", "7", "--count", "120", "--v-list", "0.5"]) == 0
    assert main(["--out", str(b), "dist", "tails", "--t-big", "1000",
                 "--seed", "8", "--count", "120", "--v-list", "0.5"]) == 0
    capsys.readouterr()
    assert a.read_bytes() != b.read_bytes()


def test_dist_tmeasure(capsys):
    code, out, _ = _run(capsys, ["dist", "tmeasure", "--t-big", "1000",
                                 "--seed", "3", "--count", "100",
                                 "--x", "10", "--v", "0", "--m", "1"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1] == "V,fraction,stderr,gaussian_ref,count_exceed"
    row = lines[2].split(",")
    assert float(row[1]) == 1.0 and int(row[4]) == 100


def test_dist_moments_waiver_and_guard(capsys):
    base = ["dist", "moments", "--t-big", "1000", "--seed", "2",
            "--count", "30", "--x", "10", "--m", "1", "--k", "1"]
    code, _, err = _run(capsys, base)
    assert code == 3 and "waive" in err            # hypothesis enforced
    code, out, _ = _run(capsys, base + ["--waive-range"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1] == "empirical,bound,interval,hypothesis_waived"
    emp, bound, interval, waived = lines[2].split(",")
    assert float(emp) > 0.0 and float(bound) > 0.0
    assert interval == "theorem" and waived == "true"
    meta = json.loads(lines[0][len("# metadata: "):])
    assert meta["waive_range"] is True


@pytest.mark.parametrize("grid", [
    ["--t-from", "50", "--t-to", "inf", "--t-step", "1"],
    ["--t-from", "50", "--t-to", "nan", "--t-step", "1"],
    ["--t-from=-inf", "--t-to", "50", "--t-step", "1"],
    ["--t-from", "50", "--t-to", "60", "--t-step", "nan"],
    ["--t-from", "50", "--t-to", "50", "--t-step", "1e-300"],
    ["--t-from", "20", "--t-to", "1e9", "--t-step", "1"],
    ["--t-from", "nan", "--t-to", "50", "--t-step", "1"],
    ["--t-from", "50", "--t-to=-inf", "--t-step", "1"],
    ["--t-from", "50", "--t-to", "60", "--t-step", "inf"],
    ["--t-from", "1e20", "--t-to", "1e20", "--t-step", "1"],
])
def test_residual_scan_refuses_unbounded_grids(capsys, grid):
    code, out, err = _run(capsys, ["residual-scan", "--m", "1",
                                   "--x-list", "10"] + grid)
    assert code == 3 and out == "" and "error:" in err, grid


def test_residual_scan_grid_keeps_accumulated_points(capsys):
    # 1/8-steps land exactly on --t-to; the endpoint row is kept
    code, out, _ = _run(capsys, ["residual-scan", "--m", "1", "--x-list",
                                 "10", "--t-from", "100.125", "--t-to",
                                 "100.625", "--t-step", "0.125"])
    assert code == 0
    ts = [float(line.split(",")[0]) for line in out.strip().splitlines()[2:]]
    assert ts == [100.125, 100.25, 100.375, 100.5, 100.625]


def test_residual_scan_refuses_every_height_before_eta(capsys, monkeypatch):
    def no_eta(*args, **kwargs):
        raise AssertionError("evaluated eta before refusing")

    # the grid is 100, 800, 1500: only 1.5 t at the last is above the table
    monkeypatch.setattr(cli, "_vertical_many", no_eta)
    code, out, err = _run(capsys, ["residual-scan", "--m", "1", "--x-list",
                                   "10,100,1000", "--t-from", "100", "--t-to",
                                   "1500", "--t-step", "700"])
    assert code == 3 and out == "", err
    assert err.startswith("error: residual: t=1500.0 needs zeros up to"), err


@pytest.mark.parametrize("x", ["5e6", "1e200"])
def test_residual_scan_refuses_an_x_beyond_the_sieve_before_eta(
        capsys, monkeypatch, x):
    def no_eta(*args, **kwargs):
        raise AssertionError("evaluated eta before refusing")

    monkeypatch.setattr(cli, "_vertical_many", no_eta)
    code, out, err = _run(capsys, ["residual-scan", "--m", "1", "--x-list",
                                   f"10,{x}", "--t-from", "100", "--t-to",
                                   "100", "--t-step", "1"])
    assert code == 3 and out == "", err
    assert f"X={float(x)} needs the sieve" in err, err


def test_dist_tmeasure_refuses_an_x_beyond_the_sieve_unsampled(capsys,
                                                               monkeypatch):
    drawn = []

    def counting_samples(*args):
        drawn.append(args)
        return _samples(*args)

    monkeypatch.setattr(distribution, "_samples", counting_samples)
    code, out, err = _run(capsys, ["dist", "tmeasure", "--t-big", "1000",
                                   "--seed", "1", "--count", "100",
                                   "--x", "5e6", "--v", "0.5", "--m", "1"])
    assert code == 3 and out == "", err
    assert "X=5000000.0 needs the sieve" in err, err
    assert drawn == []


@pytest.mark.parametrize("sub", [
    ["tails", "--v-list", "0.5"],
    ["tmeasure", "--x", "10", "--v", "0.5", "--m", "1"],
    ["moments", "--x", "10", "--m", "1", "--k", "1"],
])
def test_dist_refuses_a_count_above_the_cap_unsampled(capsys, monkeypatch,
                                                      sub):
    # one over the cap residual-scan's t-grid has: exit 3 before any draw
    drawn = []

    def counting_samples(*args):
        drawn.append(args)
        return _samples(*args)

    monkeypatch.setattr(distribution, "_samples", counting_samples)
    code, out, err = _run(capsys, ["dist", sub[0], "--t-big", "1000",
                                   "--seed", "1", "--count",
                                   str(MAX_GRID_POINTS + 1)] + sub[1:])
    assert code == 3 and out == "", err
    assert f"--count {MAX_GRID_POINTS + 1}" in err, err
    assert drawn == []


@pytest.mark.parametrize("k", ["42", "60"])
def test_dist_moments_refuses_a_majorant_past_a_double(capsys, k):
    code, out, err = _run(capsys, ["dist", "moments", "--t-big", "100",
                                   "--seed", "1", "--count", "5", "--x", "10",
                                   "--m", "1", "--k", k, "--waive-range"])
    assert code == 3 and out == "", err
    assert f"k={k}, m=1" in err, err


def test_check_routes_exits_1_when_the_sweep_leaves_the_branch(
        capsys, slipped_branch):
    # the iterated route's end check refuses, and the command exits 1
    code, out, err = _run(capsys, ["eval", "--what", "eta", "--s", "0.8+40i",
                                   "--m", "1", "--check-routes"])
    assert code == 1 and "winding sweep disagrees" in err, err


@pytest.mark.parametrize("sub", ["tmeasure", "moments"])
@pytest.mark.parametrize("x", ["nan", "inf", "-5", "1"])
def test_dist_refuses_bad_x(capsys, sub, x):
    argv = ["dist", sub, "--t-big", "100", "--seed", "1", "--count", "100",
            "--x", x, "--m", "1"]
    argv += ["--v", "0.5"] if sub == "tmeasure" else ["--waive-range"]
    code, out, err = _run(capsys, argv)
    assert code == 3 and out == "" and "X >= 2" in err, argv


@pytest.mark.parametrize("argv, name", [
    (["residual-scan", "--m", "1", "--x-list", "10", "--t-from", "60",
      "--t-to", "50", "--t-step", "1"], "--t-to"),
    (["residual-scan", "--m", "1", "--x-list", "10", "--sigma", "nan",
      "--t-from", "50", "--t-to", "50", "--t-step", "1"], "sigma"),
    (["residual-scan", "--m", "1", "--x-list", "10", "--sigma", "inf",
      "--t-from", "50", "--t-to", "50", "--t-step", "1"], "sigma"),
    (["dist", "tails", "--t-big", "100", "--seed", "1", "--count", "100",
      "--v-list", "0.5,nan"], "threshold V"),
    (["dist", "tmeasure", "--t-big", "100", "--seed", "1", "--count", "100",
      "--x", "10", "--v", "nan"], "threshold V"),
    (["dist", "tmeasure", "--t-big", "100", "--seed", "1", "--count", "100",
      "--x", "10", "--v", "inf"], "threshold V"),
    (["dist", "moments", "--t-big", "100", "--seed", "1", "--count", "10",
      "--x", "10", "--waive-range", "--sigma", "inf"], "sigma"),
    (["dist", "moments", "--t-big", "100", "--seed", "1", "--count", "10",
      "--x", "10", "--waive-range", "--sigma", "nan"], "sigma"),
    (["dist", "moments", "--t-big", "100", "--seed", "1", "--count", "10",
      "--x", "10", "--waive-range", "--c", "-1"], "trial_c"),
    (["dist", "tails", "--t-big", "2", "--seed", "1", "--count", "100",
      "--v-list", "0.5"], "T=2.0"),
    (["dist", "tails", "--t-big", "nan", "--seed", "1", "--count", "100",
      "--v-list", "0.5"], "T=nan"),
    (["dist", "tmeasure", "--t-big", "100", "--seed", "1", "--count", "100",
      "--x", "2.5", "--v", "0.5", "--m", "0"], "m = 0 needs X >= 3"),
    (["dist", "tails", "--t-big", "100", "--seed", "-1", "--count", "100",
      "--v-list", "0.5"], "seed=-1"),
    (["eval", "--what", "eta", "--s", "nan+20i", "--m", "1"], "s=(nan+20j)"),
])
def test_refusals_name_the_parameter(capsys, argv, name):
    code, out, err = _run(capsys, argv)
    assert code == 3 and out == "" and name in err, argv


# --- parsing and the residual-scan grid, by property -------------------------

_finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(allow_nan=False), max_size=6))
def test_parse_floats_round_trips(values):
    assert _parse_floats(",".join(map(repr, values))) == values
    assert _parse_floats(" , ".join(map(repr, values)) + ",") == values


@settings(max_examples=60, deadline=None)
@given(st.text(max_size=20))
def test_parse_floats_and_complex_refuse_only_by_validation(text):
    for parse in (_parse_floats, _parse_complex):
        try:
            parse(text)
        except ValidationError:
            pass


@settings(max_examples=60, deadline=None)
@given(_finite, _finite, st.sampled_from(["i", "I", "j"]),
       st.sampled_from(["", " "]))
def test_parse_complex_round_trips(re_, im, unit, pad):
    sign = "-" if math.copysign(1.0, im) < 0 else "+"
    text = f"{re_!r}{pad}{sign}{pad}{abs(im)!r}{unit}"
    assert _parse_complex(text) == complex(re_, im)


@settings(max_examples=40, deadline=None)
@given(_finite, _finite, st.floats(min_value=0.0, exclude_min=True,
                                   allow_infinity=False))
def test_t_grid_is_ascending_and_bounded(a, b, step):
    t_from, t_to = min(a, b), max(a, b)
    try:
        ts = _t_grid(t_from, t_to, step)
    except ValidationError:
        return                            # too many points, or t + step == t
    assert ts[0] == t_from
    assert all(x < y for x, y in zip(ts, ts[1:]))
    assert ts[-1] <= t_to + 1e-12
    assert len(ts) <= MAX_GRID_POINTS + 1


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=-1e6, max_value=1e6),
       st.floats(min_value=1e-9, max_value=1e6))
def test_residual_scan_reversed_grid_exits_3(t_to, gap):
    t_from = t_to + gap
    if t_from == t_to:
        return
    argv = ["residual-scan", "--m", "1", "--x-list", "10",
            f"--t-from={t_from!r}", f"--t-to={t_to!r}", "--t-step=1"]
    assert main(argv) == 3
