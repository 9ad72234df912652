"""End-to-end tests of the command-line surface."""

import hashlib
import io
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import rednets as rn
from oracles import matrices, row
from rednets.cli import main
from rednets.product import write_product_bin, write_product_csv


ROOT = Path(__file__).resolve().parent.parent


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_then_tvalue_reports_zero(tmp_path, capsys):
    net = tmp_path / "net.txt"
    code, _, _ = run(capsys, "gen", "--b", "2", "--m", "4", "--s", "2",
                     "--source", "pascal", "--out", str(net))
    assert code == 0
    code, out, _ = run(capsys, "tvalue", "--net", str(net))
    assert code == 0
    assert out.strip() == "t = 0"


def test_reduce_then_tvalue_reports_one(tmp_path, capsys):
    net = tmp_path / "net.txt"
    red = tmp_path / "red.txt"
    run(capsys, "gen", "--b", "2", "--m", "4", "--s", "2", "--out", str(net))
    code, _, _ = run(capsys, "reduce", "--net", str(net),
                     "--w", "explicit:0,1", "--out", str(red))
    assert code == 0
    code, out, _ = run(capsys, "tvalue", "--net", str(red))
    assert code == 0
    assert out.strip() == "t = 1"
    code, out, _ = run(capsys, "rho", "--net", str(red))
    assert code == 0
    assert out.strip() == "rho = 3"


def test_row_axis_reduce(tmp_path, capsys):
    net = tmp_path / "net.txt"
    red = tmp_path / "red.txt"
    run(capsys, "gen", "--b", "2", "--m", "4", "--s", "2", "--out", str(net))
    code, _, _ = run(capsys, "reduce", "--net", str(net), "--w", "explicit:0,1",
                     "--axis", "rows", "--out", str(red))
    assert code == 0
    with open(red) as fh:
        loaded = rn.read_net(fh)
    assert row(matrices(loaded)[1], 3) == (0, 0, 0, 0)
    assert row(matrices(loaded)[1], 0) == (1, 1, 1, 1)


def test_points_csv_output(tmp_path, capsys):
    net = tmp_path / "net.txt"
    run(capsys, "gen", "--b", "2", "--m", "2", "--s", "2", "--out", str(net))
    code, out, _ = run(capsys, "points", "--net", str(net))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "k,x1,x2"
    assert len(lines) == 5


def test_product_fast_and_standard_agree(tmp_path, capsys):
    net = tmp_path / "net.txt"
    red = tmp_path / "red.txt"
    a = tmp_path / "a.csv"
    pf = tmp_path / "pf.csv"
    ps = tmp_path / "ps.csv"
    run(capsys, "gen", "--b", "2", "--m", "5", "--s", "3", "--source", "random",
        "--seed", "7", "--out", str(net))
    run(capsys, "reduce", "--net", str(net), "--w", "explicit:0,1,3",
        "--out", str(red))
    a.write_text("1.5,-2.0\n0.25,1.0\n3.0,0.5\n")
    code, _, _ = run(capsys, "product", "--net", str(red), "--a", str(a),
                     "--algo", "fast", "--w", "explicit:0,1,3", "--out", str(pf))
    assert code == 0
    code, _, _ = run(capsys, "product", "--net", str(red), "--a", str(a),
                     "--algo", "standard", "--out", str(ps))
    assert code == 0
    f = np.loadtxt(pf, delimiter=",", skiprows=1)
    s = np.loadtxt(ps, delimiter=",", skiprows=1)
    assert np.allclose(f, s, rtol=1e-12, atol=1e-14)


def test_product_binary_output(tmp_path, capsys):
    net = tmp_path / "net.txt"
    a = tmp_path / "a.csv"
    out = tmp_path / "p.bin"
    run(capsys, "gen", "--b", "2", "--m", "3", "--s", "2", "--out", str(net))
    a.write_text("1.0\n1.0\n")
    code, _, _ = run(capsys, "product", "--net", str(net), "--a", str(a),
                     "--algo", "standard", "--bin", "--out", str(out))
    assert code == 0
    with open(out, "rb") as fh:
        from rednets.product import read_product_bin
        p = read_product_bin(fh)
    assert p.shape == (8, 1)


def test_standard_product_builds_no_point_block(tmp_path, capsys):
    # the int64 point block of b = 2, m = 12, s = 400 alone is 13.1 MB; the
    # product streams it in chunks of at most 2^18 numerators (2 MiB)
    net, a, out = tmp_path / "net.txt", tmp_path / "a.csv", tmp_path / "p.bin"
    with open(net, "w") as fh:
        rn.write_net(rn.random_net(2, 12, 400, seed=3), fh)
    a.write_text("0.5,-1.25\n" * 400)
    tracemalloc.start()
    try:
        code, _, _ = run(capsys, "product", "--net", str(net), "--a", str(a),
                         "--algo", "standard", "--bin", "--out", str(out))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and out.stat().st_size == 16 + 4096 * 2 * 8
    assert peak < 4 << 20


def test_every_command_leaves_the_ufunc_buffer_size_as_it_was(tmp_path, capsys):
    net, red, a = tmp_path / "net.txt", tmp_path / "red.txt", tmp_path / "a.csv"
    a.write_text("0.5,-1.25,2.0\n" * 5)
    commands = [
        ["gen", "--b", "3", "--m", "7", "--s", "5", "--source", "random",
         "--seed", "2", "--out", str(net)],
        ["reduce", "--net", str(net), "--w", "sqrtlog", "--out", str(red)],
        ["points", "--net", str(red), "--out", str(tmp_path / "x.csv")],
        ["rho", "--net", str(red)],
        ["tvalue", "--net", str(red)],
        ["report", "--net", str(red), "--w", "sqrtlog"],
        ["disc-bound", "--net", str(red), "--w", "sqrtlog", "--weights", "const:1"],
        ["product", "--net", str(red), "--a", str(a), "--algo", "fast",
         "--w", "sqrtlog", "--transform", "norminv", "--out", str(tmp_path / "f.csv")],
        ["product", "--net", str(red), "--a", str(a), "--algo", "standard",
         "--bin", "--out", str(tmp_path / "s.bin")],
        # exits 2: the net was reduced by sqrtlog, not log
        ["product", "--net", str(red), "--a", str(a), "--algo", "fast",
         "--w", "log", "--out", str(tmp_path / "bad.csv")],
    ]
    old_size, old_err = np.setbufsize(4096), np.seterr(over="raise")
    caller = (np.getbufsize(), np.geterr())
    try:
        seen = [(run(capsys, *argv)[0], (np.getbufsize(), np.geterr())) for argv in commands]
    finally:
        np.setbufsize(old_size)
        np.seterr(**old_err)
    assert seen == [(0, caller)] * 9 + [(2, caller)]


def test_report_command(tmp_path, capsys):
    net = tmp_path / "net.txt"
    run(capsys, "gen", "--b", "2", "--m", "4", "--s", "2", "--out", str(net))
    code, out, _ = run(capsys, "report", "--net", str(net), "--w", "explicit:0,1")
    assert code == 0
    import json
    payload = json.loads(out)
    assert payload["rho"] == 3
    assert payload["t_exact"] == 1


def test_disc_bound_command(tmp_path, capsys):
    net = tmp_path / "net.txt"
    run(capsys, "gen", "--b", "2", "--m", "4", "--s", "2", "--out", str(net))
    code, out, _ = run(capsys, "disc-bound", "--net", str(net),
                       "--w", "explicit:0,1", "--weights", "const:1")
    assert code == 0
    assert "bound = 0.4791666666666667" in out


@pytest.mark.parametrize("w,weights,term", [
    ("log", "1e200,1e200,1e200", "higher"),
    ("log", "1e308,1e308,1e308", "singles"),
    # a fully reduced third coordinate; its product overflows without a warning
    ("explicit:0,1,5", "1e200,1e200,1e200", "outside"),
])
def test_disc_bound_that_overflows_exits_2(tmp_path, capsys, w, weights, term):
    net = tmp_path / "net.txt"
    run(capsys, "gen", "--b", "2", "--m", "4", "--s", "3", "--source", "random", "--seed", "1",
        "--out", str(net))
    code, out, err = run(capsys, "disc-bound", "--net", str(net), "--w", w,
                         "--weights", weights)
    assert (code, out) == (2, "")
    assert err == f"error: term_{term} is not finite (inf): the weights overflow float64\n"
    # weights of 1e10 still give a finite bound
    code, out, _ = run(capsys, "disc-bound", "--net", str(net), "--w", "log",
                       "--weights", "1e10,1e10,1e10")
    assert code == 0 and "bound = 1.7000000000000001e+31" in out


def test_exit_code_2_on_validation_error(tmp_path, capsys):
    net = tmp_path / "net.txt"
    run(capsys, "gen", "--b", "2", "--m", "4", "--s", "2", "--out", str(net))
    code, _, err = run(capsys, "reduce", "--net", str(net),
                       "--w", "explicit:0,1,2", "--out", "-")
    assert code == 2
    assert err.startswith("error:")
    code, _, err = run(capsys, "tvalue", "--net", str(tmp_path / "missing.txt"))
    assert code == 2


# Every malformed net file and its exact message.  The "1 2", "1,0", "\u0663"
# and ":" bodies have the length of write_net's layout, so they meet
# read_net's byte check before the line parser.
NET_FILE_ERRORS = {
    "": "empty net file",
    "\n \n": "empty net file",
    "2 2\n1 0\n0 1\n": "header must be 'b m s'",
    "2 2 1\n1 0\n": "expected 3 lines, found 2",
    "2 2 1\n1 0\n0 1\n1 1\n": "expected 3 lines, found 4",
    "2 2 1\n1 0 1\n0 1\n":
        "bad net file body: the number of columns changed from 3 to 2 at row 2",
    "2 2 1\n1 0 1\n0 1 0\n": "row length 3 != m = 2",
    "2 2 1\n1 0\n0 2\n": "digit 2 outside [0, 2)",
    "3 2 1\n1 0\n0 -1\n": "digit -1 outside [0, 3)",
    "2 2 1\n1 0\n0 1.0\n":
        "bad net file body: could not convert string '1.0' to int64 at row 1, column 2.",
    "2 2 1\n1 0\nx 1\n":
        "bad net file body: could not convert string 'x' to int64 at row 1, column 1.",
    "2 2 1\n1 0\n# 1\n":
        "bad net file body: could not convert string '#' to int64 at row 1, column 1.",
    "2 x 1\n1 0\n0 1\n": "invalid literal for int() with base 10: 'x'",
    "4 2 1\n1 0\n0 1\n": "base must be a prime below 2^63, got 4",
    "2 0 1\n": "header needs m >= 1 and s >= 1",
    "2 2 0\n": "header needs m >= 1 and s >= 1",
    f"{2**89 - 1} 1 1\n0\n": f"base must be a prime below 2^63, got {2**89 - 1}",
    "2 2 1\n1 2\n0 1\n": "digit 2 outside [0, 2)",
    "2 2 1\n1,0\n0 1\n":
        "bad net file body: could not convert string '1,0' to int64 at row 0, column 1.",
    "2 2 1\n1 \u0663\n0 1\n":  # ARABIC-INDIC DIGIT THREE
        "bad net file body: could not convert string '\u0663' to int64 at row 0, column 2.",
    "11 2 1\n1 :\n0 1\n":  # ":" follows "9" in ASCII
        "bad net file body: could not convert string ':' to int64 at row 0, column 2.",
    # s*m lines are counted before anything is allocated
    "2 100000 100000\n0 1\n": "expected 10000000001 lines, found 2",
}


@pytest.mark.parametrize("text", list(NET_FILE_ERRORS))
def test_malformed_net_file_is_a_one_line_error_with_exit_2(tmp_path, capsys, text):
    with pytest.raises(ValueError) as err:
        rn.read_net(io.StringIO(text))
    assert str(err.value) == NET_FILE_ERRORS[text]
    net, a = tmp_path / "bad.txt", tmp_path / "a.csv"
    net.write_text(text)
    a.write_text("1\n1\n")
    code, _, err_text = run(capsys, "product", "--net", str(net), "--a", str(a),
                            "--algo", "standard")
    assert code == 2
    assert err_text.startswith("error:") and err_text.count("\n") == 1


def test_exit_code_3_on_budget_exhaustion(tmp_path, capsys, monkeypatch):
    net = tmp_path / "net.txt"
    run(capsys, "gen", "--b", "2", "--m", "8", "--s", "6", "--source", "random",
        "--out", str(net))
    monkeypatch.setenv("REDNETS_ENUM_BUDGET", "10")
    code, _, err = run(capsys, "tvalue", "--net", str(net))
    assert code == 3
    assert err.startswith("error:")



@pytest.mark.parametrize("raw", ["abc", "1e6", "-3"])
def test_malformed_or_negative_budget_variable_exits_2(tmp_path, capsys, monkeypatch, raw):
    net = tmp_path / "net.txt"
    run(capsys, "gen", "--b", "2", "--m", "4", "--s", "2", "--out", str(net))
    monkeypatch.setenv("REDNETS_ENUM_BUDGET", raw)
    for argv in (["tvalue"], ["report", "--w", "explicit:0,1"]):
        code, out, err = run(capsys, *argv, "--net", str(net))
        assert (code, out) == (2, "")
        assert err == f"error: REDNETS_ENUM_BUDGET must be a nonnegative integer, got {raw!r}\n"


@pytest.mark.parametrize("cmd,cap,floor", [
    (["disc-bound", "--weights", "const:1"], "0", 1),
    (["report"], "-2", 0),
])
def test_proj_cap_below_range_exits_2(tmp_path, capsys, cmd, cap, floor):
    net = tmp_path / "net.txt"
    run(capsys, "gen", "--b", "2", "--m", "4", "--s", "2", "--out", str(net))
    code, out, err = run(capsys, *cmd, "--net", str(net), "--w", "explicit:0,1",
                         "--proj-cap", cap)
    assert (code, out) == (2, "")
    assert err == f"error: proj_cap must be >= {floor}, got {cap}\n"

# exit-3 diagnostics of b=2 m=10 s=5 random nets under the log schedule and
# the default cap, recorded before the projection scans were seeded
DISC_BOUND_EXIT_3 = {
    1: "30 projections exceed budget 1",
    50: "1 interval shapes x 1024 points exceeds budget 50",
    10**3: "1 interval shapes x 1024 points exceeds budget 1000",
    10**4: "11 interval shapes x 1024 points exceeds budget 10000",
    10**5: "286 interval shapes x 1024 points exceeds budget 100000",
    10**6: None,
}


@pytest.mark.parametrize("seed", range(4))
def test_budget_diagnostics_of_report_and_disc_bound_are_unchanged(
    tmp_path, capsys, monkeypatch, seed
):
    net = tmp_path / "net.txt"
    with open(net, "w") as fh:
        rn.write_net(rn.random_net(2, 10, 5, seed), fh)
    for budget, disc in DISC_BOUND_EXIT_3.items():
        monkeypatch.setenv("REDNETS_ENUM_BUDGET", str(budget))
        code, _, err = run(capsys, "report", "--net", str(net), "--w", "log")
        assert (code, err) == (
            3, f"error: 1001 interval shapes x 1024 points exceeds budget {budget}\n"
        )
        code, _, err = run(capsys, "disc-bound", "--net", str(net), "--w", "log",
                           "--weights", "poly:2")
        assert (code, err) == ((3, f"error: {disc}\n") if disc else (0, ""))


@pytest.mark.parametrize("net_text,a_text,message", [
    ("2 2 1\n0;1 1\n1 0\n", "1\n",
     "bad net file body: could not convert string '0;1' "),
    (None, "1,2\n3;4,5\n", "bad matrix file: could not convert string '3;4' "),
    ("2 2 1\n1 0 1\n0 1\n", "1\n",
     "bad net file body: the number of columns changed from 3 to 2 at row 2\n"),
])
def test_text_table_diagnostics_quote_the_whole_bad_cell(
    tmp_path, capsys, net_text, a_text, message
):
    net, a = tmp_path / "net.txt", tmp_path / "a.csv"
    if net_text is None:
        with open(net, "w") as fh:
            rn.write_net(rn.pascal_net(2, 2, 2), fh)
    else:
        net.write_text(net_text)
    a.write_text(a_text)
    code, _, err = run(capsys, "product", "--net", str(net), "--a", str(a),
                       "--algo", "standard")
    assert code == 2 and err.count("\n") == 1
    assert err.startswith(f"error: {message}")


@pytest.mark.parametrize("fmt", [(), ("--bin",)], ids=["csv", "bin"])
@pytest.mark.parametrize("a_text,argv,row", [
    pytest.param("1e308,1\n1e308,-1\n0,0\n", ("--algo", "fast", "--w", "explicit:0,1,4"), 16,
                 id="fast"),
    pytest.param("1e308,1\n1e308,-1\n0,0\n", ("--algo", "standard"), 16, id="standard"),
    pytest.param("1e308\n-1e308\n0\n", ("--algo", "standard", "--transform", "norminv"), 1,
                 id="standard-norminv"),
    # the constant phi(0) a_3 of the fully reduced coordinate overflows
    pytest.param("0\n0\n1e308\n", ("--algo", "fast", "--w", "explicit:0,1,4",
                                     "--transform", "norminv"), 1, id="fast-norminv-reduced"),
])
def test_overflowing_product_exits_2_with_one_line(tmp_path, capsys, fmt, a_text, argv, row):
    """A finite A whose X A overflows float64 is an error, not inf or nan
    rows; pytest turns numpy's RuntimeWarning into an error here."""
    net, red, a, out = (tmp_path / f for f in ("net.txt", "red.txt", "a.csv", "p.out"))
    run(capsys, "gen", "--b", "2", "--m", "4", "--s", "3", "--source", "pascal", "--out", str(net))
    run(capsys, "reduce", "--net", str(net), "--w", "explicit:0,1,4", "--out", str(red))
    a.write_text(a_text)
    code, stdout, err = run(capsys, "product", "--net", str(red), "--a", str(a), *argv, *fmt)
    assert (code, stdout) == (2, "")
    assert err == f"error: X A is not finite at row {row}, column 1: A overflows float64\n"
    code, _, err = run(capsys, "product", "--net", str(red), "--a", str(a), *argv, *fmt,
                       "--out", str(out))
    assert (code, err.count("\n"), out.exists()) == (2, 1, False)


def test_disc_bound_counts_projections_before_checking_them(tmp_path):
    # s* = 255 and cap 4 give 174825280 subsets: checking them would not finish
    net = tmp_path / "net.txt"
    with open(net, "w") as fh:
        rn.write_net(rn.random_net(2, 8, 300, seed=1), fh)
    env = {k: v for k, v in os.environ.items() if k != "REDNETS_ENUM_BUDGET"}
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "rednets.cli", "disc-bound", "--net", str(net),
         "--w", "log", "--weights", "poly:2", "--proj-cap", "4"],
        capture_output=True, text=True, env=env, timeout=30,
    )
    assert proc.returncode == 3
    assert proc.stderr == "error: 174825280 projections exceed budget 10000000\n"


def test_disc_bound_projection_gate_is_exact(tmp_path, capsys, monkeypatch):
    # 8 + 28 = 36 subsets of size <= 2; each strict_t needs at most 3 x 4 cells
    net = tmp_path / "net.txt"
    run(capsys, "gen", "--b", "2", "--m", "2", "--s", "8", "--source", "random",
        "--out", str(net))
    argv = ("disc-bound", "--net", str(net), "--w", "explicit:0,0,0,0,0,0,0,0",
            "--weights", "poly:2", "--proj-cap", "2")
    monkeypatch.setenv("REDNETS_ENUM_BUDGET", "36")
    code, out, _ = run(capsys, *argv)
    assert code == 0 and "bound = " in out
    monkeypatch.setenv("REDNETS_ENUM_BUDGET", "35")
    assert run(capsys, *argv) == (3, "", "error: 36 projections exceed budget 35\n")


def test_product_norminv_shift_spec_matches_library(tmp_path, capsys):
    sched = rn.ReductionSchedule.floor_log(5, 3, 4)
    net = rn.column_reduce(rn.random_net(3, 4, 5, seed=2), sched)
    path, a_path = tmp_path / "net.txt", tmp_path / "a.csv"
    with open(path, "w") as fh:
        rn.write_net(net, fh)
    a = np.random.default_rng(3).standard_normal((5, 3))
    a_path.write_text("".join(",".join(map(repr, row)) + "\n" for row in a.tolist()))
    tr = rn.Transform.normal_inverse(0.001)
    common = ("product", "--net", str(path), "--a", str(a_path),
              "--transform", "norminv:0.001")

    code, out, _ = run(capsys, *common, "--algo", "fast", "--w", "log")
    buf = io.StringIO()
    write_product_csv(rn.fast_reduced_product(net, sched, a, tr), buf)
    assert (code, out) == (0, buf.getvalue())

    out_bin = tmp_path / "p.bin"
    code, _, _ = run(capsys, *common, "--algo", "standard", "--bin", "--out", str(out_bin))
    buf = io.BytesIO()
    write_product_bin(rn.standard_product(net, a, tr), buf)
    assert code == 0 and out_bin.read_bytes() == buf.getvalue()

    code, _, err = run(capsys, "product", "--net", str(path), "--a", str(a_path),
                       "--algo", "fast", "--w", "log", "--transform", "norminv:0")
    assert code == 2 and err == "error: norminv needs a positive right shift\n"


@pytest.mark.parametrize("algo, w, line", [
    pytest.param("fast", (), "--algo fast requires --w", id="fast"),
    # a schedule that does not fit the net is not silently ignored
    pytest.param("standard", ("--w", "explicit:0,9,9"), "--algo standard takes no --w",
                 id="standard"),
])
def test_product_takes_w_with_the_fast_algorithm_only(tmp_path, capsys, algo, w, line):
    net, a = tmp_path / "net.txt", tmp_path / "a.csv"
    run(capsys, "gen", "--b", "2", "--m", "4", "--s", "3", "--out", str(net))
    a.write_text("1,2\n3,4\n5,6\n")
    code, out, err = run(capsys, "product", "--net", str(net), "--a", str(a),
                         "--algo", algo, *w)
    assert (code, out, err) == (2, "", f"error: {line}\n")


def test_bench_is_no_longer_a_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--m-list", "8", "--tau", "20", "--s-list", "800"])
    assert exc.value.code == 2
    assert "invalid choice: 'bench'" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "product" in out and "bench" not in out


def test_determinism_same_seed_same_bytes(tmp_path, capsys):
    first = {}
    second = {}
    for label, store in (("a", first), ("b", second)):
        net = tmp_path / f"net_{label}.txt"
        red = tmp_path / f"red_{label}.txt"
        pts = tmp_path / f"pts_{label}.csv"
        prod = tmp_path / f"prod_{label}.csv"
        run(capsys, "gen", "--b", "2", "--m", "5", "--s", "4", "--source",
            "random", "--seed", "99", "--out", str(net))
        run(capsys, "reduce", "--net", str(net), "--w", "log", "--out", str(red))
        run(capsys, "points", "--net", str(red), "--out", str(pts))
        a = tmp_path / f"a_{label}.csv"
        a.write_text("1.0,2.0\n-1.0,0.5\n0.25,0.75\n2.0,-3.0\n")
        run(capsys, "product", "--net", str(red), "--a", str(a), "--algo",
            "fast", "--w", "log", "--out", str(prod))
        code, report, _ = run(capsys, "report", "--net", str(net), "--w", "log")
        assert code == 0
        store["net"] = net.read_bytes()
        store["red"] = red.read_bytes()
        store["pts"] = pts.read_bytes()
        store["prod"] = prod.read_bytes()
        store["report"] = report
    assert first == second


def test_rho_on_more_coordinates_than_the_recursion_limit(tmp_path, capsys):
    net = tmp_path / "net.txt"
    code, _, _ = run(capsys, "gen", "--b", "2", "--m", "2", "--s", "1200",
                     "--source", "random", "--seed", "1", "--out", str(net))
    assert code == 0
    code, out, err = run(capsys, "rho", "--net", str(net))
    assert (code, out, err) == (0, "rho = 0\n", "")


def test_rho_on_a_net_with_a_huge_prime_base_exits_at_once(tmp_path):
    # 2^61 - 1 is prime: the primality check on the header base must not
    # take time growing with sqrt(b).
    net = tmp_path / "net.txt"
    net.write_text("2305843009213693951 1 1\n0\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "rednets.cli", "rho", "--net", str(net)],
        capture_output=True, text=True, env=env, timeout=30,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "rho = 0"


@pytest.mark.parametrize("base", ["0", "1", "4"])
def test_gen_random_rejects_bad_base_with_exit_2(capsys, base):
    code, out, err = run(capsys, "gen", "--b", base, "--m", "2", "--s", "3",
                         "--source", "random")
    assert (code, out) == (2, "")
    assert err == f"error: base must be a prime below 2^63, got {base}\n"


@pytest.mark.parametrize("name", ["m", "s"])
def test_gen_random_rejects_m_or_s_below_one_with_exit_2(capsys, name):
    sizes = {"m": "2", "s": "3", name: "0"}
    code, out, err = run(capsys, "gen", "--b", "2", "--m", sizes["m"],
                         "--s", sizes["s"], "--source", "random")
    assert (code, out, err) == (2, "", f"error: {name} must be >= 1\n")


@pytest.mark.parametrize("source,m,s", [("random", 100000, 100), ("pascal", 20000, 1)])
def test_gen_oversized_net_exits_2_before_allocating(tmp_path, capsys, source, m, s):
    # s m^2 digits: 7.28 TiB of uint64 draws, or 4e8 exact binomials
    out_file = tmp_path / "net.txt"
    code, out, err = run(capsys, "gen", "--b", "2", "--m", str(m), "--s", str(s),
                         "--source", source, "--out", str(out_file))
    assert (code, out) == (2, "")
    assert err == f"error: net of {s * m * m} entries exceeds the limit of 268435456\n"
    assert not out_file.exists()


@pytest.mark.parametrize("weights", ["poly:nan", "poly:inf", "const:inf", "inf,1,1"])
def test_disc_bound_rejects_non_finite_weights_with_exit_2(tmp_path, capsys, weights):
    message = {
        "poly": "polynomial decay exponent must be >= 0 and finite",
        "const": "constant weight must be positive and finite",
    }.get(weights.split(":")[0], "weights must be positive and finite")
    net = tmp_path / "net.txt"
    run(capsys, "gen", "--b", "2", "--m", "4", "--s", "2", "--out", str(net))
    code, out, err = run(capsys, "disc-bound", "--net", str(net),
                         "--w", "explicit:0,1", "--weights", weights)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_tvalue_on_a_net_with_a_huge_prime_base_is_rejected_before_allocating(
    tmp_path, capsys
):
    net = tmp_path / "net.txt"
    net.write_text("2305843009213693951 1 1\n0\n")
    code, out, err = run(capsys, "tvalue", "--net", str(net))
    assert (code, out) == (2, "")
    assert err == (
        "error: point block of 2305843009213693951 entries exceeds the limit of 268435456\n"
    )


@pytest.mark.parametrize("cmd", [
    ["report"],
    ["disc-bound", "--weights", "poly:2"],
    # A is read first, and its one row would not match the net: the block wins
    ["product", "--algo", "standard", "--a", "A_CSV"],
])
@pytest.mark.parametrize("net_text,w,entries", [
    ("2305843009213693951 1 1\n0\n", "explicit:0", 2305843009213693951),
    (None, "log", 2**20 * 300),
])
def test_report_and_disc_bound_refuse_an_oversized_point_block_with_exit_2(
    tmp_path, capsys, cmd, net_text, w, entries
):
    # the rank scans and the streamed standard product build no block, but
    # keep the limit of the one they stand for
    net, a = tmp_path / "net.txt", tmp_path / "a.csv"
    if net_text is None:
        assert run(capsys, "gen", "--b", "2", "--m", "20", "--s", "300",
                   "--out", str(net))[0] == 0
    else:
        net.write_text(net_text)
    a.write_text("1.5\n")
    cmd = [str(a) if arg == "A_CSV" else arg for arg in cmd]
    if cmd[0] != "product":  # the standard product takes no schedule
        cmd += ["--w", w]
    code, out, err = run(capsys, *cmd, "--net", str(net))
    assert (code, out) == (2, "")
    assert err == f"error: point block of {entries} entries exceeds the limit of 268435456\n"


def reduced_net_and_a(tmp_path, capsys, b, m, s, w, tau=20):
    """Reduced random net (seed 1) and a standard normal A (seed 0) as files."""
    net, red, a = tmp_path / "net.txt", tmp_path / "red.txt", tmp_path / "a.csv"
    assert run(capsys, "gen", "--b", str(b), "--m", str(m), "--s", str(s),
               "--source", "random", "--seed", "1", "--out", str(net))[0] == 0
    assert run(capsys, "reduce", "--net", str(net), "--w", w, "--out", str(red))[0] == 0
    rows = np.random.default_rng(0).standard_normal((s, tau)).tolist()
    a.write_text("".join(",".join(map(repr, row)) + "\n" for row in rows))
    return red, a


@pytest.mark.parametrize("b,m,s,w,algo,transform,digest", [
    # the perfbench shapes: paper_standard, paper_fast and base3_norminv
    (2, 12, 800, "log", "standard", "identity",
     "dcfaf31d6b7cda665b4acbb8dea7e856a7dd3a93595b89d65f3a84264883ddd7"),
    (2, 12, 800, "log", "fast", "identity",
     "538f919019a76b57aad02f21feb81d5413bcecb1030e374c27cddca4582fe34f"),
    (3, 8, 400, "sqrtlog", "fast", "norminv",
     "ae31aec260d5ac27b388183c7c6d37881dbdf137d12e7a92ada31a1a7e69e7f2"),
    (3, 8, 400, "sqrtlog", "standard", "norminv",
     "69437802701fe81b216b09a2c520308da27d629818c2bf5a034b27cc0f45232a"),
])
def test_product_files_are_pinned(tmp_path, capsys, b, m, s, w, algo, transform, digest):
    # sha256 of the files written by the whole-block standard product and
    # the row-major point kernel; --bin for the standard product, CSV else
    red, a = reduced_net_and_a(tmp_path, capsys, b, m, s, w)
    out = tmp_path / "p.out"
    argv = ["product", "--net", str(red), "--a", str(a), "--algo", algo,
            "--transform", transform, "--out", str(out)]
    argv += ["--bin"] if algo == "standard" else ["--w", w]
    assert run(capsys, *argv)[0] == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("b,m,s,w,digest", [
    (2, 10, 30, "log", "d99685f15135a50e3b9705e4d678d1f427c7339cc928f7afdcc0fd21da0cd4e8"),
    (3, 6, 20, "sqrtlog", "44e24b0949d1e10fe856f3062458a25cd3fc3442f4688723742701b5bcc674c9"),
])
def test_points_files_are_pinned(tmp_path, capsys, b, m, s, w, digest):
    red, _ = reduced_net_and_a(tmp_path, capsys, b, m, s, w, tau=1)
    out = tmp_path / "points.csv"
    assert run(capsys, "points", "--net", str(red), "--out", str(out))[0] == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
