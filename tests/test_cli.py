"""End-to-end tests of the command-line surface."""

import io

import numpy as np
import pytest

import rednets as rn
from rednets.cli import BENCH_CSV_FIELDS, main, parse_schedule


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
    assert loaded.matrices[1].row(3) == (0, 0, 0, 0)
    assert loaded.matrices[1].row(0) == (1, 1, 1, 1)


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


def test_exit_code_2_on_validation_error(tmp_path, capsys):
    net = tmp_path / "net.txt"
    run(capsys, "gen", "--b", "2", "--m", "4", "--s", "2", "--out", str(net))
    code, _, err = run(capsys, "reduce", "--net", str(net),
                       "--w", "explicit:0,1,2", "--out", "-")
    assert code == 2
    assert err.startswith("error:")
    code, _, err = run(capsys, "tvalue", "--net", str(tmp_path / "missing.txt"))
    assert code == 2


@pytest.mark.parametrize("text", [
    "",
    "\n \n",
    "2 2\n1 0\n0 1\n",
    "2 2 1\n1 0\n",
    "2 2 1\n1 0\n0 1\n1 1\n",
    "2 2 1\n1 0 1\n0 1\n",
    "2 2 1\n1 0 1\n0 1 0\n",
    "2 2 1\n1 0\n0 2\n",
    "3 2 1\n1 0\n0 -1\n",
    "2 2 1\n1 0\n0 1.0\n",
    "2 2 1\n1 0\nx 1\n",
    "2 2 1\n1 0\n# 1\n",
    "2 x 1\n1 0\n0 1\n",
    "4 2 1\n1 0\n0 1\n",
    "2 0 1\n",
    "2 2 0\n",
])
def test_malformed_net_file_is_a_one_line_error_with_exit_2(tmp_path, capsys, text):
    with pytest.raises(ValueError) as err:
        rn.read_net(io.StringIO(text))
    assert str(err.value) and "\n" not in str(err.value)
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


def test_bench_csv_schema_and_predictions(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    code, _, _ = run(capsys, "bench", "--b", "2", "--m-list", "6", "--tau", "3",
                     "--s-list", "4,8", "--w-scheme", "log", "--seed", "5",
                     "--reps", "3", "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == BENCH_CSV_FIELDS
    rows = [dict(zip(lines[0].split(","), ln.split(","))) for ln in lines[1:]]
    # 2 configs x 2 algos x (3 reps + 1 median)
    assert len(rows) == 2 * 2 * 4
    for r in rows:
        s = int(r["s"])
        m = int(r["m"])
        sched = parse_schedule("log", s, 2, m)
        ops = rn.op_count_model(m, sched, int(r["tau"]), s)
        want = ops.fast if r["algo"] == "fast_column" else ops.standard + ops.point_gen
        assert int(r["predicted_ops"]) == want
        assert int(r["wall_ns"]) > 0
        if r["algo"] == "standard":
            if r["rep"] != "median":  # medians of parts need not sum
                assert int(r["wall_ns"]) == int(r["point_gen_ns"]) + int(r["mult_ns"])
        else:
            assert r["point_gen_ns"] == "" and r["mult_ns"] == ""
    medians = [r for r in rows if r["rep"] == "median"]
    assert len(medians) == 4


def test_bench_memory_guard(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("REDNETS_BENCH_CAP", "100")
    code, _, err = run(capsys, "bench", "--b", "2", "--m-list", "8", "--tau", "2",
                       "--s-list", "4", "--reps", "3", "--out", "-")
    assert code == 2
    assert "memory cap" in err


def test_bench_single_coordinate_no_reduction_benefit(tmp_path, capsys):
    # at s = 1 both pipelines do essentially the same work; the ratio is
    # only asserted within a generous noise band
    out = tmp_path / "bench.csv"
    code, _, _ = run(capsys, "bench", "--b", "2", "--m-list", "10", "--tau", "4",
                     "--s-list", "1", "--reps", "5", "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    rows = [dict(zip(lines[0].split(","), ln.split(","))) for ln in lines[1:]]
    med = {r["algo"]: int(r["wall_ns"]) for r in rows if r["rep"] == "median"}
    ratio = med["fast_column"] / med["standard"]
    assert 0.1 < ratio < 10.0


def test_bench_rejects_too_few_reps(capsys):
    code, _, err = run(capsys, "bench", "--b", "2", "--m-list", "4", "--tau", "2",
                       "--s-list", "2", "--reps", "2", "--out", "-")
    assert code == 2


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
