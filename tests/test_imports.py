"""What loads when: the product path never imports the quality and
discrepancy layers, and the package resolves their names on first use."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rednets as rn
from rednets import discrepancy, nets, product, quality

ROOT = Path(__file__).resolve().parent.parent

# Modules the product path does not need; numpy itself loads none of them.
UNUSED_BY_PRODUCT = {"rednets.quality", "rednets.discrepancy", "json", "fractions", "statistics"}


def fresh(*args, budget=None):
    """Run ``python -X importtime *args`` in a new interpreter.

    Returns the finished process and the set of modules it imported, read
    from the import-time log on stderr; every other stderr line is kept
    as ``proc.stderr``.
    """
    env = {k: v for k, v in os.environ.items() if k != "REDNETS_ENUM_BUDGET"}
    env["PYTHONPATH"] = str(ROOT / "src")
    if budget is not None:
        env["REDNETS_ENUM_BUDGET"] = str(budget)
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        capture_output=True, text=True, env=env, timeout=60,
    )
    lines = proc.stderr.splitlines(keepends=True)
    log = [ln for ln in lines if ln.startswith("import time:")]
    proc.stderr = "".join(ln for ln in lines if not ln.startswith("import time:"))
    return proc, {ln.rsplit("|", 1)[1].strip() for ln in log}


def test_numpy_alone_loads_none_of_the_deferred_modules():
    proc, loaded = fresh("-c", "import numpy")
    assert proc.returncode == 0, proc.stderr
    assert "numpy" in loaded
    assert not loaded & UNUSED_BY_PRODUCT


def test_import_rednets_and_cli_leaves_quality_and_discrepancy_unloaded():
    code = "import rednets, rednets.cli\nassert not hasattr(rednets, 'no_such_name')"
    proc, loaded = fresh("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert {"rednets.nets", "rednets.product", "rednets.cli"} <= loaded
    assert not loaded & UNUSED_BY_PRODUCT


@pytest.fixture
def net_and_a(tmp_path):
    net, a = tmp_path / "net.txt", tmp_path / "a.csv"
    with open(net, "w") as fh:
        rn.write_net(rn.random_net(2, 6, 4, seed=3), fh)
    np.savetxt(a, np.random.default_rng(0).standard_normal((4, 3)), delimiter=",")
    return net, a


@pytest.mark.parametrize("algo", ["fast", "standard"])
def test_product_command_never_loads_quality_or_discrepancy(net_and_a, tmp_path, algo):
    net, a = net_and_a
    out = tmp_path / "p.csv"
    w = ["--w", "explicit:0,0,0,0"] if algo == "fast" else []
    proc, loaded = fresh("-m", "rednets.cli", "product", "--net", str(net), "--a", str(a),
                         "--algo", algo, *w, "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert len(out.read_text().splitlines()) == 1 + 2**6
    assert not loaded & UNUSED_BY_PRODUCT


def test_report_command_loads_quality(net_and_a):
    net, _ = net_and_a
    proc, loaded = fresh("-m", "rednets.cli", "report", "--net", str(net), "--w", "log")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("{")
    assert "rednets.quality" in loaded


@pytest.mark.parametrize("argv", [["rho"], ["tvalue"], ["report", "--w", "log"]])
def test_budget_exhaustion_exits_3_in_a_fresh_interpreter(tmp_path, argv):
    net = tmp_path / "net.txt"
    with open(net, "w") as fh:
        rn.write_net(rn.random_net(2, 8, 6, seed=0), fh)
    proc, _ = fresh("-m", "rednets.cli", argv[0], "--net", str(net), *argv[1:], budget=10)
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


def test_every_public_name_is_the_object_of_its_home_module():
    homes = (nets, product, quality, discrepancy)
    for name in rn.__all__:
        home = next(mod for mod in homes if name in mod.__all__)
        assert getattr(rn, name) is getattr(home, name), name
    ns = {}
    exec("from rednets import *", ns)
    assert set(rn.__all__) <= set(ns)
    assert set(rn.__all__) | {"quality", "discrepancy"} <= set(dir(rn))
    with pytest.raises(AttributeError):
        rn.no_such_name


def test_submodules_are_attributes_before_any_explicit_import():
    code = (
        "import rednets\n"
        "net = rednets.pascal_net(2, 4, 2)\n"
        "print(rednets.quality.rho(net), round(rednets.discrepancy.zeta_value(2.0), 6))"
    )
    proc, _ = fresh("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["4", "1.644934"]  # zeta(2) = pi^2 / 6


def test_budget_error_has_one_identity():
    assert rn.EnumerationBudgetError is nets.EnumerationBudgetError
    assert rn.EnumerationBudgetError is rn.quality.EnumerationBudgetError
    assert rn.DEFAULT_BUDGET is rn.quality.DEFAULT_BUDGET is nets.DEFAULT_BUDGET
    assert "EnumerationBudgetError" not in nets.__all__
    assert "DEFAULT_BUDGET" not in nets.__all__


def test_lazy_names_follow_a_replaced_module_attribute(monkeypatch):
    original = discrepancy.exact_star_discrepancy

    def f(*args):
        return 0.0

    monkeypatch.setattr(rn.discrepancy, "exact_star_discrepancy", f)
    assert rn.exact_star_discrepancy is f
    monkeypatch.undo()
    assert rn.exact_star_discrepancy is original
