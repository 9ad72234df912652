"""The README's examples run and give the values the README states."""

import json
import re
import shlex
from pathlib import Path

import rednets as rn
from rednets.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def code_block(lang, after=""):
    """Body of the first ```lang block that follows the heading ``after``."""
    return README[README.index(after) :].split(f"```{lang}\n", 1)[1].split("```", 1)[0]


def test_readme_python_example_gives_the_stated_values():
    src = code_block("python")
    assert re.search(r"^rn\.rho\(red\) +# 3$", src, re.M)
    assert re.search(r"^rn\.strict_t\(rn\.generate_points\(red\)\) +# 1$", src, re.M)
    ns = {}
    exec(src, ns)
    red, a = ns["red"], ns["a"]
    assert rn.rho(red) == 3
    assert rn.strict_t(rn.generate_points(red)) == 1
    # at s = 2 both products add the same two rank-one terms to 0, so the
    # fast product equals the standard one bit for bit
    standard = rn.standard_product(red, a)
    assert ns["p"].tobytes() == standard.tobytes()


def test_readme_cli_example_prints_the_stated_values(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    lines = [ln for ln in code_block("sh", "## CLI").splitlines() if ln.startswith("rednets ")]
    printed = []
    for start in ("gen --b 2 --m 4 --s 2", "reduce ", "rho ", "tvalue "):
        cmd, _, comment = next(ln for ln in lines if ln.startswith("rednets " + start)).partition("#")
        assert main(shlex.split(cmd)[1:]) == 0
        out = capsys.readouterr().out
        stated = re.search(r'prints "(.*)"', comment)
        if stated:
            assert out.strip() == stated.group(1)
            printed.append(out.strip())
    assert printed == ["rho = 3", "t = 1"]


def test_readme_report_json_is_the_report_of_its_pascal_net(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    lines = [ln.partition("#")[0] for ln in code_block("sh", "## CLI").splitlines()]
    for start in ("gen --b 2 --m 4 --s 2 ", "report --net net.txt --w explicit:0,1 "):
        cmd = next(ln for ln in lines if ln.startswith("rednets " + start))
        assert main(shlex.split(cmd)[1:]) == 0
    stated = re.sub(r"//.*", "", code_block("json", "**Quality report JSON**"))
    assert json.loads(capsys.readouterr().out) == json.loads(stated)
