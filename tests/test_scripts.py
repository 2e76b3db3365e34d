"""The experiment scripts format library results and agree with the CLI."""

import csv
import runpy
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner

from zdx.cli import cli

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

HEADLINE_DEPTH3 = """\
family depth 3 (4 pairs), interval [17/18, 1]
  [17/18, 21/22]  A = 2/(13s-11)   [pair 1/14,11/14 region 2]
  [21/22, 1]  A = 4/(4s-1)   [pair 1/14,11/14 region 1]
branch switch at sigma = 21/22 (0.95454545)
meets ivic-1992 at sigma = 17/18
meets ivic-1992 at sigma = 1
spot value: E(24/25) = 4/71 vs baseline 4/67
"""


def run_script(monkeypatch, capsys, name, *args):
    monkeypatch.setattr(sys, "argv", [name, *args])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    return capsys.readouterr().out


def test_headline_depth3_output(monkeypatch, capsys):
    assert run_script(monkeypatch, capsys, "reproduce_headline_bound.py") == HEADLINE_DEPTH3


@pytest.mark.parametrize("depth", [3, 9, 12])
def test_headline_crossovers_match_compare(monkeypatch, capsys, depth):
    out = run_script(monkeypatch, capsys, "reproduce_headline_bound.py", "--depth", str(depth))
    meets = [Fraction(line.rsplit(" ", 1)[1]) for line in out.splitlines()
             if line.startswith("meets ivic-1992 at sigma = ")]
    assert meets and all(Fraction(17, 18) <= x <= 1 for x in meets)
    res = CliRunner().invoke(cli, ["compare", "--depth", str(depth), "--format", "csv"])
    assert res.exit_code == 0
    expected = [Fraction(r["sigma"]) for r in csv.DictReader(res.output.splitlines())
                if r["kind"] == "baseline-crossover" and r["right"] == "ivic-1992"]
    assert meets == expected
