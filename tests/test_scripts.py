"""The experiment scripts format library results and agree with the CLI."""

import csv
import runpy
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner

from zdx import density
from zdx.cli import cli
from zdx.density import BalanceViolation

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


def test_audit_family_reports_violations(monkeypatch, capsys):
    real = density.audit_balance

    def audit(pair, region):
        if (pair.kappa, pair.lam, region) == (Fraction(1, 14), Fraction(11, 14), 2):
            raise BalanceViolation("class2_moment", Fraction(43, 45))
        return real(pair, region)

    monkeypatch.setattr(density, "audit_balance", audit)
    with pytest.raises(SystemExit) as exc:
        run_script(monkeypatch, capsys, "audit_family.py", "--depth", "3")
    assert exc.value.code == 1
    out, err = capsys.readouterr()
    assert out.splitlines()[0] == (
        "FAIL (1/14, 11/14) region 2: term class2_moment exceeds the exponent at sigma = 43/45"
    )
    assert out.splitlines()[1].startswith(
        "depth 3: 4 pairs, 3 region audits passed, 2 pairs outside (0, 1/3), "
    )
    assert "Traceback" not in out + err


def test_audit_family_depth_budget(monkeypatch, capsys):
    from zdx.pairs import MAX_DEPTH

    with pytest.raises(SystemExit) as exc:
        run_script(monkeypatch, capsys, "audit_family.py", "--depth", str(MAX_DEPTH + 1))
    assert exc.value.code == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: depth ")
