"""scripts/audit_family.py is an alias of ``zdx audit-family``."""

import runpy
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from zdx import density
from zdx.density import BalanceViolation

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(monkeypatch, capsys, name, *args):
    monkeypatch.setattr(sys, "argv", [name, *args])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    return capsys.readouterr().out


def test_audit_family_reports_violations(monkeypatch, capsys):
    real = density.audit_balance

    def audit(regions, region):
        report = real(regions, region)
        if (regions.pair.kappa, regions.pair.lam, region) == (Fraction(1, 14), Fraction(11, 14), 2):
            return replace(report, violation=BalanceViolation("class2_moment", Fraction(43, 45)))
        return report

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


def test_audit_family_fails_on_continuity_mismatch(monkeypatch, capsys):
    real = density.continuity_check

    def check(regions):
        report = real(regions)
        if (regions.pair.kappa, regions.pair.lam) == (Fraction(1, 6), Fraction(2, 3)):
            return replace(report, status="mismatch", note="branches disagree: 4/3 vs 5/4")
        return report

    monkeypatch.setattr(density, "continuity_check", check)
    with pytest.raises(SystemExit) as exc:
        run_script(monkeypatch, capsys, "audit_family.py", "--depth", "6")
    assert exc.value.code == 1
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert lines[0] == "FAIL (1/6, 2/3) continuity at sigma = 1: branches disagree: 4/3 vs 5/4"
    assert len(lines) == 2 and lines[1].startswith("depth 6: 14 pairs, 18 region audits passed, ")
    assert err == ""


def test_audit_family_depth_budget(monkeypatch, capsys):
    from zdx.pairs import MAX_DEPTH

    with pytest.raises(SystemExit) as exc:
        run_script(monkeypatch, capsys, "audit_family.py", "--depth", str(MAX_DEPTH + 1))
    assert exc.value.code == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: depth ")


def test_audit_family_negative_depth_is_a_usage_error(monkeypatch, capsys):
    with pytest.raises(SystemExit) as exc:
        run_script(monkeypatch, capsys, "audit_family.py", "--depth", "-1")
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err == (
        "Usage: zdx audit-family [OPTIONS]\n"
        "Try 'zdx audit-family --help' for help.\n"
        "\n"
        "Error: Invalid value for '--depth': -1 is not in the range x>=0.\n"
    )


def test_audit_family_internal_error_exits_4(monkeypatch, capsys):
    # a crash inside the audit is exit 4, never the check-failure exit 1
    def broken(regions, region):
        raise RuntimeError("broken audit")

    monkeypatch.setattr(density, "audit_balance", broken)
    with pytest.raises(SystemExit) as exc:
        run_script(monkeypatch, capsys, "audit_family.py", "--depth", "3")
    assert exc.value.code == 4
    out, err = capsys.readouterr()
    assert out == "" and err == "error: internal error: RuntimeError: broken audit\n"


def test_audit_family_passes_through_exit_0(monkeypatch, capsys):
    with pytest.raises(SystemExit) as exc:
        run_script(monkeypatch, capsys, "audit_family.py", "--depth", "3", "--verbose")
    assert exc.value.code == 0
    out, err = capsys.readouterr()
    assert out.splitlines()[0] == "(1/14, 11/14)  word=AAB  r1:pass r2:pass  continuity:ok"
    assert err == ""
