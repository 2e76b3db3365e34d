"""scripts/audit_family.py is an alias of ``zdx audit-family``."""

import runpy
import sys
from pathlib import Path

import pytest

from zdx import density

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(monkeypatch, capsys, name, *args):
    monkeypatch.setattr(sys, "argv", [name, *args])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    return capsys.readouterr().out


def test_audit_family_reports_violations(monkeypatch, capsys):
    # the audit kernel fails region 2 of (1/14, 11/14) with a made-up witness
    real = density._audit_ints

    def audit(p, r, q, region, ends, A):
        y, scale, terms, failure = real(p, r, q, region, ends, A)
        if (p, r, q, region) == (1, 11, 14, 2):
            failure = ("class2_moment", (43, 45))
        return y, scale, terms, failure

    monkeypatch.setattr(density, "_audit_ints", audit)
    with pytest.raises(SystemExit) as exc:
        run_script(monkeypatch, capsys, "audit_family.py", "--depth", "3")
    assert exc.value.code == 1
    out, err = capsys.readouterr()
    assert out.splitlines()[0] == (
        "FAIL (1/14, 11/14) region 2: term class2_moment exceeds the exponent at sigma = 43/45"
    )
    assert out.splitlines()[1] == (
        "depth 3: 4 pairs, 3 region audits passed, 2 pairs outside (0, 1/3)"
    )
    assert "Traceback" not in out + err


def test_audit_family_fails_on_continuity_mismatch(monkeypatch, capsys):
    # the continuity kernel finds the branches of (1/6, 2/3) at 4/3 and 5/4
    real = density._continuity_ints

    def check(p, r, q, *args):
        if (p, r, q) == (1, 4, 6):
            return 4, 3, 5, 4, False
        return real(p, r, q, *args)

    monkeypatch.setattr(density, "_continuity_ints", check)
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
    def broken(*args):
        raise RuntimeError("broken audit")

    monkeypatch.setattr(density, "_audit_ints", broken)
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
