import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import zdx
from zdx.cli import cli


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(cli, args, catch_exceptions=False)


def run_python(*args):
    """Run a fresh interpreter that imports zdx from this checkout."""
    src = str(Path(zdx.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


# -- pairs ---------------------------------------------------------------------

def test_pairs_depth3_contains_headline_pair(runner):
    res = invoke(runner, "pairs", "--depth", "3")
    assert res.exit_code == 0
    rows = json.loads(res.output)
    assert {"kappa": "1/14", "lambda": "11/14", "word": "AAB"} in rows


def test_pairs_depth0_seed_only(runner):
    res = invoke(runner, "pairs", "--depth", "0")
    rows = json.loads(res.output)
    assert rows == [{"kappa": "0", "lambda": "1", "word": ""}]


def test_pairs_negative_depth_usage_error(runner):
    res = runner.invoke(cli, ["pairs", "--depth", "-1"])
    assert res.exit_code == 2


# -- bound ---------------------------------------------------------------------

def test_bound_boundary_point(runner):
    res = invoke(runner, "bound", "--pair", "1/14,11/14", "--sigma", "21/22")
    assert res.exit_code == 0
    assert "A=44/31" in res.output
    assert "note=region-boundary" in res.output


def test_bound_at_one(runner):
    res = invoke(runner, "bound", "--pair", "1/14,11/14", "--sigma", "1")
    assert res.exit_code == 0
    assert "E=0 " in res.output


def test_bound_inadmissible_pair_exit3(runner):
    res = runner.invoke(cli, ["bound", "--pair", "1/2,1/2", "--sigma", "0.95"])
    assert res.exit_code == 3
    assert "kappa" in res.output


def test_bound_sigma_outside_regions_exit3(runner):
    res = runner.invoke(cli, ["bound", "--pair", "1/14,11/14", "--sigma", "1/2"])
    assert res.exit_code == 3


def test_bound_bad_rational_usage_error(runner):
    res = runner.invoke(cli, ["bound", "--pair", "1/14,11/14", "--sigma", "elephant"])
    assert res.exit_code == 2


# -- optimize / compare -----------------------------------------------------------

def test_optimize_json_segments(runner):
    res = invoke(runner, "optimize", "--depth", "3", "--interval", "17/18,1",
                 "--resolution", "32", "--format", "json")
    obj = json.loads(res.output)
    assert [s["lo"] for s in obj["segments"]] == ["17/18", "21/22"]
    assert obj["segments"][0]["A"]["text"] == "2/(13s-11)"


def test_optimize_csv_header(runner):
    res = invoke(runner, "optimize", "--depth", "2", "--interval", "21/22,1",
                 "--resolution", "4")
    lines = res.output.splitlines()
    assert lines[0] == "sigma,A_num,A_den,A_decimal,E_decimal,winner_kappa,winner_lambda,winner_word,region"
    assert len(lines) == 6


@pytest.mark.parametrize("command", ["optimize", "compare", "plot"])
@pytest.mark.parametrize("interval", ["0,1/4", "1/2,2", "2/5,1"])
def test_interval_outside_domain_rejected(runner, command, interval):
    res = runner.invoke(cli, [command, "--depth", "2", "--interval", interval])
    assert res.exit_code == 3
    lines = res.output.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "[1/2, 1]" in lines[0]


def test_compare_and_plot_have_no_resolution(runner):
    for command in ("compare", "plot"):
        res = runner.invoke(cli, [command, "--resolution", "64"])
        assert res.exit_code == 2


def test_compare_reports_known_crossovers(runner):
    res = invoke(runner, "compare", "--interval", "17/18,1", "--depth", "3")
    assert "boundary at sigma = 21/22" in res.output
    assert "crossover at sigma = 17/18" in res.output
    assert "ivic-1992" in res.output


def test_compare_custom_baseline(runner):
    res = invoke(runner, "compare", "--interval", "17/18,1", "--depth", "3",
                 "--baseline", "4/(8s-5)", "--format", "csv")
    assert res.exit_code == 0
    assert "4/(8s-5)" in res.output


@pytest.mark.parametrize("baseline", [
    "1/(s-0.95)",    # pole inside [17/18, 1]
    "(4s+2)/(s-1)",  # pole at the right endpoint
    "1/(s-17/18)",   # pole at the left endpoint
    "-1",            # negative everywhere
    "(1-s)/(s+1)",   # A = 0 at sigma = 1
    "(s-0.95)/1",    # changes sign inside
])
def test_compare_rejects_bad_baseline(runner, baseline):
    res = runner.invoke(cli, ["compare", "--depth", "2", "--baseline", baseline])
    assert res.exit_code == 3
    lines = res.output.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: --baseline {baseline!r} ")


# -- audit --------------------------------------------------------------------------

def test_audit_both_regions_pass(runner):
    res = invoke(runner, "audit", "--pair", "1/14,11/14")
    assert res.exit_code == 0
    assert res.output.count("PASS") == 2
    assert "class1_main" in res.output


def test_audit_json(runner):
    res = invoke(runner, "audit", "--pair", "1/14,11/14", "--format", "json")
    reports = json.loads(res.output)
    assert len(reports) == 2
    assert all(r["passed"] for r in reports)


def test_audit_inadmissible_exit3(runner):
    res = runner.invoke(cli, ["audit", "--pair", "2/5,3/5"])
    assert res.exit_code == 3


def test_audit_invalid_pair_exit3(runner):
    res = runner.invoke(cli, ["audit", "--pair", "2/3,1/2"])
    assert res.exit_code == 3


# -- desk checks ----------------------------------------------------------------------

def test_hecke_verify_small(runner, tmp_path):
    out = tmp_path / "hecke.csv"
    res = invoke(runner, "hecke-verify", "--limit", "300", "--out", str(out))
    assert res.exit_code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,tau,m,convolution_value"
    assert lines[1] == "1,1,1,1"
    assert lines[2] == "2,-24,24,0"
    assert len(lines) == 301


def test_hm_test_small(runner, tmp_path):
    out = tmp_path / "hm.csv"
    res = invoke(runner, "hm-test", "--trials", "200", "--seed", "7", "--out", str(out))
    assert res.exit_code == 0
    assert len(out.read_text().splitlines()) == 201


def test_mellin_probe_defaults(runner):
    res = invoke(runner, "mellin-probe", "--steps", "800")
    assert res.exit_code == 0
    assert res.output.splitlines()[0] == "x,value,target,abs_error,imag_residual"


@pytest.mark.parametrize("x", ["1e-300", "1e400"])
def test_mellin_probe_overflow_is_inadmissible(x):
    proc = run_python("-m", "zdx.cli", "mellin-probe", "--x", x)
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines() == [
        f"error: the probe at x = {x} overflows the floating-point range"
    ]


@pytest.mark.parametrize("x", ["1e-400", "1/1" + "0" * 400])
def test_mellin_probe_underflow_is_inadmissible(x):
    proc = run_python("-m", "zdx.cli", "mellin-probe", "--x", x)
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines() == [
        f"error: x = {x} underflows the floating-point range"
    ]


def test_exact_commands_do_not_import_numpy(runner, tmp_path):
    code = (
        "import sys\n"
        "from zdx.cli import main\n"
        f"out = {str(tmp_path / 'out')!r}\n"
        "for args in (['pairs', '--depth', '2'], ['compare', '--depth', '2'],\n"
        "             ['hecke-verify', '--limit', '50']):\n"
        "    sys.argv = ['zdx', *args, '--out', out]\n"
        "    try:\n"
        "        main()\n"
        "    except SystemExit as exc:\n"
        "        assert exc.code == 0, (args, exc.code)\n"
        "print('numpy' in sys.modules)\n"
    )
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
    # the tolerance default still shows without numpy being loaded for it
    assert "[default: 1e-10]" in invoke(runner, "hm-test", "--help").output


def test_zeta_probe_critical_line_pair_exit3(runner):
    res = runner.invoke(cli, ["zeta-probe", "--pair", "1/6,2/3"])
    assert res.exit_code == 3


def test_zeta_probe_small(runner, tmp_path):
    out = tmp_path / "z.csv"
    res = invoke(runner, "zeta-probe", "--t-max", "20", "--samples", "3",
                 "--out", str(out))
    assert res.exit_code == 0
    rows = out.read_text().splitlines()
    assert rows[0] == "t,abs_zeta,ratio"
    assert rows[1].startswith("0,")


def test_plot_svg(runner, tmp_path):
    out = tmp_path / "plot.svg"
    res = invoke(runner, "plot", "--depth", "2", "--interval", "17/18,1",
                 "--out", str(out))
    assert res.exit_code == 0
    text = out.read_text()
    assert text.startswith("<svg ")
    assert "polyline" in text
    assert ">17/18<" in text  # exact endpoint tick label
