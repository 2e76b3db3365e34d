import hashlib
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import zdx
from zdx.cli import cli
from zdx.pairs import MAX_DEPTH


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(cli, args, catch_exceptions=False)


def _env():
    """The environment of a fresh interpreter that imports zdx from this checkout,
    with stdout buffered as by default."""
    src = str(Path(zdx.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, "PYTHONPATH": path}
    env.pop("PYTHONUNBUFFERED", None)
    return env


def run_python(*args):
    """Run a fresh interpreter that imports zdx from this checkout."""
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=_env())


# -- pairs ---------------------------------------------------------------------

def test_pairs_depth3_contains_headline_pair(runner):
    res = invoke(runner, "pairs", "--depth", "3")
    assert res.exit_code == 0
    rows = json.loads(res.output)
    assert {"kappa": "1/14", "lambda": "11/14", "word": "AAB"} in rows


@pytest.mark.parametrize("command", ["pairs", "optimize", "compare", "plot", "audit-family"])
def test_depth_over_budget_exit3(runner, command):
    res = runner.invoke(cli, [command, "--depth", str(MAX_DEPTH + 1)])
    assert res.exit_code == 3
    assert res.stdout == ""
    assert res.stderr == (
        f"error: depth {MAX_DEPTH + 1} exceeds the pair-family budget of {MAX_DEPTH}\n"
    )


def test_pairs_prune_prints_the_family_unchanged(runner):
    # the family is already Pareto-minimal, so --prune has nothing to drop
    pruned = invoke(runner, "pairs", "--depth", "16", "--prune")
    assert pruned.exit_code == 0
    assert pruned.stdout_bytes == invoke(runner, "pairs", "--depth", "16").stdout_bytes


def test_version_from_source_checkout():
    # no installed package metadata is needed: the version is zdx.__version__
    res = run_python("-m", "zdx.cli", "--version")
    assert (res.returncode, res.stdout, res.stderr) == (0, f"zdx, version {zdx.__version__}\n", "")


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


#: SHA-256 of stdout, taken from the candidate-by-candidate sweep that the
#: tangent-walk optimizer replaced; the outputs must not move
ENVELOPE_SHA256 = {
    "optimize --format json --depth 12 --interval 13/15,1":
        "be4ab56163a235e3b34096b2591f255365e0d8cc65273f8b95ab033e6c125375",
    "optimize --format csv --depth 12 --interval 13/15,1":
        "d1825edf6c14379f48a827792f899ee4c1d93a7971f278e463e574792afbc8dd",
    "compare --format csv --depth 12 --interval 13/15,1":
        "10defdcc63e5d49238e1dbf5e03daba34ff2272ac4db72462f52657326a91343",
    "plot --depth 12 --interval 13/15,1":
        "929bbd6573a294b9fba0005e872a4c3d3219f83a13b9fb1857faf494d70e6d5b",
    "optimize --format json --depth 12 --interval 1/2,1":
        "ff140b02ddadd20574cf5861197292baaee70e6c57b5d333cbe908d846266e29",
    "optimize --format csv --depth 12 --interval 1/2,1":
        "5ec6ae19731fd7ecacd48bb64c3ec40f49a38d1e87dd51389e3361bae70360e1",
    "compare --format csv --depth 12 --interval 1/2,1":
        "b469c8fff6d6d6ae1bbdf9d026d90022988bd6cce3b3de770712d0b2c0d8dd2b",
    "plot --depth 12 --interval 1/2,1":
        "1e613ba181473fa7d9ceb204e7fa57d9af6e29f1b8100abe8e899c6f492eb01a",
    "optimize --format json --depth 14 --interval 13/15,1":
        "79a68d8405b9338439247c1e1e5057893198fcfacedf9509df8c2088aca366d6",
    "optimize --format csv --depth 14 --interval 13/15,1":
        "aa8ff50815c94382d94a278eea8c5cec8e2691fbe3faed1371f204f128c20056",
    "compare --format csv --depth 14 --interval 13/15,1":
        "771e001c2155fe3ab4ba8f4bd5ea95cbfcbdb1a2f11bb76e18cfd88191ec3428",
    "plot --depth 14 --interval 13/15,1":
        "704fc8ee8a5eb9ea801d7c1116a15464e18de8ad3d6fe06a9ce6d995b322503d",
    "optimize --format json --depth 14 --interval 1/2,1":
        "ab585596f902ab5eb667a35b8a7af4a5b4dce5cfadac0493d83492f7b2d29a52",
    "optimize --format csv --depth 14 --interval 1/2,1":
        "d9f83ef61239b8475c3c969fd971bf5791ffccf735dd1864d941d136c4d98086",
    "compare --format csv --depth 14 --interval 1/2,1":
        "966418794c94f93691f764a92e878f8ef34373bd20084ca9ef9ea9e7bcdef753",
    "plot --depth 14 --interval 1/2,1":
        "e089b959178b67e52655e0326cfb0c55e7671e6382aa3a8029003b7df57f5f7b",
}


@pytest.mark.parametrize("argv", ENVELOPE_SHA256)
def test_envelope_outputs_pinned(runner, argv):
    res = invoke(runner, *argv.split())
    assert res.exit_code == 0
    assert hashlib.sha256(res.stdout.encode("utf-8")).hexdigest() == ENVELOPE_SHA256[argv]


#: SHA-256 of stdout on edge intervals, taken from the plot that sampled
#: every E as a Fraction: a point interval plots one point per curve
PLOT_EDGE_SHA256 = {
    "plot --depth 12 --interval 7/10,7/10":
        "40441e0126e2d8cf79ae5e3b0d923efc6790c65d03833b3467989a9c1ba336c2",
    "plot --depth 0 --interval 1/2,1":
        "47da5858b5e4dc719ef760ee3c70e2dbb6d98fcddddd62514e60358620cb09db",
}


@pytest.mark.parametrize("argv", PLOT_EDGE_SHA256)
def test_plot_edge_outputs_pinned(runner, argv):
    res = invoke(runner, *argv.split())
    assert res.exit_code == 0
    assert hashlib.sha256(res.stdout.encode("utf-8")).hexdigest() == PLOT_EDGE_SHA256[argv]


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


AUDIT_TEXT = {
    "1/14,11/14": """\
pair 1/14,11/14 region 1 [21/22, 1]: PASS
  Y = T^y with y = 2/(4s-1); T0 exponent in N = 28s-24
  class1_main: (-4*s+4) / (4*s-1) = E identically
  class1_subdivision: (-26*s+25) / (4*s-1) <= E (tight at 21/22)
  class2_moment: (-4*s+4) / (4*s-1) = E identically
pair 1/14,11/14 region 2 [13/15, 21/22]: PASS
  Y = T^y with y = 1/(13s-11); T0 exponent in N = 28s-24
  class1_main: (-2*s+2) / (13*s-11) = E identically
  class1_subdivision: (-2*s+2) / (13*s-11) = E identically
  class2_moment: (20*s-19) / (13*s-11) <= E (tight at 21/22)
""",
    "1/6,2/3": """\
pair 1/6,2/3 region 1 [1, 1]: PASS
  Y = T^y with y = 2/(4s-1); T0 exponent in N = 12s-9
  class1_main: (-4*s+4) / (4*s-1) = E identically
  class1_subdivision: (-10*s+10) / (4*s-1) <= E
  class2_moment: (-4*s+4) / (4*s-1) = E identically
pair 1/6,2/3 region 2 [11/14, 1]: PASS
  Y = T^y with y = 2/(10s-7); T0 exponent in N = 12s-9
  class1_main: (-4*s+4) / (10*s-7) = E identically
  class1_subdivision: (-4*s+4) / (10*s-7) = E identically
  class2_moment: (8*s-8) / (10*s-7) <= E (tight at 1)
""",
    # region 1 is empty: only region 2 is audited
    "8192/49143,65519/98286": """\
pair 8192/49143,65519/98286 region 2 [180189/229340, 1]: PASS
  Y = T^y with y = 32768/(163804s-114653); T0 exponent in N = (196572s-147421)/16384
  class1_main: (-65536*s+65536) / (163804*s-114653) = E identically
  class1_subdivision: (-65536*s+65536) / (163804*s-114653) = E identically
  class2_moment: (131000*s-131002) / (163804*s-114653) <= E
""",
}

AUDIT_JSON_SHA256 = {
    "1/14,11/14": "bbca2a477cb7c4c81fbe830dbd9ccb1317278f6f23237a43def5f1803355bd33",
    "1/6,2/3": "bb63aa0628b99eaa9724567154b6a41d2f424143573867a2e4c615315ad2773d",
    "8192/49143,65519/98286": "6c5aa0d506a9bb04c9f1b4cf262547107a1b71e90f473db93bfb98e725376ced",
}


@pytest.mark.parametrize("pair", sorted(AUDIT_TEXT))
def test_audit_output_pinned(runner, pair):
    text = invoke(runner, "audit", "--pair", pair)
    js = invoke(runner, "audit", "--pair", pair, "--format", "json")
    assert text.exit_code == js.exit_code == 0
    assert text.stdout == AUDIT_TEXT[pair]
    assert hashlib.sha256(js.stdout.encode("utf-8")).hexdigest() == AUDIT_JSON_SHA256[pair]
    skipped = "region 1: skipped" in text.stderr
    assert skipped == (pair == "8192/49143,65519/98286")


def test_audit_inadmissible_exit3(runner):
    res = runner.invoke(cli, ["audit", "--pair", "2/5,3/5"])
    assert res.exit_code == 3


def test_audit_invalid_pair_exit3(runner):
    res = runner.invoke(cli, ["audit", "--pair", "2/3,1/2"])
    assert res.exit_code == 3


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_audit_certifying_nothing_exit3(runner, fmt):
    res = runner.invoke(cli, ["audit", "--pair", "2/7,4/7", "--region", "1", "--format", fmt])
    assert res.exit_code == 3
    assert res.stdout == ""
    assert res.stderr == "error: region 1 of pair (2/7, 4/7) is empty\n"


def test_audit_term_violation_exit1(runner, monkeypatch):
    from zdx import density
    from zdx.density import BalanceViolation

    real = density.audit_balance

    def audit(regions, region):
        report = real(regions, region)
        if region == 2:
            return report._replace(violation=BalanceViolation("class2_moment", Fraction(43, 45)))
        return report

    monkeypatch.setattr(density, "audit_balance", audit)
    res = runner.invoke(cli, ["audit", "--pair", "1/14,11/14"])
    assert res.exit_code == 1
    assert res.stdout == ""
    assert res.stderr == (
        "error: balance violation in region 2: term class2_moment at sigma = 43/45\n"
    )


def test_audit_continuity_mismatch_exit1(runner, monkeypatch):
    from zdx import density

    real = density.continuity_check
    monkeypatch.setattr(density, "continuity_check", lambda regions: real(regions)._replace(
        status="mismatch", note="branches disagree: 44/31 vs 45/31"))
    for fmt in ("text", "json"):
        res = runner.invoke(cli, ["audit", "--pair", "1/14,11/14", "--format", fmt])
        assert res.exit_code == 1
        assert res.stdout == ""
        assert res.stderr == (
            "error: continuity mismatch at sigma = 21/22: branches disagree: 44/31 vs 45/31\n"
        )
    # a single region has no shared endpoint to check
    assert runner.invoke(cli, ["audit", "--pair", "1/14,11/14", "--region", "2"]).exit_code == 0


def test_audit_family_builds_no_region_spec(runner, monkeypatch):
    # none for a pair whose decisions all pass, and none for a failing pair either
    from zdx import density

    calls = []
    real = density.regions_for

    def counting(pair):
        calls.append(pair)
        return real(pair)

    monkeypatch.setattr(density, "regions_for", counting)
    res = invoke(runner, "audit-family", "--depth", "9")
    assert res.exit_code == 0
    assert calls == []

    # region 2 of (1/14, 11/14) perturbed: its audit and its continuity check fail
    real_ints = density._branch_ints

    def perturbed(p, r, q, region):
        a, b, c, d = real_ints(p, r, q, region)
        return (a, b + 1, c, d) if (p, r, q, region) == (1, 11, 14, 2) else (a, b, c, d)

    monkeypatch.setattr(density, "_branch_ints", perturbed)
    res = runner.invoke(cli, ["audit-family", "--depth", "9"])
    assert res.exit_code == 1
    assert [line[:24] for line in res.stdout.splitlines()[:2]] == [
        "FAIL (1/14, 11/14) regio", "FAIL (1/14, 11/14) conti",
    ]
    assert calls == []


def test_audit_family_forced_failure_lines(runner, monkeypatch):
    # the FAIL lines are the full reports' text, and the exit is 1
    from zdx import density
    from zdx.pairs import generate_pairs

    real = density._region_ends

    def moved(p, r, q):
        star, left, ends1, ends2 = real(p, r, q)
        if (p, r, q) == (1, 11, 14):  # region 2 = [13/15, 21/22] widened to [13/15, 22/22]
            ends2 = (ends2[0], (22, 22))
        return star, left, ends1, ends2

    monkeypatch.setattr(density, "_region_ends", moved)
    res = runner.invoke(cli, ["audit-family", "--depth", "9"])
    assert res.exit_code == 1
    lines = res.stdout.splitlines()
    assert lines[0] == (
        "FAIL (1/14, 11/14) region 2: term class2_moment exceeds the exponent at sigma = 1"
    )
    assert lines[1].startswith("depth 9: 56 pairs, 78 region audits passed, ")
    assert tuple(lines[:-1]) == density.audit_family(generate_pairs(9)).lines


def test_audit_family_internal_error_exits_4(runner, monkeypatch):
    # a crash inside the audit is exit 4, never the check-failure exit 1
    def broken(*args):
        raise RuntimeError("broken audit")

    monkeypatch.setattr("zdx.density._audit_ints", broken)
    res = runner.invoke(cli, ["audit-family", "--depth", "3"])
    assert res.exit_code == 4
    assert res.stdout == ""
    assert res.stderr == "error: internal error: RuntimeError: broken audit\n"


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


def test_hecke_verify_streams_the_whole_csv(runner, tmp_path):
    # 9000 rows are three blocks of the streamed CSV, the last one short
    from zdx.hecke import _CSV_ROWS, verify_table

    want = "".join(verify_table(9000).csv_chunks())
    assert want.count("\n") == 9001 and 2 * _CSV_ROWS < 9000 < 3 * _CSV_ROWS
    assert f"\n{_CSV_ROWS},".encode() in want.encode()
    out = tmp_path / "hecke.csv"
    assert invoke(runner, "hecke-verify", "--limit", "9000", "--out", str(out)).exit_code == 0
    assert out.read_text() == want
    assert invoke(runner, "hecke-verify", "--limit", "9000").stdout == want


def test_hm_test_small(runner, tmp_path):
    out = tmp_path / "hm.csv"
    res = invoke(runner, "hm-test", "--trials", "200", "--seed", "7", "--out", str(out))
    assert res.exit_code == 0
    assert len(out.read_text().splitlines()) == 201


@pytest.mark.parametrize("flag, budget", [("--dim", "MAX_DIM"), ("--r", "MAX_R")])
def test_hm_test_cap_over_budget_exit3(runner, monkeypatch, flag, budget):
    from zdx import probes

    def never(*args):
        raise AssertionError("a system was drawn before the caps were checked")

    monkeypatch.setattr(probes, "_hm_draw", never)
    cap = getattr(probes, budget) + 1
    res = runner.invoke(cli, ["hm-test", flag, str(cap)])
    assert res.exit_code == 3
    assert res.stdout == ""
    assert res.stderr == f"error: {flag[2:]} cap {cap} exceeds the probe budget of {cap - 1}\n"


def test_mellin_probe_steps_over_budget_exit3(runner, monkeypatch):
    from zdx import probes

    def never(*args):
        raise AssertionError("a gamma value was computed before the budget was checked")

    monkeypatch.setattr(probes, "lanczos_gamma", never)
    steps = probes.MAX_STEPS + 1
    res = runner.invoke(cli, ["mellin-probe", "--steps", str(steps)])
    assert res.exit_code == 3
    assert res.stdout == ""
    assert res.stderr == f"error: steps {steps} exceeds the probe budget of {steps - 1}\n"


def test_optimize_resolution_over_budget_exit3(runner, monkeypatch):
    # both formats check the budget before the family is generated
    from zdx import density, pairs
    from zdx.exact import Interval

    def never(*args):
        raise AssertionError("work was done before the budget was checked")

    monkeypatch.setattr(Interval, "grid", never)
    monkeypatch.setattr(pairs, "generate_pairs", never)
    resolution = density.MAX_RESOLUTION + 1
    for fmt in ("csv", "json"):
        res = runner.invoke(cli, ["optimize", "--resolution", str(resolution), "--format", fmt])
        assert res.exit_code == 3
        assert res.stdout == ""
        assert res.stderr == (
            f"error: resolution {resolution} exceeds the table budget of {resolution - 1}\n"
        )


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
    # the gate is a fixed constant of zdx.probes, so the help shows no tolerance
    assert "--tol" not in invoke(runner, "hm-test", "--help").output


#: sha256 of (stdout, stderr) of each call, taken from the four-draw hm
#: harness and the per-point gamma evaluation that the shared kernels
#: replaced.  The default mellin-probe digest is also perfbench's pin.
DESK_SHA256 = {
    "--help": (
        "c40331cbf4bc5f933802179b67124f953555a0643e39f831ee15bedccbcfbee5",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    # crosses 2**32 at trial 1000, where the seed gains an entropy word
    "hm-test --trials 2000 --seed 4294966296": (
        "0b9595c1fe0265ebd054aa84ede19f1c80054bc0cf52892ee5a22072b2c5cebd",
        "171404ac985c85bd033108f4732b82e9fd321de3fbef64c4dfa796c9485e7a8a",
    ),
    "hm-test --trials 2000 --seed 7": (
        "c2551a83bd1ecf73d6ea7339955c768b2990455a70f1a2620bc6304d0cf48944",
        "58e72f3baeaf200143c8fde4d0b4ae05e7593a651a6d113de5cc7471509fa263",
    ),
    "mellin-probe": (
        "cb120bfd7d32d856af86d887a295a548904352a7de30d382da08c35553e11f00",
        "7b2650ff0a8660b68a2ac7990024d1a0ae234029cf4696d59b634e5bc381dfe9",
    ),
    "mellin-probe --x 3/7 --x 5 --steps 100": (
        "1d1993c3d9ac34164007d8dd81f559595128a926d7a7441d892d95433bafb707",
        "c5649b8a5dd6eae94f55bf97c0348a968be81de84bfdb3cfeb38ee151105ec33",
    ),
    "zeta-probe": (
        "29c5b7129c2d137d24384ee69584baf2fb6475b3e63d8fea072627edca36f157",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
}


@pytest.mark.parametrize("argv", sorted(DESK_SHA256))
def test_desk_outputs_pinned(runner, argv):
    # 78 columns is the help width of an 80-column terminal
    res = runner.invoke(cli, argv.split(), prog_name="zdx", terminal_width=78)
    assert res.exit_code == 0
    digests = tuple(hashlib.sha256(b).hexdigest() for b in (res.stdout_bytes, res.stderr_bytes))
    assert digests == DESK_SHA256[argv]


@pytest.mark.parametrize("argv, unloaded", [
    (["--help"], ["csv", "decimal", "fractions", "json", "numpy", "zdx.density", "zdx.hecke",
                  "zdx.svg"]),
    (["compare", "--depth", "3", "--format", "csv"], ["json", "numpy"]),
    (["plot", "--depth", "3"], ["csv", "json", "numpy"]),
    (["mellin-probe"], ["numpy", "zdx.exact"]),
    (["hm-test", "--trials", "3"], ["zdx.density", "zdx.exact", "zdx.pairs"]),
    (["hecke-verify", "--limit", "50"], ["numpy", "zdx.density", "zdx.exact", "zdx.pairs"]),
    (["zeta-probe", "--samples", "3"], ["zdx.density", "zdx.exact"]),
    (["pairs", "--depth", "3"], ["numpy", "zdx.density", "zdx.exact"]),
])
def test_commands_load_only_what_they_use(argv, unloaded):
    code = (
        "import sys\n"
        "from zdx.cli import main\n"
        f"sys.argv = ['zdx', *{argv!r}]\n"
        "try:\n"
        "    main()\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
        f"print(sorted(set({unloaded!r}) & set(sys.modules)), file=sys.stderr)\n"
    )
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines()[-1] == "[]"


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


# -- exit codes -----------------------------------------------------------------------

NO_DIR_OUT = str(Path(__file__).resolve().parent / "no-such-dir" / "out")


@pytest.mark.parametrize("argv, code", [
    (["bound", "--pair", "2/7,4/7", "--sigma", "5/4"], 3),
    (["bound", "--pair", "2/7,4/7", "--sigma", "2/5"], 3),
    (["mellin-probe", "--line", "-1"], 3),
    (["mellin-probe", "--line", "nan"], 3),
    (["mellin-probe", "--halfwidth", "nan"], 3),
    (["mellin-probe", "--halfwidth", "inf"], 3),
    (["zeta-probe", "--t-max", "nan"], 3),
    (["zeta-probe", "--t-max", "-5"], 3),
    (["zeta-probe", "--t-max", "20000"], 3),
    (["hecke-verify", "--limit", "200001"], 3),
    (["mellin-probe", "--halfwidth", "5"], 1),
    (["mellin-probe", "--steps", "1", "--halfwidth", "1e300"], 1),
    (["compare", "--depth", "3", "--baseline", "s^2"], 2),
    (["pairs", "--depth", "1", "--out", NO_DIR_OUT], 2),
])
def test_witness_exit_codes(runner, argv, code):
    res = runner.invoke(cli, argv)
    assert res.exit_code == code, res.output
    assert "Traceback" not in res.output
    lines = res.stderr.splitlines()
    if code == 3:
        assert len(lines) == 1 and lines[0].startswith("error: ")
    elif code == 1:  # the summary line of a failed float check, never a crash
        assert len(lines) == 1 and not lines[0].startswith("error: ")
    else:
        assert lines[-1].startswith("Error: ")


def test_unwritable_out_rejected_before_work(runner, monkeypatch):
    def never(limit):
        raise AssertionError("verify_table ran before --out was checked")

    monkeypatch.setattr("zdx.hecke.verify_table", never)
    res = runner.invoke(cli, ["hecke-verify", "--limit", "200000", "--out", NO_DIR_OUT])
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr.splitlines()[-1].startswith("Error: Invalid value for '--out': ")


def test_failed_run_leaves_out_untouched(runner, monkeypatch, tmp_path):
    def broken(limit):
        raise RuntimeError("broken table")

    monkeypatch.setattr("zdx.hecke.verify_table", broken)
    kept, fresh = tmp_path / "kept.csv", tmp_path / "fresh.csv"
    kept.write_text("n,tau\n1,1\n")
    for out in (kept, fresh):
        res = runner.invoke(cli, ["hecke-verify", "--limit", "10", "--out", str(out)])
        assert res.exit_code == 4
    assert kept.read_text() == "n,tau\n1,1\n"
    assert not fresh.exists()


@pytest.mark.parametrize("argv", [
    ["hm-test", "--trials", "5", "--tol", "1"],
    ["mellin-probe", "--tol", "1"],
    ["mellin-probe", "--imag-tol", "1"],
])
def test_no_option_loosens_a_probe_gate(runner, argv):
    res = runner.invoke(cli, argv)
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr.splitlines()[-1].startswith(f"Error: No such option '{argv[-2]}'")


def test_nan_from_the_probe_kernels_fails_the_gates(runner, monkeypatch):
    from zdx import probes

    sides, calls = probes._hm_sides, iter(range(10))

    def nan_at_trial_3(xi, phis):
        # past the first trial, where max alone would pass over a NaN
        lhs, rhs = sides(xi, phis)
        return (math.nan, rhs) if next(calls) % 5 == 3 else (lhs, rhs)

    monkeypatch.setattr(probes, "_hm_sides", nan_at_trial_3)
    rep = probes.hm_random_trials(5, 1)
    assert rep.worst_trial == 3 and math.isnan(rep.max_rel_slack) and not rep.ok
    res = runner.invoke(cli, ["hm-test", "--trials", "5"])
    assert res.exit_code == 1
    assert res.stderr == "trials=5 seed=1 max_rel_slack=nan worst_trial=3\n"

    monkeypatch.setattr(probes, "_gamma_grid",
                        lambda line, halfwidth, steps: (complex(math.nan),) * (2 * steps + 1))
    assert math.isnan(probes.mellin_probe(1.0).abs_error)
    assert not probes.mellin_probe(1.0).ok
    res = runner.invoke(cli, ["mellin-probe"])
    assert res.exit_code == 1
    assert res.stderr == "max_abs_error=nan max_imag_residual=nan\n"


def test_mellin_nan_rows_fail_and_show_in_summary(runner):
    res = runner.invoke(cli, ["mellin-probe", "--steps", "1", "--halfwidth", "1e300"])
    assert res.exit_code == 1
    assert res.stdout.splitlines()[1].split(",")[3] == "nan"
    assert res.stderr == "max_abs_error=nan max_imag_residual=nan\n"


def test_budget_exit_code_without_standalone_mode():
    # perfbench calls cli.main(standalone_mode=False) and must see the same code
    with pytest.raises(SystemExit) as exc:
        cli.main(["hecke-verify", "--limit", "200001"], prog_name="zdx",
                 standalone_mode=False)
    assert exc.value.code == 3


def test_internal_error_exits_4_with_one_line(runner, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("broken pair generator")

    monkeypatch.setattr("zdx.pairs.generate_pairs", broken)
    res = runner.invoke(cli, ["pairs", "--depth", "1"])
    assert res.exit_code == 4
    assert res.stdout == ""
    assert res.stderr == "error: internal error: RuntimeError: broken pair generator\n"


def test_closed_stdout_still_reports_and_exits_0():
    # the reader takes 100 bytes of the CSV and closes the pipe
    proc = subprocess.Popen([sys.executable, "-m", "zdx.cli", "hecke-verify", "--limit", "20000"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_env())
    head = proc.stdout.read(100)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0, err
    assert head.startswith(b"n,tau,m,convolution_value\n1,1,1,1\n")
    assert err == ("limit=20000 convolution_failures=0 recursion_failures=0 "
                   "multiplicativity_failures=0 deligne_ok=True deligne_max_ratio=1\n")


@pytest.mark.parametrize("argv, err", [
    (["mellin-probe"], "max_abs_error=1.332e-15 max_imag_residual=4.941e-17\n"),
    (["audit-family", "--depth", "12"], ""),
])
def test_stdout_closed_before_the_first_write(argv, err):
    # a short text waits in stdout's buffer, so the interpreter's last flush
    # would fail again if stdout still went to the closed pipe
    proc = subprocess.Popen([sys.executable, "-m", "zdx.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_env())
    proc.stdout.close()
    got = proc.stderr.read().decode()
    proc.stderr.close()
    assert (proc.wait(timeout=60), got) == (0, err)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
def test_full_stdout_exits_2_with_one_line():
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "zdx.cli", "pairs", "--depth", "3"],
                              stdout=full, stderr=subprocess.PIPE, text=True, env=_env())
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: cannot write stdout: "), lines


_RATS = ["0", "1", "-1", "1/2", "1/14", "11/14", "2/7", "4/7", "17/18", "13/15", "0.95",
         "5/4", "2/5", "1/0", "nan", "inf", "-inf", "1e-5", "1e-5000", "1e999999999", "abc",
         ""]
_FLOATS = ["0", "-0", "1", "-1", "2", "0.5", "40", "1e-320", "1e300", "1e400", "nan",
           "inf", "-inf", "abc", "1/2"]
_rat = st.sampled_from(_RATS)
_pair = st.one_of(st.builds(lambda k, l: f"{k},{l}", _rat, _rat),
                  st.sampled_from(["1/14,11/14", "1/6,2/3", "1,2,3", "1/14", ","]))
_interval = st.one_of(st.builds(lambda lo, hi: f"{lo},{hi}", _rat, _rat),
                      st.sampled_from(["17/18,1", "13/15,1", "1,1", "1/2"]))
_float = st.one_of(st.sampled_from(_FLOATS), st.floats(-1e3, 1e3).map(repr))
_depth = st.sampled_from(["-1", "0", "1", "2", "3", "5", "23", "x"])


def _opt(flag, values):
    return st.tuples(st.just(flag), values).map(list)


def _ints(lo, hi):
    edges = sorted({lo, min(max(-1, lo), hi), min(max(0, lo), hi), hi})
    return st.one_of(st.sampled_from(edges), st.integers(lo, hi)).map(str)


_OUT = _opt("--out", st.sampled_from(["-", os.devnull, NO_DIR_OUT]))
_FLAGS = {
    "pairs": [_opt("--depth", _depth), st.just(["--prune"])],
    "bound": [_opt("--pair", _pair), _opt("--sigma", _rat)],
    "optimize": [_opt("--depth", _depth), _opt("--interval", _interval),
                 _opt("--resolution", _ints(-1, 64)),
                 _opt("--format", st.sampled_from(["csv", "json", "svg"])),
                 st.just(["--include-conjectural"])],
    "compare": [_opt("--depth", _depth), _opt("--interval", _interval),
                _opt("--baseline", st.sampled_from(
                    ["4/(8s-5)", "2/(13s-11)", "s^2", "1/(s-0.95)", "-1", "x", "++s", "",
                     "1/0", "(4s+2)/(s-1)", "1/2/3"])),
                _opt("--format", st.sampled_from(["csv", "json", "text", "xml"]))],
    "audit": [_opt("--pair", _pair), _opt("--region", st.sampled_from(["1", "2", "both", "3"])),
              _opt("--format", st.sampled_from(["text", "json"]))],
    "hecke-verify": [_opt("--limit", st.one_of(_ints(-1, 300), st.just("200001")))],
    "hm-test": [_opt("--seed", _ints(-3, 10**6)), _opt("--trials", _ints(-1, 5)),
                _opt("--dim", _ints(-1, 8)), _opt("--r", _ints(-1, 8))],
    "mellin-probe": [_opt("--x", st.one_of(_rat, st.sampled_from(["1e-300", "1e400", "1e-400"]))),
                     _opt("--line", _float), _opt("--halfwidth", _float),
                     _opt("--steps", _ints(-1, 50))],
    "zeta-probe": [_opt("--pair", _pair), _opt("--t-max", _float),
                   _opt("--samples", _ints(-1, 5))],
    "plot": [_opt("--depth", _depth), _opt("--interval", _interval)],
    "audit-family": [_opt("--depth", _depth), st.just(["--verbose"])],
}
# the float checks report their outcome in one summary line instead of an error
_SUMMARY_ON_FAILURE = {"hecke-verify", "hm-test", "mellin-probe"}


def _argv(command):
    flags = st.one_of(*_FLAGS[command], _OUT, st.just(["--bogus"]))
    return st.lists(flags, max_size=5).map(
        lambda groups: [command, *(a for g in groups for a in g)]
    )


@given(argv=st.sampled_from(sorted(_FLAGS)).flatmap(_argv))
@settings(max_examples=300, deadline=None)
def test_argv_fuzz_exit_codes(argv):
    res = CliRunner().invoke(cli, argv)
    assert res.exit_code in (0, 1, 2, 3), (argv, res.output, res.exception)
    assert "Traceback" not in res.output, argv
    lines = res.stderr.splitlines()
    if res.exit_code == 3 or (res.exit_code == 1 and argv[0] not in _SUMMARY_ON_FAILURE):
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)
    elif res.exit_code == 1:
        assert len(lines) == 1 and not lines[0].startswith("error: "), (argv, lines)
