import contextlib
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
from zdx.probes import MAX_TRIALS
from oracles import replace


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


@pytest.mark.parametrize("argv", [["--help"], ["--version"], ["hm-test", "--help"]])
def test_help_and_version_into_a_closed_stdout(argv):
    # written like a command's output: a reader that closes stdout first is no error
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "zdx.cli", *argv], stdout=write,
                              stderr=subprocess.PIPE, env=_env(), timeout=60)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (0, b"")


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
    # the table at a point interval and at one step, taken from the Fraction grid
    # that the integer grid replaced
    "optimize --format csv --depth 12 --interval 7/10,7/10":
        "b3b8ff8aa871615552891716f03ce2b9d9c73a3735df83de757bb191ac1f414d",
    "optimize --format csv --depth 12 --interval 13/15,1 --resolution 1":
        "f0e847418c17980411ff8433356dbce3246f13de25c2ad288214667ceddb4c2f",
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

    def audit(pair, region):
        report = real(pair, region)
        if region == 2:
            return replace(report, violation=BalanceViolation("class2_moment", Fraction(43, 45)))
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
    monkeypatch.setattr(density, "continuity_check", lambda pair: replace(real(pair),
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
    family = {p.triple: p.word for p in generate_pairs(9)}
    assert tuple(lines[:-1]) == density.audit_family(family).lines


def test_audit_family_checks_each_pair_once(runner, monkeypatch):
    from zdx import pairs

    family, checked, real = pairs.generate_pairs(12), [], pairs._check
    monkeypatch.setattr(pairs, "_check", lambda *args: checked.append(args[:3]) or real(*args))
    assert invoke(runner, "audit-family", "--depth", "12").exit_code == 0
    assert sorted(checked) == sorted(p.triple for p in family if p is not pairs.SEED)


def test_audit_family_rejects_a_pair_outside_the_triangle(runner, monkeypatch):
    # as generate_pairs does: the closure checks every triple it finds
    from zdx import pairs

    real = pairs._a
    # A of (1/6, 2/3) lands on (1, 1) instead of (1/14, 11/14)
    monkeypatch.setattr(pairs, "_a", lambda *t: (1, 1, 1) if t == (1, 4, 6) else real(*t))
    with pytest.raises(pairs.InvalidPair, match=r"^kappa = 1 outside \[0, 1/2\]$") as caught:
        pairs.generate_pairs(3)
    res = runner.invoke(cli, ["audit-family", "--depth", "3"])
    assert res.exit_code == 3
    assert res.stdout == ""
    assert res.stderr == f"error: {caught.value}\n"


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
    from zdx.cli import _CSV_ROWS
    from zdx.hecke import verify_table

    rep = verify_table(9000)
    want = "n,tau,m,convolution_value\n" + "".join(
        [f"{n},{t},{mn},{c}\n" for n, t, mn, c in
         zip(range(1, 9001), rep.table.tau[1:], rep.mollifier.m[1:], rep.convolution[1:])])
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


@pytest.mark.parametrize("given, kept", [(None, "1"), ("3", "3")])
def test_hm_test_asks_for_one_blas_thread_unless_told(runner, monkeypatch, given, kept):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", given or "")  # restored after the test
    if given is None:
        monkeypatch.delenv("OPENBLAS_NUM_THREADS")
    assert invoke(runner, "hm-test", "--trials", "5", "--out", os.devnull).exit_code == 0
    assert os.environ["OPENBLAS_NUM_THREADS"] == kept


def test_hm_test_writes_its_csv_in_blocks(runner, monkeypatch):
    # 4097 rows are two blocks of 4096 rows at most; the text is the one-join CSV
    from zdx import cli as cli_module
    from zdx.probes import hm_random_trials

    real, chunks = cli_module._write_out, []

    def spy(text, out):
        chunks.extend([text] if isinstance(text, str) else text)
        real(chunks, out)

    monkeypatch.setattr(cli_module, "_write_out", spy)
    res = invoke(runner, "hm-test", "--trials", "4097", "--seed", "3")
    assert res.exit_code == 0
    rows = hm_random_trials(4097, 3).rows
    assert res.stdout == "trial,dim,r,lhs,rhs,rel_slack\n" + "".join(
        [f"{i},{d},{r},{lhs:.17g},{rhs:.17g},{rel:.17g}\n"
         for i, (d, r, lhs, rhs, rel) in enumerate(rows)])
    assert len(chunks) >= 3 and max(chunk.count("\n") for chunk in chunks) <= 4096
    # the tau table and the bound's table go through the same blocks
    for argv in (["hecke-verify", "--limit", "4097"],
                 ["optimize", "--depth", "3", "--interval", "1/2,1", "--resolution", "4096"]):
        chunks.clear()
        res = invoke(runner, *argv)
        assert res.exit_code == 0
        assert res.stdout.count("\n") == 4098 and res.stdout == "".join(chunks)
        assert len(chunks) >= 3 and max(chunk.count("\n") for chunk in chunks) <= 4096


def test_optimize_resolution_over_budget_exit3(runner, monkeypatch):
    # both formats check the budget before the family is generated
    from zdx import density, pairs
    from zdx.exact import Interval

    def never(*args):
        raise AssertionError("work was done before the budget was checked")

    monkeypatch.setattr(Interval, "integer_grid", never)
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
    res = invoke(runner, "mellin-probe")
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
#: replaced; ``--x 3/7 --x 5`` from the quadrature's options at their
#: defaults, before they became constants.  The default mellin-probe
#: digest is also perfbench's pin.
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
    "mellin-probe --x 3/7 --x 5": (
        "ef378e79c5d1175c62717427b05c66747606dc7aa884ba81f49a1405781faccc",
        "4b4ee84eb6059cd7aadad3e5bd7db177d0d0ff7d9c15293985ac9f6084bd3e15",
    ),
    "zeta-probe": (
        "29c5b7129c2d137d24384ee69584baf2fb6475b3e63d8fea072627edca36f157",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
}


@pytest.mark.parametrize("argv", sorted(DESK_SHA256))
def test_desk_outputs_pinned(runner, argv):
    # the help is 78 columns wide in an 80-column terminal
    res = runner.invoke(cli, argv.split(), prog_name="zdx", env={"COLUMNS": "80"})
    assert res.exit_code == 0
    digests = tuple(hashlib.sha256(b).hexdigest() for b in (res.stdout_bytes, res.stderr_bytes))
    assert digests == DESK_SHA256[argv]


def _call_digest(argv: str, columns: int) -> str:
    """sha256 of the stdout, stderr and exit code of ``zdx argv`` in a fresh
    interpreter whose terminal is ``columns`` wide."""
    proc = subprocess.run([sys.executable, "-m", "zdx.cli", *argv.split()], capture_output=True,
                          env={**_env(), "COLUMNS": str(columns)}, timeout=60)
    return hashlib.sha256(b"\0".join([proc.stdout, proc.stderr, str(proc.returncode).encode()])
                          ).hexdigest()


#: ``_call_digest`` of every help text and of one call per kind of usage
#: error, taken when the options were parsed by click 8.4, whose help
#: layout and error text the CLI keeps.
HELP_AND_USAGE_SHA256 = {
    ("--help", 80): "d91ede67029f7121dcb7c125e1150e7d343157743df7aad9ef4ea66a1b023aa0",
    ("--version", 80): "d66d4a86756d1548e84a8b89fe97426e4736c554ab57251a942791548b8036e1",
    ("", 80): "1908e1b23c69d5ae9f0d6f4c8b4ec7065f1c08ae4c67033a33c9292e2489b797",
    ("audit --help", 80): "f9c3fa0d7cd750128496e63fd60fc7acc497d50e3cfa8420f9d36da8c63b44ff",
    ("audit-family --help", 80):
        "1a909245b4d57f7ca5f451edb6413e5dec6900263eb9f34cd89cf49fc21c8539",
    ("bound --help", 80): "4e241de445bd23637b1fab5d20400c30f1d825930512c64e1261331cdc4ef50b",
    ("compare --help", 80): "239177b0c8a5ecae7f4cf198cf4e4fbaed5c31b0813aa41e65bcc4d8ef698aaf",
    ("hecke-verify --help", 80):
        "0552037a5abbd93c51d73df5c8d67051b796848cf033f2e2f22f5439eecc7691",
    ("hm-test --help", 80): "100a0be9ecac9a564163c5cabc33f4808eb4588ceb3b289dcc7f2e213f651b63",
    ("mellin-probe --help", 80):
        "6675188e9deb8279dfede7af058dac09e60ff464bcb3e778be4532792d4534c5",
    ("optimize --help", 80): "33f5f612e3d57f0568f82f264fc42897f3b1dd4c13e68bc3f79bd7a3ba5bfbf2",
    ("pairs --help", 80): "d30f74ac7d2d5f12ca58f02728665f813265e1f84ea87027e29242c3f0fb7d5e",
    ("plot --help", 80): "85889d4434fe335bcf54018804fc09f27db0d1ff6138806ad064e7fddda6c522",
    ("zeta-probe --help", 80): "68b71e4e9470ad79dc867b8acfd18d3920924b014447e5e4237d18a5f09d0923",
    ("optimize --help", 60): "7f6690766c3b4820b05b697913f0d53033b15a9f6f6d7b23fe4840fda7a3366e",
    ("optimize --help", 200): "33f5f612e3d57f0568f82f264fc42897f3b1dd4c13e68bc3f79bd7a3ba5bfbf2",
    ("--help", 50): "718489f69118721f3aa2c1840092e1b20c86469f84556d2a3d7c373183b030d8",
    ("audit-family --help", 50):
        "3f653fb33fdd416b3fb3c597eba00fc3b1d8f7f1886ef5e86ba732319f35d71b",
    ("optimize --dep 3", 80): "b61d30e60ef565ad87e32d7ca7baffa7ac927af745e9aebc63ada378c005005c",
    ("optimize --forma x", 80): "0d5dfdbfcdd43b3199f759226fc092cec2ceb9b360a5af932d6b9d13ce94226b",
    ("nope", 80): "d46ee24a699c66b0447ead5846450391a516d59080b930085bdc5016e11443bb",
    ("audit-famly", 80): "ce0a081ce31c163a782870f02e951557b73df412df9301832f70ec7049e573ae",
    ("--ver", 80): "2225fc52ba0770189191f5506f6eac68a3ede5a3eb0e51f19ebcd03fd3f015f1",
    ("--bogus", 80): "a3b0b6914aba4f5525d397fc5ca2aedd2e33e83b54802baff8097e65ad722679",
    ("-x", 80): "fb7621c209831bfd280f7d89386ced958e895479f1dd8b05bcc47a54ad4ab97f",
    ("--", 80): "db1cbbc58680dc6a78e4bd331392ac415ff22b4a82211d744a237e786e5249c2",
    ("bound --sigma 1/2", 80): "244bc444978c78b17c567c4de9930fb4eba35f9ec1dff71ada802fe8cc3b5274",
    ("optimize --depth", 80): "1fb8a4ac8bf59ae76a7697b974f2c14c248d4113ba95e2c62f49ff9fe67b5ad7",
    ("pairs --prune=1", 80): "19e52e859f52ae7d5236e9ed308aeb09d2e48f590a2455174f56b3060815b689",
    ("--version=1", 80): "f1bcbd0697e3e3895c6133009dda4ae65d5ae1ae021c3f28fa0f0a9b760ed56b",
    ("pairs foo", 80): "587bf7c80b69afa946f2218465b3391bc73535420509d695a00319b9b8c1cf0d",
    ("pairs foo bar", 80): "104cced46ca654a13d6b6a573a07a00426215c1cb506773ad9d888285438fadb",
    ("pairs -- --depth 3", 80): "a660211d355a9d19ff4521f7f2841344660c0e2b045afab3ae81bbe9df5f6c57",
    ("mellin-probe --x 0", 80): "c003b1fa59b1a5b875dd6ef921ce216c6d5503b947be2dbd9541c555695acf11",
    ("bound --pair 1/14 --sigma 1", 80):
        "4e6f94ae4d203e5cee6691fabb5759ea31fc9f0207d5d02386fa4dabe75e8182",
    ("pairs --out /nonexistent/x", 80):
        "d83de9768ddeb7a3eb6dc5d98f01ae3a4553afc7156f0ae57ff012d00168522b",
    ("pairs --depth x", 80): "69fb2a1432b97e6401f229537c54efeaf2bfb8c96688e19103b78388b656f231",
    ("pairs --depth -1", 80): "d7d46818c501f8d7cf2ef2a073827f73d12da79ff42ab861122b04327fe4730c",
    ("optimize --format svg", 80):
        "556cc0594e9a4ea52463a63e07006ef29528d4501a2877adcd006240e8792870",
    ("audit --pair 1/14,11/14 --region 3", 80):
        "0ab5281663bb4877b6f6221bf552fed3b25c11a60315bca9dba8150d724a479f",
    ("audit --region 3 --bogus", 80):
        "264e0849297b8fd8cd23d5db6b72fb015a2e20760b93a326a6534d5b5f75c5a0",
    ("optimize --depth x --help", 80):
        "33f5f612e3d57f0568f82f264fc42897f3b1dd4c13e68bc3f79bd7a3ba5bfbf2",
    ("optimize --depth x --resolution 0", 80):
        "95c0b1cc8d20c40dcc3e259336821cdadc74092d05363a3a2aeb9d10f350d27a",
    ("optimize --resolution 0 --depth x", 80):
        "bfe70bc34f1ae8dd5f609d9e53ca6365e485e8c72139900a46ee4505a2ce9c7f",
    ("hecke-verify --limit 0 --limit=-5", 80):
        "dc67e57820496a2a37141ef1f835c8ecc6ac4736f8261ef4229c18c8bf42e881",
}


@pytest.mark.parametrize("argv, columns", sorted(HELP_AND_USAGE_SHA256))
def test_help_and_usage_errors_pinned(argv, columns):
    assert _call_digest(argv, columns) == HELP_AND_USAGE_SHA256[argv, columns]


@pytest.mark.parametrize("argv, unloaded", [
    (["--help"], ["click", "csv", "decimal", "fractions", "json", "numpy", "zdx.density",
                  "zdx.hecke", "zdx.svg"]),
    (["compare", "--depth", "3", "--format", "csv"], ["click", "json", "numpy"]),
    (["plot", "--depth", "3"], ["click", "csv", "json", "numpy"]),
    (["mellin-probe"], ["click", "numpy", "zdx.exact"]),
    (["hm-test", "--trials", "3"], ["click", "zdx.density", "zdx.exact", "zdx.pairs"]),
    (["hecke-verify", "--limit", "50"],
     ["click", "numpy", "zdx.density", "zdx.exact", "zdx.pairs"]),
    (["zeta-probe"], ["click", "numpy", "zdx.density", "zdx.exact"]),
    (["pairs", "--depth", "3"], ["click", "numpy", "zdx.density", "zdx.exact"]),
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
    res = invoke(runner, "zeta-probe", "--out", str(out))
    assert res.exit_code == 0
    rows = out.read_text().splitlines()
    assert rows[0] == "t,abs_zeta,ratio"
    assert rows[1].startswith("0,") and rows[-1].startswith("1000,")
    assert len(rows) == 102


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
    (["mellin-probe", "--x", "1e-300"], 3),
    (["mellin-probe", "--x", "1e400"], 3),
    (["mellin-probe", "--x", "1e-400"], 3),
    (["zeta-probe", "--pair", "1/6,2/3"], 3),
    (["zeta-probe", "--pair", "0,1"], 3),
    (["pairs", "--depth", "23"], 3),
    (["audit", "--pair", "2/7,4/7", "--region", "1"], 3),
    (["hecke-verify", "--limit", "200001"], 3),
    (["mellin-probe", "--x", "1e-30"], 1),
    (["mellin-probe", "--x", "1e-154"], 3),
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
    # the probes and the optimizer run one fixed configuration
    ["hm-test", "--trials", "5", "--dim", "8"],
    ["hm-test", "--trials", "5", "--r", "4"],
    ["mellin-probe", "--line", "3"],
    ["mellin-probe", "--halfwidth", "5"],
    ["mellin-probe", "--steps", "800"],
    ["zeta-probe", "--t-max", "20"],
    ["zeta-probe", "--samples", "3"],
    ["optimize", "--depth", "3", "--include-conjectural"],
])
def test_no_option_loosens_a_probe_gate(runner, argv):
    res = runner.invoke(cli, argv)
    assert res.exit_code == 2
    assert res.stdout == ""
    option = [a for a in argv if a.startswith("--")][-1]
    assert res.stderr.splitlines()[-1].startswith(f"Error: No such option '{option}'")


def test_nan_from_the_probe_kernels_fails_the_gates(runner, monkeypatch):
    from zdx import probes

    sides, trial_3 = probes._hm_sides, probes.hm_random_system(1 + 3).xi

    def nan_at_trial_3(xi, phis):
        # past the first trial, where max alone would pass over a NaN; the
        # stacks come by shape, so trial 3 is found by its xi
        lhs, rhs = sides(xi, phis)
        for k, x in enumerate(xi):
            if x.shape == trial_3.shape and (x == trial_3).all():
                lhs[k] = math.nan
        return lhs, rhs

    monkeypatch.setattr(probes, "_hm_sides", nan_at_trial_3)
    rep = probes.hm_random_trials(5, 1)
    assert rep.worst_trial == 3 and math.isnan(rep.max_rel_slack) and not rep.ok
    res = runner.invoke(cli, ["hm-test", "--trials", "5"])
    assert res.exit_code == 1
    assert res.stderr == "trials=5 seed=1 max_rel_slack=nan worst_trial=3\n"

    monkeypatch.setattr(probes, "_gamma_grid",
                        lambda: (complex(math.nan),) * (2 * probes.MELLIN_STEPS + 1))
    assert math.isnan(probes.mellin_probe(1.0).abs_error)
    assert not probes.mellin_probe(1.0).ok
    res = runner.invoke(cli, ["mellin-probe"])
    assert res.exit_code == 1
    assert res.stderr == "max_abs_error=nan max_imag_residual=nan\n"


def test_mellin_nan_rows_fail_and_show_in_summary(runner, monkeypatch):
    # the terms overflow to infinities of both signs: an overflow, not a NaN row
    res = runner.invoke(cli, ["mellin-probe", "--x", "1/2", "--x", "1e-154"])
    assert res.exit_code == 3
    assert res.stdout == ""
    assert res.stderr == "error: the probe at x = 1e-154 overflows the floating-point range\n"

    from zdx import probes

    probe = probes.mellin_probe

    def nan_at_x_1(x):
        r = probe(x)
        return probes.MellinResult(x, math.nan, math.nan, r.target) if x == 1 else r

    monkeypatch.setattr(probes, "mellin_probe", nan_at_x_1)
    res = runner.invoke(cli, ["mellin-probe", "--x", "1/2", "--x", "1", "--x", "2"])
    assert res.exit_code == 1
    assert [row.split(",")[3] == "nan" for row in res.stdout.splitlines()[1:]] == [
        False, True, False]
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


def test_interrupt_exits_1_with_aborted(runner, monkeypatch):
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr("zdx.pairs.generate_pairs", interrupted)
    res = runner.invoke(cli, ["pairs", "--depth", "1"])
    assert (res.exit_code, res.stdout, res.stderr) == (1, "", "\nAborted!\n")


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


@pytest.mark.parametrize("argv, code", [
    (["hecke-verify", "--limit", "20000"], 0),
    (["mellin-probe", "--x", "1e-30"], 1),
    (["hm-test", "--bogus"], 2),
    (["bound", "--pair", "2/7,4/7", "--sigma", "5/4"], 3),
    (["pairs", "--depth", "23"], 3),
])
def test_closed_stderr_keeps_the_exit_code(argv, code):
    # stdout and stderr share one pipe, which the reader closes before the first byte
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "zdx.cli", *argv],
                              stdout=write, stderr=write, env=_env(), timeout=60)
    finally:
        os.close(write)
    assert proc.returncode == code


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
_rat = st.sampled_from(_RATS)
_pair = st.one_of(st.builds(lambda k, l: f"{k},{l}", _rat, _rat),
                  st.sampled_from(["1/14,11/14", "1/6,2/3", "1,2,3", "1/14", ","]))
_interval = st.one_of(st.builds(lambda lo, hi: f"{lo},{hi}", _rat, _rat),
                      st.sampled_from(["17/18,1", "13/15,1", "1,1", "1/2"]))
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
                 _opt("--format", st.sampled_from(["csv", "json", "svg"]))],
    "compare": [_opt("--depth", _depth), _opt("--interval", _interval),
                _opt("--baseline", st.sampled_from(
                    ["4/(8s-5)", "2/(13s-11)", "s^2", "1/(s-0.95)", "-1", "x", "++s", "",
                     "1/0", "(4s+2)/(s-1)", "1/2/3"])),
                _opt("--format", st.sampled_from(["csv", "json", "text", "xml"]))],
    "audit": [_opt("--pair", _pair), _opt("--region", st.sampled_from(["1", "2", "both", "3"])),
              _opt("--format", st.sampled_from(["text", "json"]))],
    "hecke-verify": [_opt("--limit", st.one_of(_ints(-1, 300), st.just("200001")))],
    "hm-test": [_opt("--seed", _ints(-3, 10**6)), _opt("--trials", _ints(-1, 5))],
    "mellin-probe": [_opt("--x", st.one_of(
        _rat, st.sampled_from(["1e-300", "1e400", "1e-400", "1e-154"])))],
    "zeta-probe": [_opt("--pair", _pair)],
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


# -- exit codes of every command in every stream state ------------------------------

#: (case, args, exit code with both streams open) per desk command, on the
#: smallest inputs, besides the usage error and ``--help`` of every command.
#: Cells that no CLI input reaches are left out: ``hecke-verify`` and
#: ``hm-test`` have no input that fails their checks (the tau identities hold
#: at every admissible limit, and no seed found gives an hm slack above the
#: tolerance), and ``zeta-probe`` is report-only, so it never exits 1.
_DESK_INPUTS = {
    "hecke-verify": [("ok", ["--limit", "50"], 0),
                     ("inadmissible", ["--limit", "200001"], 3)],
    "hm-test": [("ok", ["--trials", "3"], 0),
                ("inadmissible", ["--trials", str(MAX_TRIALS + 1)], 3)],
    "mellin-probe": [("ok", ["--x", "1"], 0),
                     ("check-failure", ["--x", "1e-30"], 1),
                     ("inadmissible", ["--x", "1e-300"], 3)],
    "zeta-probe": [("ok", [], 0),
                   ("inadmissible", ["--pair", "13/84,55/84"], 3)],
}
_EVERY_COMMAND = [("usage", ["--bogus"], 2), ("help", ["--help"], 0)]

#: The same for the other commands.  ``pairs``, ``bound``, ``optimize``,
#: ``compare`` and ``plot`` check nothing, so they never exit 1.  ``audit``
#: and ``audit-family`` exit 1 only on a failed balance audit or continuity
#: check, which no input reaches: on every pair they accept, the terms meet E
#: and the branches meet each other by algebraic identities, so only a defect
#: in the code fails them, and their check-failure cells are left out too.
_OTHER_INPUTS = {
    "pairs": [("ok", ["--depth", "2"], 0), ("inadmissible", ["--depth", "23"], 3)],
    "bound": [("ok", ["--pair", "1/6,2/3", "--sigma", "4/5"], 0),
              ("inadmissible", ["--pair", "2/7,4/7", "--sigma", "5/4"], 3)],
    "optimize": [("ok", ["--depth", "2"], 0), ("inadmissible", ["--interval", "0,1"], 3)],
    "compare": [("ok", ["--depth", "2"], 0), ("inadmissible", ["--interval", "0,1"], 3)],
    "audit": [("ok", ["--pair", "1/6,2/3"], 0),
              ("inadmissible", ["--pair", "2/7,4/7", "--region", "1"], 3)],
    "audit-family": [("ok", ["--depth", "3"], 0), ("inadmissible", ["--depth", "23"], 3)],
    "plot": [("ok", ["--depth", "2"], 0), ("inadmissible", ["--interval", "0,1"], 3)],
}

_MATRIX = [
    *((command, case, args, code) for command, cells in _DESK_INPUTS.items()
      for case, args, code in [*cells, *_EVERY_COMMAND]),
    *((command, case, args, code) for command, cells in _OTHER_INPUTS.items()
      for case, args, code in [*cells, *_EVERY_COMMAND]),
]

_STREAM_STATES = ["stdout-closed", "stderr-closed", "both-closed", "dev-full"]


def _run_in_state(argv, state):
    """Run ``zdx argv`` with stdout, stderr or both going to a pipe whose
    reader closed it before the first byte, or with stdout on ``/dev/full``."""
    with contextlib.ExitStack() as stack:
        read, write = os.pipe()
        os.close(read)
        stack.callback(os.close, write)
        if state == "dev-full":
            streams = {"stdout": stack.enter_context(open("/dev/full", "w")),
                       "stderr": subprocess.PIPE}
        else:
            closed = state.removesuffix("-closed")
            streams = {name: write if closed in (name, "both") else subprocess.DEVNULL
                       for name in ("stdout", "stderr")}
        return subprocess.run([sys.executable, "-m", "zdx.cli", *argv], **streams, env=_env(),
                              timeout=60)


@pytest.mark.parametrize("state", _STREAM_STATES)
@pytest.mark.parametrize("command, case, args, code", [
    pytest.param(command, case, args, code, id=f"{command}-{case}")
    for command, case, args, code in _MATRIX
])
def test_desk_exit_code_matrix(command, case, args, code, state):
    """A closed stream keeps the exit code; a stdout that refuses a write
    exits 2 with one line, where the command writes to it.  Every command
    is run with every cell."""
    if state == "dev-full" and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this system")
    proc = _run_in_state([command, *args], state)
    # an ok run and a check failure write their CSV to stdout, and --help its text
    refused = state == "dev-full" and case in ("ok", "check-failure", "help")
    assert proc.returncode == (2 if refused else code), proc.stderr
    if refused:
        lines = proc.stderr.decode().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: cannot write stdout: "), lines
