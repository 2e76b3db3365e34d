"""Each output checker accepts a correct output and rejects a corrupted one.

Run from the root of a checkout:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from click.testing import CliRunner  # noqa: E402

import checks  # noqa: E402
from zdx.cli import cli  # noqa: E402
from zdx.density import optimize, piecewise_to_json_obj  # noqa: E402
from zdx.exact import Interval  # noqa: E402
from zdx.pairs import generate_pairs  # noqa: E402

INTERVAL = Interval(Fraction(13, 15), Fraction(1))


def _invoke(*args: str):
    result = CliRunner().invoke(cli, list(args))
    assert result.exit_code == 0, result.output
    return result.stdout.encode(), result.stderr


def _drop_line(data: bytes, index: int) -> bytes:
    lines = data.splitlines(keepends=True)
    del lines[index]
    return b"".join(lines)


# -- hecke -------------------------------------------------------------------

@pytest.fixture(scope="module")
def hecke():
    return _invoke("hecke-verify", "--limit", "300")


def test_hecke_accepts_correct_table(hecke):
    out, err = hecke
    assert checks.check_hecke(out, err, 300, checks.sha256(out)) == []


def test_hecke_rejects_perturbed_tau(hecke):
    out, err = hecke
    bad = out.replace(b"\n7,-16744,", b"\n7,-16745,")
    assert bad != out
    assert checks.check_hecke(bad, err, 300)


def test_hecke_digest_rejects_perturbed_tau_beyond_the_hand_table(hecke):
    out, err = hecke
    bad = out.replace(b"\n11,534612,", b"\n11,534613,")
    assert bad != out
    assert checks.check_hecke(bad, err, 300) == []  # only the digest sees it
    assert checks.check_hecke(bad, err, 300, checks.sha256(out))


def test_hecke_rejects_dropped_row(hecke):
    out, err = hecke
    assert checks.check_hecke(_drop_line(out, 150), err, 300)


def test_hecke_rejects_reported_failure(hecke):
    out, err = hecke
    assert checks.check_hecke(out, err.replace("deligne_ok=True", "deligne_ok=False"), 300)


# -- hm-test -----------------------------------------------------------------

@pytest.fixture(scope="module")
def hm():
    return _invoke("hm-test", "--trials", "40", "--seed", "9")


def test_hm_accepts_correct_rows(hm):
    assert checks.check_hm(*hm, 40, 9) == []


def test_hm_rejects_dropped_row(hm):
    out, err = hm
    assert checks.check_hm(_drop_line(out, 20), err, 40, 9)


def test_hm_rejects_rows_from_another_seed(hm):
    assert checks.check_hm(*hm, 40, 10)


# -- probes ------------------------------------------------------------------

def test_mellin_and_zeta_reject_perturbed_values():
    out, err = _invoke("mellin-probe")
    assert checks.check_mellin(out, err, checks.PINNED_SHA256["mellin-probe"]) == []
    for value in (b"0.36787954117144367", b"0.36797944117144367"):
        bad = out.replace(b"0.36787944117144367", value)
        assert bad != out and checks.check_mellin(bad, err)
    out, _ = _invoke("zeta-probe")
    assert checks.check_zeta(out, checks.PINNED_SHA256["zeta-probe"]) == []
    assert checks.check_zeta(_drop_line(out, 50))


# -- envelope ----------------------------------------------------------------

@pytest.fixture(scope="module")
def optimized():
    bound = optimize(generate_pairs(9), INTERVAL, 256)
    return piecewise_to_json_obj(bound)


def test_envelope_accepts_correct_bound(optimized):
    assert checks.check_optimize_json(json.dumps(optimized), 9) == []


def test_envelope_rejects_segment_relabelled_with_dominated_curve(optimized):
    obj = json.loads(json.dumps(optimized))
    seg = obj["segments"][0]
    seg["A"] = {"a": "0", "b": "8", "c": "0", "d": "3", "text": "8/3"}
    seg["provenance"] = {"winner_kappa": "", "winner_lambda": "", "winner_word": "ivic-8/3",
                         "region": ""}
    seg["label"] = "ivic-8/3"
    fails = checks.check_optimize_json(json.dumps(obj), 9)
    assert any("is beaten by" in f for f in fails), fails


def test_envelope_rejects_provenance_that_does_not_replay(optimized):
    obj = json.loads(json.dumps(optimized))
    seg = next(s for s in obj["segments"] if s["provenance"]["region"] == "2")
    seg["label"] = seg["label"].replace("region 2", "region 1")
    seg["provenance"]["region"] = "1"
    assert checks.check_optimize_json(json.dumps(obj), 9)


def test_envelope_rejects_gap(optimized):
    obj = json.loads(json.dumps(optimized))
    del obj["segments"][1]
    assert checks.check_optimize_json(json.dumps(obj), 9)


def test_compare_and_plot_accept_correct_and_reject_corrupted():
    compare, _ = _invoke("compare", "--depth", "9", "--interval", "13/15,1", "--format", "csv")
    svg, _ = _invoke("plot", "--depth", "9", "--interval", "13/15,1")
    text, svg = compare.decode(), svg.decode()
    assert checks.check_compare_csv(text, INTERVAL, 9) == []
    assert checks.check_plot_svg(svg, text) == []
    lines = text.splitlines(keepends=True)
    boundary = next(i for i, line in enumerate(lines) if line.startswith("boundary,"))
    assert checks.check_compare_csv("".join(lines[:boundary] + lines[boundary + 1:]), INTERVAL, 9)
    head, sep, points = svg.partition('points="')
    first, _, rest = points.partition(" ")
    x, y = first.split(",")
    assert checks.check_plot_svg(f"{head}{sep}{x},{float(y) - 40:.2f} {rest}", text)


# -- certify -----------------------------------------------------------------

def test_pruned_family_accepts_correct_and_rejects_missing_pair():
    out, _ = _invoke("pairs", "--depth", "10", "--prune")
    assert checks.check_pruned_pairs_json(out.decode(), 10) == []
    rows = json.loads(out)
    del rows[len(rows) // 2]
    assert checks.check_pruned_pairs_json(json.dumps(rows), 10)


def test_pareto_minimal_matches_quadratic_definition():
    family = list(generate_pairs(9))
    brute = [
        p for p in family
        if not any(q.kappa <= p.kappa and q.lam <= p.lam and q.key != p.key for q in family)
    ]
    assert checks.pareto_minimal(family) == sorted(brute, key=lambda p: p.key)


def test_audit_summary_rejects_wrong_counts():
    line = "depth 18: 4182 pairs, 6039 region audits passed, 727 pairs outside (0, 1/3), 3.1s\n"
    assert checks.check_audit_summary(line, 18, checks.AUDIT_DEPTH18) == []
    assert checks.check_audit_summary(line.replace("6039", "6038"), 18, checks.AUDIT_DEPTH18)


# -- the benchmark itself ----------------------------------------------------

def test_metric_names_match_benchmark_json():
    import run
    from workloads import GATED

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(run.per_layer_units())
    assert [w["name"] for w in spec["workloads"]] == list(GATED)
    assert set(GATED) <= set(run.NAMES)


def test_benchmark_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
