"""Output checks for the benchmark's workloads.

Every checker takes the bytes a call produced (plus the inputs that
produced them) and returns a list of failure messages; an empty list means
the output is correct.  Checkers never trust the program's own summary
lines alone: each one recomputes something the output claims.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from fractions import Fraction

from zdx.density import (
    EmptyRegion,
    InadmissiblePair,
    baseline_curves,
    candidate_curves,
    exponent_curve,
)
from zdx.exact import (
    BRACKET_WIDTH,
    Interval,
    LinFrac,
    RootBracket,
    SignChangeDenominator,
    linfrac_compare_on_interval,
    rat_str,
)
from zdx.pairs import ExponentPair, generate_pairs, replay_word

#: tau(1..10), written out by hand (OEIS A000594).
TAU_HEAD = (1, -24, 252, -1472, 4830, -6048, -16744, 84480, -113643, -115920)

#: SHA-256 of the stdout of unseeded calls, as produced by the seed version
#: of zdx (criterion 9: stdout stays byte-identical unless it was wrong).
PINNED_SHA256 = {
    "hecke-verify --limit 20000": "85faa71c3348bb65d054f5fc6ae74d8caef746a016f0e2e61fb33286280ce2af",
    "mellin-probe": "cb120bfd7d32d856af86d887a295a548904352a7de30d382da08c35553e11f00",
    "zeta-probe": "29c5b7129c2d137d24384ee69584baf2fb6475b3e63d8fea072627edca36f157",
}

HM_TOLERANCE = 1e-10
MELLIN_TOLERANCE = 1e-6

_PAIR_LABEL = re.compile(r"pair (\S+),(\S+) region ([12])")
_AUDIT_SUMMARY = re.compile(
    r"depth (\d+): (\d+) pairs, (\d+) region audits passed, (\d+) pairs outside \(0, 1/3\)"
)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _csv_rows(text: str) -> tuple[list[str], list[list[str]]]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        return [], []
    return rows[0], rows[1:]


# ---------------------------------------------------------------------------
# envelope: optimize / compare / plot
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Seg:
    """One emitted segment: its region, its A-curve and who it is credited to."""

    lo: Fraction
    hi: Fraction
    A: LinFrac
    label: str
    pair: ExponentPair | None
    region: int | None

    def __str__(self) -> str:
        return f"[{rat_str(self.lo)}, {rat_str(self.hi)}] {self.A} ({self.label})"


def _seg_from_label(lo: str, hi: str, A: LinFrac, label: str) -> Seg:
    m = _PAIR_LABEL.fullmatch(label)
    pair = ExponentPair(Fraction(m.group(1)), Fraction(m.group(2))) if m else None
    return Seg(Fraction(lo), Fraction(hi), A, label, pair, int(m.group(3)) if m else None)


def segments_from_optimize_json(text: str) -> tuple[Interval, list[Seg]]:
    obj = json.loads(text)
    interval = Interval(Fraction(obj["interval"]["lo"]), Fraction(obj["interval"]["hi"]))
    segs = []
    for s in obj["segments"]:
        A = LinFrac(*(int(s["A"][k]) for k in "abcd"))
        if LinFrac.parse(s["A"]["text"]) != A:
            raise ValueError(f"segment A text {s['A']['text']!r} disagrees with its coefficients")
        seg = _seg_from_label(s["lo"], s["hi"], A, s["label"])
        prov = s["provenance"]
        if seg.pair is not None:
            word = prov["winner_word"]
            if (prov["winner_kappa"], prov["winner_lambda"], prov["region"]) != (
                rat_str(seg.pair.kappa), rat_str(seg.pair.lam), str(seg.region)
            ):
                raise ValueError(f"provenance fields disagree with label {s['label']!r}")
            if replay_word(word).key != seg.pair.key:
                raise ValueError(f"word {word!r} does not replay to {seg.pair}")
        segs.append(seg)
    return interval, segs


def envelope_failures(interval: Interval, segs: list[Seg], depth: int) -> list[str]:
    """Tiling, provenance replay and exact minimality of an emitted envelope.

    Minimality: every segment must be <= every candidate curve on their
    overlap, certified exactly.  A candidate may dip below the segment only
    within BRACKET_WIDTH of a segment endpoint (irrational boundaries are
    placed inside their isolating bracket).  Single-point overlaps are
    skipped: which side owns a shared endpoint is not yet specified.
    """
    if not segs:
        return ["no segments emitted"]
    fails = []
    if segs[0].lo != interval.lo or segs[-1].hi != interval.hi:
        fails.append(f"segments span [{rat_str(segs[0].lo)}, {rat_str(segs[-1].hi)}], "
                     f"not the interval {interval}")
    for a, b in zip(segs, segs[1:]):
        if a.hi != b.lo:
            fails.append(f"gap or overlap between {a} and {b}")
    for s in segs:
        if s.lo > s.hi:
            fails.append(f"segment {s} has endpoints out of order")

    baselines = {b.provenance.label: b for b in baseline_curves()}
    for s in segs:
        if s.pair is not None:
            try:
                replayed = exponent_curve(s.pair, s.region).A
            except (EmptyRegion, InadmissiblePair) as exc:
                fails.append(f"provenance of {s} does not replay: {exc}")
                continue
        elif s.label in baselines:
            replayed = baselines[s.label].A
        else:
            fails.append(f"segment {s} has unknown provenance")
            continue
        if replayed != s.A:
            fails.append(f"provenance of {s} replays to A = {replayed}")
    if fails:
        return fails

    candidates = candidate_curves(generate_pairs(depth))
    for s in segs:
        fails.extend(_dominance_failures(s, candidates))
    return fails


def _near_endpoint(s: Seg, lo: Fraction, hi: Fraction) -> bool:
    return hi <= s.lo + BRACKET_WIDTH or lo >= s.hi - BRACKET_WIDTH


def _dominance_failures(s: Seg, candidates) -> list[str]:
    fails = []
    region = Interval(s.lo, s.hi)
    for c in candidates:
        overlap = region.intersect(c.region)
        if overlap.is_empty or overlap.is_point or c.A == s.A:
            continue
        try:
            cert = linfrac_compare_on_interval(s.A, c.A, overlap)
        except SignChangeDenominator as exc:
            fails.append(f"segment {s} vs {c.provenance.label}: {exc}")
            continue
        if cert.relation in ("le", "eq"):
            continue
        # Pieces of the overlap between crossings, each with a probe point
        # strictly inside it; the candidate wins a piece where it is below.
        edges = [(overlap.lo, overlap.lo)]
        for r in cert.crossings:
            edges.append((r.lo, r.hi) if isinstance(r, RootBracket) else (r, r))
        edges.append((overlap.hi, overlap.hi))
        for (_, u), (v, _) in zip(edges, edges[1:]):
            if u >= v:
                continue
            probe = (u + v) / 2
            if c.A.eval(probe) >= s.A.eval(probe):
                continue
            if _near_endpoint(s, u, v):
                continue
            gap = (s.A.eval(probe) - c.A.eval(probe)) * (1 - probe)
            fails.append(
                f"segment {s} is beaten by {c.A} ({c.provenance.label}) on "
                f"[{float(u):.8f}, {float(v):.8f}]; E gap {float(gap):.3g} at sigma {float(probe):.8f}"
            )
    return fails


def check_optimize_json(text: str, depth: int) -> list[str]:
    try:
        interval, segs = segments_from_optimize_json(text)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"malformed optimize JSON: {exc}"]
    return envelope_failures(interval, segs, depth)


_COMPARE_HEADER = ["kind", "sigma", "sigma_decimal", "lo", "hi", "left", "right", "curve"]


def _root_from_text(text: str) -> tuple[Fraction, Fraction]:
    if text.startswith("["):
        lo, hi = text[1:-1].split(", ")
        return Fraction(lo), Fraction(hi)
    x = Fraction(text)
    return x, x


def check_compare_csv(text: str, interval: Interval, depth: int) -> list[str]:
    """Segments as in optimize; boundaries and baseline crossovers consistent."""
    header, rows = _csv_rows(text)
    if header != _COMPARE_HEADER:
        return [f"compare header {header!r}"]
    recs = [dict(zip(header, r)) for r in rows]
    try:
        segs = [
            _seg_from_label(r["lo"], r["hi"], LinFrac.parse(r["curve"]), r["right"])
            for r in recs if r["kind"] == "segment"
        ]
    except ValueError as exc:
        return [f"malformed compare segment: {exc}"]
    fails = envelope_failures(interval, segs, depth)
    bounds = [r for r in recs if r["kind"] == "boundary"]
    if len(bounds) != max(len(segs) - 1, 0):
        fails.append(f"{len(bounds)} boundary rows for {len(segs)} segments")
    for b, left, right in zip(bounds, segs, segs[1:]):
        if Fraction(b["sigma"]) != right.lo or (b["left"], b["right"]) != (left.label, right.label):
            fails.append(f"boundary row {b} does not join {left} and {right}")
    baselines = {c.provenance.label: c for c in baseline_curves()}
    by_label = {s.label: s for s in segs}
    for r in recs:
        if r["kind"] in ("segment", "boundary"):
            continue
        if r["kind"] != "baseline-crossover":
            fails.append(f"unknown row kind {r['kind']!r}")
            continue
        seg, base = by_label.get(r["left"]), baselines.get(r["right"])
        if seg is None or base is None:
            fails.append(f"crossover row {r} names an unknown curve")
            continue
        lo, hi = _root_from_text(r["sigma"])
        d_lo = seg.A.eval(lo) - base.A.eval(lo)
        d_hi = seg.A.eval(hi) - base.A.eval(hi)
        if lo == hi and d_lo != 0 or lo != hi and (d_lo * d_hi > 0 or hi - lo > BRACKET_WIDTH):
            fails.append(f"crossover row {r}: {seg.A} and {base.A} do not meet there")
    return fails


def check_plot_svg(text: str, compare_csv: str) -> list[str]:
    """The 'optimized' polyline traces E of the envelope that compare emitted.

    Points are mapped back to (sigma, E) through the plot's own axis lines
    and y-axis label, so the tolerance covers the 0.01 px rounding and the
    4-digit label.  E = A (1 - sigma) is monotone on each segment, so a point
    is on the envelope when it lies between E at the ends of a segment
    containing its sigma.
    """
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        return [f"SVG does not parse: {exc}"]
    ns = "{http://www.w3.org/2000/svg}"
    polylines = root.findall(f"{ns}polyline")
    axes = root.findall(f"{ns}line")[:2]
    labels = [t.text for t in root.findall(f"{ns}text")]
    missing = {"optimized", "ivic-8/3", "ivic-1992"} - set(labels)
    if not polylines or len(axes) < 2 or missing:
        return [f"SVG lacks polylines, axes or legend entries {sorted(missing)}"]
    header, rows = _csv_rows(compare_csv)
    segs = [
        (Fraction(r[3]), Fraction(r[4]), LinFrac.parse(r[7])) for r in rows if r and r[0] == "segment"
    ]
    if not segs:
        return ["no compare segments to check the plot against"]
    x0, x1 = float(axes[0].get("x1")), float(axes[0].get("x2"))
    y0, y1 = float(axes[1].get("y2")), float(axes[1].get("y1"))
    lo, hi, y_max = float(segs[0][0]), float(segs[-1][1]), float(labels[3])
    ranges = []
    for a, b, A in segs:
        ea, eb = float(A.eval(a) * (1 - a)), float(A.eval(b) * (1 - b))
        ranges.append((float(a), float(b), min(ea, eb), max(ea, eb)))
    tol_x, tol_e = 1e-4 * (hi - lo), 1e-3 * y_max
    pts = [tuple(map(float, p.split(","))) for p in polylines[0].get("points").split()]
    for px, py in pts:
        sigma = lo + (px - x0) / (x1 - x0) * (hi - lo)
        e = (y0 - py) / (y0 - y1) * y_max
        if not any(
            a - tol_x <= sigma <= b + tol_x and e_lo - tol_e <= e <= e_hi + tol_e
            for a, b, e_lo, e_hi in ranges
        ):
            return [f"plot point ({px}, {py}) is off the envelope near sigma {sigma:.5f}"]
    if len(pts) < 2:
        return ["optimized polyline has fewer than two points"]
    return []


# ---------------------------------------------------------------------------
# certify: audit_family / pairs --prune
# ---------------------------------------------------------------------------

#: Summary of scripts/audit_family.py --depth 18 on a correct zdx.
AUDIT_DEPTH18 = (4182, 6039, 727)


def check_audit_summary(text: str, depth: int, expected: tuple[int, int, int]) -> list[str]:
    m = _AUDIT_SUMMARY.search(text)
    if not m:
        return [f"no audit summary line in {text[-200:]!r}"]
    got = tuple(int(g) for g in m.groups())
    if got != (depth, *expected):
        return [f"audit summary {got[1:]} at depth {got[0]}, expected {expected} at depth {depth}"]
    return []


def pareto_minimal(pairs) -> list[ExponentPair]:
    """Pairs no other pair dominates, by one sort and a running minimum."""
    kept, best_lam = [], None
    for p in sorted(pairs, key=lambda p: p.key):
        if best_lam is None or p.lam < best_lam:
            kept.append(p)
            best_lam = p.lam
    return kept


def check_pruned_pairs_json(text: str, depth: int) -> list[str]:
    try:
        rows = [(Fraction(r["kappa"]), Fraction(r["lambda"]), r["word"]) for r in json.loads(text)]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"malformed pairs JSON: {exc}"]
    expected = [(p.kappa, p.lam, p.word) for p in pareto_minimal(generate_pairs(depth))]
    fails = []
    if rows != expected:
        got, want = set(rows), set(expected)
        fails.append(
            f"pruned family has {len(rows)} pairs, expected {len(expected)}: "
            f"{len(want - got)} missing, {len(got - want)} extra"
            + ("" if got != want else ", order differs")
        )
    for k, l, w in rows:
        if w is not None and replay_word(w).key != (k, l):
            fails.append(f"word {w!r} does not replay to ({rat_str(k)}, {rat_str(l)})")
            break
    return fails


# ---------------------------------------------------------------------------
# desk: hecke-verify / hm-test / mellin-probe / zeta-probe
# ---------------------------------------------------------------------------

_HECKE_SUMMARY = re.compile(
    r"convolution_failures=0 recursion_failures=0 multiplicativity_failures=0 deligne_ok=True"
)


def check_hecke(out: bytes, err: str, limit: int, digest: str | None = None) -> list[str]:
    header, rows = _csv_rows(out.decode())
    if header != ["n", "tau", "m", "convolution_value"]:
        return [f"hecke header {header!r}"]
    fails = []
    if len(rows) != limit:
        fails.append(f"{len(rows)} rows for limit {limit}")
    try:
        n, tau, m, conv = (list(map(int, col)) for col in zip(*rows))
    except ValueError as exc:
        return fails + [f"non-integer hecke cell: {exc}"]
    if n != list(range(1, len(rows) + 1)):
        fails.append("n column is not 1..limit")
    head = tuple(tau[: len(TAU_HEAD)])
    if head != TAU_HEAD[: len(head)]:
        fails.append(f"tau(1..10) = {head}, expected {TAU_HEAD}")
    for i, (k, v) in enumerate(zip(n, conv)):
        if v != (1 if k == 1 else 0):
            fails.append(f"convolution value {v} at n = {k}")
            break
    for p in (2, 3, 5, 7):
        if p <= len(m) and m[p - 1] != -tau[p - 1]:
            fails.append(f"m({p}) = {m[p - 1]}, expected -tau({p})")
        if p * p <= len(m) and m[p * p - 1] != p ** 11:
            fails.append(f"m({p * p}) = {m[p * p - 1]}, expected {p}^11")
    if not _HECKE_SUMMARY.search(err):
        fails.append(f"hecke summary reports failures: {err.strip()!r}")
    if digest and sha256(out) != digest:
        fails.append("hecke CSV differs from the pinned seed output")
    return fails


def check_hm(out: bytes, err: str, trials: int, seed: int, replay: bool = True) -> list[str]:
    header, rows = _csv_rows(out.decode())
    if header != ["trial", "dim", "r", "lhs", "rhs", "rel_slack"]:
        return [f"hm-test header {header!r}"]
    fails = []
    if len(rows) != trials:
        fails.append(f"{len(rows)} rows for {trials} trials")
    slacks = []
    for i, row in enumerate(rows):
        trial, dim, r = map(int, row[:3])
        lhs, rhs, rel = map(float, row[3:])
        if trial != i or not 1 <= dim <= 64 or not 1 <= r <= 16:
            fails.append(f"row {i}: trial/dim/r = {trial}/{dim}/{r}")
            break
        if abs(rel - (lhs - rhs) / rhs) > 1e-12:
            fails.append(f"row {i}: rel_slack {rel} is not (lhs - rhs)/rhs")
            break
        slacks.append(rel)
    if not slacks:
        return fails + ["no hm-test rows"]
    worst = max(range(len(slacks)), key=slacks.__getitem__)
    if slacks[worst] > HM_TOLERANCE:
        fails.append(f"max_rel_slack {slacks[worst]} > {HM_TOLERANCE} at trial {worst}")
    m = re.search(r"max_rel_slack=(\S+) worst_trial=(\d+)", err)
    if not m or m.group(1) != f"{slacks[worst]:.3e}" or int(m.group(2)) != worst:
        fails.append(f"hm-test summary {err.strip()!r} disagrees with the rows")
    if replay:
        from zdx.probes import hm_inequality_check, hm_random_system

        for i in sorted({0, worst, len(rows) - 1}):
            res = hm_inequality_check(hm_random_system(seed + i))
            if rows[i][3:5] != [f"{res.lhs:.17g}", f"{res.rhs:.17g}"]:
                fails.append(f"trial {i} does not replay from seed {seed + i}")
    return fails


def check_mellin(out: bytes, err: str, digest: str | None = None) -> list[str]:
    header, rows = _csv_rows(out.decode())
    if header != ["x", "value", "target", "abs_error", "imag_residual"] or len(rows) != 3:
        return [f"mellin output has header {header!r} and {len(rows)} rows"]
    fails = []
    for x, value, target, err_abs, imag in rows:
        value, target, err_abs, imag = map(float, (value, target, err_abs, imag))
        if target != math.exp(-float(Fraction(x))):
            fails.append(f"mellin target at x = {x} is not exp(-x)")
        if err_abs != abs(value - target):
            fails.append(f"mellin abs_error at x = {x} is not |value - target|")
        if err_abs > MELLIN_TOLERANCE or imag > 1e-8:
            fails.append(f"mellin error at x = {x}: {err_abs} (imag {imag})")
    if digest and sha256(out) != digest:
        fails.append("mellin CSV differs from the pinned seed output")
    return fails


def check_zeta(out: bytes, digest: str | None = None) -> list[str]:
    header, rows = _csv_rows(out.decode())
    if header != ["t", "abs_zeta", "ratio"] or len(rows) != 101:
        return [f"zeta output has header {header!r} and {len(rows)} rows"]
    fails = []
    for i, (t, z, ratio) in enumerate(rows):
        t, z, ratio = float(t), float(z), float(ratio)
        if t != 1000.0 * i / 100 or not (math.isfinite(z) and z > 0):
            fails.append(f"zeta row {i}: t = {t}, |zeta| = {z}")
            break
        if abs(ratio - z / (1 + t) ** (1 / 14)) > 1e-12 * max(1.0, ratio):
            fails.append(f"zeta row {i}: ratio {ratio} is not |zeta| / (1 + t)^(1/14)")
            break
    if digest and sha256(out) != digest:
        fails.append("zeta CSV differs from the pinned seed output")
    return fails


def check_help(out: bytes) -> list[str]:
    text = out.decode()
    return [] if text.startswith("Usage:") and "optimize" in text else ["--help output lacks usage"]
