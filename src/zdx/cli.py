"""Command-line interface.

Every subcommand is reproducible: exact arithmetic, fixed seeds, stable
ordering, LF line endings.  Exit codes: 0 success, 1 check failure,
2 usage error (including an ``--out`` that cannot be written, checked
before any work, and a stdout that fails to take a write; a reader that
closes stdout early is no error),
3 inadmissible input (``zdx.Inadmissible``: pairs, regions, intervals,
budgets, probe parameters), 4 internal error.  The ``zdx`` group maps
exceptions to codes in one place; subcommands only raise.

Each command imports the library modules it uses when it runs, so a call
loads only what its output needs: ``--help`` loads none of them, only
``hm-test`` and ``zeta-probe`` load numpy, and ``hecke-verify``,
``hm-test``, ``mellin-probe``, ``zeta-probe`` and ``pairs`` do not load
``zdx.exact`` (``rat`` and ``dec_str`` live in the package root).
"""

from __future__ import annotations

import io
import math
import os
import sys
import time
from typing import TYPE_CHECKING

import click

from . import DEFAULT_DEPTH, DEFAULT_LIMIT, Inadmissible, __version__, dec_str

if TYPE_CHECKING:
    from collections.abc import Iterable
    from fractions import Fraction

    from .density import BoundCurve
    from .exact import Interval
    from .pairs import ExponentPair

EXIT_CHECK_FAILURE = 1
EXIT_USAGE = 2
EXIT_INADMISSIBLE = 3
EXIT_INTERNAL = 4


def _fail(code: int, message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _parse_rat(text: str, label: str) -> Fraction:
    from . import rat

    try:
        return rat(text)
    except (ValueError, ZeroDivisionError):
        raise click.UsageError(f"{label} must be a rational like 17/18, got {text!r}")


def _parse_pair(text: str) -> ExponentPair:
    from .pairs import ExponentPair

    parts = text.split(",")
    if len(parts) != 2:
        raise click.UsageError(f"--pair expects 'kappa,lambda', got {text!r}")
    k = _parse_rat(parts[0], "kappa")
    l = _parse_rat(parts[1], "lambda")
    return ExponentPair(k, l, word=None)


def _parse_interval(text: str) -> Interval:
    from .density import validate_interval
    from .exact import Interval

    parts = text.split(",")
    if len(parts) != 2:
        raise click.UsageError(f"--interval expects 'lo,hi', got {text!r}")
    lo = _parse_rat(parts[0], "interval endpoint")
    hi = _parse_rat(parts[1], "interval endpoint")
    if lo > hi:
        raise click.UsageError(f"interval endpoints out of order: {text!r}")
    interval = Interval(lo, hi)
    validate_interval(interval)
    return interval


def _parse_baselines(texts: tuple[str, ...], region: Interval) -> tuple[BoundCurve, ...]:
    from .density import BoundCurve, Provenance
    from .exact import LinFrac

    extra = []
    for text in texts:
        try:
            f = LinFrac.parse(text)
        except (ValueError, ZeroDivisionError):
            raise click.UsageError(
                f"--baseline expects a curve like 4/(8s-5), got {text!r}"
            )
        if f.denominator_at(region.lo) * f.denominator_at(region.hi) <= 0:
            raise Inadmissible(f"--baseline {text!r} has a pole on {region}")
        if f.eval(region.lo) <= 0 or f.eval(region.hi) <= 0:
            raise Inadmissible(f"--baseline {text!r} is not positive on {region}")
        extra.append(BoundCurve(f, region, Provenance(text)))
    return tuple(extra)


def _check_out(ctx: click.Context, param: click.Parameter, out: str) -> str:
    """Reject an unwritable ``--out`` before any work, leaving an existing file as it is."""
    if out != "-":
        existed = os.path.lexists(out)
        try:
            open(out, "a", encoding="utf-8").close()
        except OSError as exc:
            raise click.BadParameter(f"cannot write {out!r}: {exc.strerror or exc}")
        if not existed:
            os.remove(out)
    return out


def _write_out(text: str | Iterable[str], out: str) -> None:
    """Write ``text``, or an iterable of chunks one after another, to ``out``.

    A closed stdout only ends the writing, and another stdout error exits 2;
    either way stdout then goes to the null device, so the last flush is silent.
    """
    chunks = (text,) if isinstance(text, str) else text
    if out == "-":
        for chunk in chunks:
            try:
                click.echo(chunk, nl=False)
            except OSError as exc:
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, sys.stdout.fileno())
                os.close(devnull)
                if isinstance(exc, BrokenPipeError):
                    return
                _fail(EXIT_USAGE, f"cannot write stdout: {exc.strerror or exc}")
        return
    try:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise click.UsageError(f"cannot write --out {out!r}: {exc.strerror or exc}")


def _to_csv(header: list[str], rows: Iterable[Iterable[object]]) -> str:
    import csv  # here, like json below, so that commands which write neither do not load it

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _json_text(obj) -> str:
    import json

    return json.dumps(obj, indent=2) + "\n"


def _root_str(root) -> str:
    from .exact import RootBracket, rat_str

    if isinstance(root, RootBracket):
        return f"[{rat_str(root.lo)}, {rat_str(root.hi)}]"
    return rat_str(root)


def _root_decimal(root) -> str:
    from .exact import RootBracket

    x = root.midpoint() if isinstance(root, RootBracket) else root
    return dec_str(x)


out_option = click.option(
    "--out", default="-", show_default=True, callback=_check_out,
    help="Output file, or - for stdout.",
)


class _Zdx(click.Group):
    """The ``zdx`` group: the one place that turns exceptions into exit codes."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except (click.ClickException, click.exceptions.Exit, click.Abort):
            raise
        except Inadmissible as exc:
            _fail(EXIT_INADMISSIBLE, str(exc))
        except Exception as exc:
            _fail(EXIT_INTERNAL, f"internal error: {type(exc).__name__}: {exc}")


@click.group(cls=_Zdx)
@click.version_option(version=__version__, prog_name="zdx")
def cli() -> None:
    """Exact workbench for exponent-pair zero-density bounds."""


# ---------------------------------------------------------------------------
# pairs
# ---------------------------------------------------------------------------

@cli.command("pairs")
@click.option("--depth", type=click.IntRange(min=0), default=DEFAULT_DEPTH,
              show_default=True, help="Maximum A/B word length.")
@click.option("--prune", is_flag=True, help="No effect: the family is already Pareto-minimal.")
@out_option
def cmd_pairs(depth: int, prune: bool, out: str) -> None:
    """Generate the exponent-pair family as JSON."""
    from .pairs import generate_pairs

    _write_out(generate_pairs(depth).to_json(), out)


# ---------------------------------------------------------------------------
# bound
# ---------------------------------------------------------------------------

@cli.command("bound")
@click.option("--pair", "pair_text", required=True, help="kappa,lambda (exact rationals).")
@click.option("--sigma", "sigma_text", required=True, help="Evaluation point (exact rational).")
@out_option
def cmd_bound(pair_text: str, sigma_text: str, out: str) -> None:
    """One-line report of A(sigma) and E(sigma) for a pair."""
    from .density import exponent_curve, regions_for
    from .exact import rat_str

    pair = _parse_pair(pair_text)
    sigma = _parse_rat(sigma_text, "--sigma")
    regions = regions_for(pair)
    in1 = regions.region1.contains(sigma)
    in2 = regions.region2.contains(sigma)
    if not in1 and not in2:
        raise Inadmissible(
            f"sigma = {rat_str(sigma)} outside the validity regions "
            f"{regions.region1} and {regions.region2} of pair {pair}"
        )
    region = 1 if in1 else 2
    curve = exponent_curve(pair, region)
    a = curve.eval_A(sigma)
    e = curve.eval_E(sigma)
    note = " note=region-boundary" if (in1 and in2) else ""
    line = (
        f"sigma={rat_str(sigma)} region={region} A={rat_str(a)} A_dec={dec_str(a)} "
        f"E={rat_str(e)} E_dec={dec_str(e)}{note}\n"
    )
    _write_out(line, out)


# ---------------------------------------------------------------------------
# optimize
# ---------------------------------------------------------------------------

@cli.command("optimize")
@click.option("--depth", type=click.IntRange(min=0), default=DEFAULT_DEPTH, show_default=True)
@click.option("--interval", "interval_text", default="17/18,1", show_default=True)
@click.option("--resolution", type=click.IntRange(min=1), default=256, show_default=True,
              help="Grid intervals of the CSV table (JSON segments are exact).")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv",
              show_default=True)
@click.option("--include-conjectural", is_flag=True,
              help="Let the conjectural baseline compete as a candidate.")
@out_option
def cmd_optimize(depth: int, interval_text: str, resolution: int, fmt: str,
                 include_conjectural: bool, out: str) -> None:
    """Minimize E(sigma) over a pair family plus baselines."""
    from .density import bound_table_rows, optimize, piecewise_to_json_obj, validate_resolution
    from .pairs import generate_pairs

    interval = _parse_interval(interval_text)
    # in both formats, before the family is generated
    validate_resolution(resolution)
    family = generate_pairs(depth)
    bound = optimize(family, interval, include_conjectural=include_conjectural)
    if fmt == "json":
        _write_out(_json_text(piecewise_to_json_obj(bound)), out)
        return
    rows = bound_table_rows(bound, resolution)
    header = list(rows[0].keys()) if rows else []
    _write_out(_to_csv(header, [list(r.values()) for r in rows]), out)


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

@cli.command("compare")
@click.option("--depth", type=click.IntRange(min=0), default=3, show_default=True)
@click.option("--interval", "interval_text", default="17/18,1", show_default=True)
@click.option("--baseline", "baseline_texts", multiple=True,
              help="Extra baseline A-curve (repeatable), e.g. '4/(8s-5)'.")
@click.option("--format", "fmt", type=click.Choice(["csv", "json", "text"]),
              default="text", show_default=True)
@out_option
def cmd_compare(depth: int, interval_text: str, baseline_texts: tuple[str, ...], fmt: str,
                out: str) -> None:
    """Optimized bound vs baselines: segments and exact crossovers."""
    from .density import baseline_crossovers, baseline_curves, optimize
    from .exact import rat_str
    from .pairs import generate_pairs

    interval = _parse_interval(interval_text)
    family = generate_pairs(depth)
    bound = optimize(family, interval)
    comparisons = baseline_curves() + _parse_baselines(baseline_texts, interval)

    rows: list[dict[str, str]] = []
    for seg in bound.segments:
        rows.append({
            "kind": "segment",
            "sigma": "",
            "sigma_decimal": "",
            "lo": rat_str(seg.region.lo),
            "hi": rat_str(seg.region.hi),
            "left": "",
            "right": seg.curve.provenance.label,
            "curve": str(seg.curve.A),
        })
    for prev, cur in zip(bound.segments, bound.segments[1:]):
        x = cur.region.lo
        rows.append({
            "kind": "boundary",
            "sigma": rat_str(x),
            "sigma_decimal": dec_str(x),
            "lo": "", "hi": "",
            "left": prev.curve.provenance.label,
            "right": cur.curve.provenance.label,
            "curve": "",
        })
    for seg, base, root in baseline_crossovers(bound, comparisons):
        rows.append({
            "kind": "baseline-crossover",
            "sigma": _root_str(root),
            "sigma_decimal": _root_decimal(root),
            "lo": "", "hi": "",
            "left": seg.curve.provenance.label,
            "right": base.provenance.label,
            "curve": "",
        })

    if fmt == "json":
        _write_out(_json_text(rows), out)
    elif fmt == "csv":
        header = ["kind", "sigma", "sigma_decimal", "lo", "hi", "left", "right", "curve"]
        _write_out(_to_csv(header, [[r[h] for h in header] for r in rows]), out)
    else:
        lines = []
        for r in rows:
            if r["kind"] == "segment":
                lines.append(f"segment [{r['lo']}, {r['hi']}]  {r['right']}  A = {r['curve']}")
            elif r["kind"] == "boundary":
                lines.append(f"boundary at sigma = {r['sigma']}  ({r['left']} -> {r['right']})")
            else:
                lines.append(
                    f"crossover at sigma = {r['sigma']}  ({r['left']} meets {r['right']})"
                )
        _write_out("\n".join(lines) + "\n", out)


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------

def _audit_report_obj(report) -> dict:
    from .exact import rat_str

    pair, terms = report.regions.pair, []
    for t in report.terms:
        terms.append({
            "label": t.label,
            "numerator": str(t.num),
            "relation": "achieves-E" if t.achieves else "below-E",
            "certificate": t.diff_cert.kind,
            "equality_points": [
                _root_str(r) for r in t.diff_cert.roots
            ],
        })
    return {
        "pair": {"kappa": rat_str(pair.kappa), "lambda": rat_str(pair.lam)},
        "region_index": report.region_index,
        "region": {"lo": rat_str(report.region.lo), "hi": rat_str(report.region.hi)},
        "y_exponent": str(report.y),
        "t0_exponent_in_N": str(report.t0_exponent),
        "shared_denominator": str(report.denominator),
        "terms": terms,
        "passed": report.passed,
    }


@cli.command("audit")
@click.option("--pair", "pair_text", required=True, help="kappa,lambda (exact rationals).")
@click.option("--region", "region_text", type=click.Choice(["1", "2", "both"]),
              default="both", show_default=True)
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text",
              show_default=True)
@out_option
def cmd_audit(pair_text: str, region_text: str, fmt: str, out: str) -> None:
    """Certify the exponent balance of both branches for one pair."""
    from .density import EmptyRegion, audit_balance, continuity_check, regions_for
    from .exact import rat_str

    spec = regions_for(_parse_pair(pair_text))
    regions = (1, 2) if region_text == "both" else (int(region_text),)
    reports = []
    for region in regions:
        try:
            report = audit_balance(spec, region)
        except EmptyRegion as exc:
            if len(regions) == 1:
                raise  # an audit that certifies nothing is inadmissible
            # at most one region of a pair with kappa < 1/3 is empty
            click.echo(f"region {region}: skipped ({exc})", err=True)
            continue
        if not report.passed:
            v = report.violation
            _fail(
                EXIT_CHECK_FAILURE,
                f"balance violation in region {region}: term {v.term} "
                f"at sigma = {rat_str(v.witness)}",
            )
        reports.append(report)
    if len(regions) == 2:
        cont = continuity_check(spec)
        if cont.status == "mismatch":
            _fail(
                EXIT_CHECK_FAILURE,
                f"continuity mismatch at sigma = {rat_str(cont.sigma_star)}: {cont.note}",
            )
    if fmt == "json":
        _write_out(_json_text([_audit_report_obj(r) for r in reports]), out)
        return
    lines = []
    for r in reports:
        lines.append(
            f"pair {rat_str(spec.pair.kappa)},{rat_str(spec.pair.lam)} region {r.region_index} "
            f"{r.region}: {'PASS' if r.passed else 'FAIL'}"
        )
        lines.append(f"  Y = T^y with y = {r.y}; T0 exponent in N = {r.t0_exponent}")
        for t in r.terms:
            status = "= E identically" if t.achieves else "<= E"
            pts = ", ".join(_root_str(x) for x in t.diff_cert.roots)
            tight = f" (tight at {pts})" if pts and not t.achieves else ""
            lines.append(f"  {t.label}: ({t.num}) / ({r.denominator}) {status}{tight}")
    _write_out("\n".join(lines) + "\n", out)


@cli.command("audit-family")
@click.option("--depth", type=click.IntRange(min=0), default=DEFAULT_DEPTH,
              show_default=True, help="Maximum A/B word length.")
@click.option("--verbose", is_flag=True, help="One status line per audited pair.")
def cmd_audit_family(depth: int, verbose: bool) -> None:
    """Audit a pair family: balance and continuity.

    Every pair with 0 < kappa < 1/3 is audited; exits 1 if any check fails.
    """
    from .density import audit_family
    from .pairs import generate_pairs

    family = generate_pairs(depth)
    start = time.perf_counter()
    result = audit_family(family, verbose=verbose)
    elapsed = time.perf_counter() - start
    summary = (
        f"depth {depth}: {len(family)} pairs, {result.audited} region audits passed, "
        f"{result.skipped} pairs outside (0, 1/3), {elapsed:.2f}s"
    )
    _write_out("\n".join([*result.lines, summary, ""]), "-")
    if result.failed:
        sys.exit(EXIT_CHECK_FAILURE)


# ---------------------------------------------------------------------------
# hecke-verify
# ---------------------------------------------------------------------------

@cli.command("hecke-verify")
@click.option("--limit", type=click.IntRange(min=1), default=DEFAULT_LIMIT, show_default=True)
@out_option
def cmd_hecke(limit: int, out: str) -> None:
    """Tau table checks; CSV of n, tau, m, convolution value."""
    from .hecke import verify_table

    rep = verify_table(limit)
    _write_out(rep.csv_chunks(), out)
    click.echo(
        f"limit={limit} convolution_failures={len(rep.convolution_failures)} "
        f"recursion_failures={len(rep.recursion_failures)} "
        f"multiplicativity_failures={len(rep.multiplicativity_failures)} "
        f"deligne_ok={rep.deligne.ok} deligne_max_ratio={rep.deligne.max_ratio_decimal}",
        err=True,
    )
    if not rep.ok:
        sys.exit(EXIT_CHECK_FAILURE)


# ---------------------------------------------------------------------------
# hm-test
# ---------------------------------------------------------------------------

@cli.command("hm-test")
@click.option("--seed", type=click.IntRange(min=0), default=1, show_default=True)
@click.option("--trials", type=click.IntRange(min=1), default=10_000, show_default=True)
@click.option("--dim", type=click.IntRange(min=1), default=64, show_default=True,
              help="Cap on the vector dimension.")
@click.option("--r", "r_cap", type=click.IntRange(min=1), default=16, show_default=True,
              help="Cap on the number of test vectors.")
@out_option
def cmd_hm(seed: int, trials: int, dim: int, r_cap: int, out: str) -> None:
    """Random-system harness for the bilinear large-values inequality."""
    from .probes import hm_random_trials

    rep = hm_random_trials(trials, seed, dim, r_cap)
    lines = [f"{i},{d},{r},{lhs:.17g},{rhs:.17g},{rel:.17g}\n"
             for i, (d, r, lhs, rhs, rel) in enumerate(rep.rows)]
    _write_out("trial,dim,r,lhs,rhs,rel_slack\n" + "".join(lines), out)
    click.echo(
        f"trials={trials} seed={seed} max_rel_slack={rep.max_rel_slack:.3e} "
        f"worst_trial={rep.worst_trial}",
        err=True,
    )
    if not rep.ok:
        sys.exit(EXIT_CHECK_FAILURE)


# ---------------------------------------------------------------------------
# mellin-probe
# ---------------------------------------------------------------------------

def _worst(values: list[float]) -> float:
    """The largest value, or NaN if any is NaN (``max`` may drop a NaN)."""
    return math.nan if any(map(math.isnan, values)) else max(values)


@cli.command("mellin-probe")
@click.option("--x", "x_texts", multiple=True, default=("1/2", "1", "2"),
              show_default=True, help="Positive evaluation point (repeatable).")
@click.option("--line", type=float, default=2.0, show_default=True)
@click.option("--halfwidth", type=float, default=40.0, show_default=True)
@click.option("--steps", type=click.IntRange(min=1), default=4000, show_default=True)
@out_option
def cmd_mellin(x_texts: tuple[str, ...], line: float, halfwidth: float, steps: int,
               out: str) -> None:
    """Gamma-kernel quadrature recovery of exp(-x)."""
    from .probes import mellin_probe

    results = []
    for text in x_texts:
        try:
            exact_x = _parse_rat(text, "--x")
            if exact_x <= 0:
                raise click.UsageError(f"--x must be positive, got {text!r}")
            x = float(exact_x)
            if x == 0.0:
                raise Inadmissible(f"x = {text} underflows the floating-point range")
            results.append(mellin_probe(x, line=line, halfwidth=halfwidth, steps=steps))
        except OverflowError:
            raise Inadmissible(f"the probe at x = {text} overflows the floating-point range")
    rows = (
        [text, f"{r.value:.17g}", f"{r.target:.17g}", f"{r.abs_error:.17g}",
         f"{r.imag_residual:.17g}"]
        for text, r in zip(x_texts, results)
    )
    _write_out(
        _to_csv(["x", "value", "target", "abs_error", "imag_residual"], rows), out
    )
    errors = [r.abs_error for r in results]
    imags = [r.imag_residual for r in results]
    click.echo(f"max_abs_error={_worst(errors):.3e} max_imag_residual={_worst(imags):.3e}",
               err=True)
    if not all(r.ok for r in results):
        sys.exit(EXIT_CHECK_FAILURE)


# ---------------------------------------------------------------------------
# zeta-probe
# ---------------------------------------------------------------------------

@cli.command("zeta-probe")
@click.option("--pair", "pair_text", default="1/14,11/14", show_default=True,
              help="Pair fixing sigma0 = lambda - kappa and the ratio exponent kappa.")
@click.option("--t-max", type=float, default=1000.0, show_default=True)
@click.option("--samples", type=click.IntRange(min=1), default=101, show_default=True)
@out_option
def cmd_zeta(pair_text: str, t_max: float, samples: int, out: str) -> None:
    """Growth scan of zeta on the line sigma0 = lambda - kappa (report only)."""
    from .probes import zeta_growth_scan

    pair = _parse_pair(pair_text)
    rows = zeta_growth_scan(float(pair.lam - pair.kappa), t_max, samples, float(pair.kappa))
    out_rows = [[f"{t:.17g}", f"{z:.17g}", f"{ratio:.17g}"] for t, z, ratio in rows]
    _write_out(_to_csv(["t", "abs_zeta", "ratio"], out_rows), out)


# ---------------------------------------------------------------------------
# plot
# ---------------------------------------------------------------------------

@cli.command("plot")
@click.option("--depth", type=click.IntRange(min=0), default=3, show_default=True)
@click.option("--interval", "interval_text", default="17/18,1", show_default=True)
@out_option
def cmd_plot(depth: int, interval_text: str, out: str) -> None:
    """SVG of the optimized E(sigma) against the baselines."""
    from .density import baseline_curves, optimize
    from .pairs import generate_pairs
    from .svg import render_curves_svg

    interval = _parse_interval(interval_text)
    family = generate_pairs(depth)
    bound = optimize(family, interval)
    _write_out(render_curves_svg(bound, baseline_curves(), interval), out)


def main() -> None:
    cli(prog_name="zdx")


if __name__ == "__main__":
    main()
