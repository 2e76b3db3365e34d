"""Self-contained SVG rendering of exponent curves (no external renderer).

Curves are sampled on a fixed rational grid and emitted as polylines with
deterministic coordinate formatting; axis ticks carry the exact rational
endpoints of the plotted interval.  Each grid point's E is computed
exactly and rounded once: one integer true division, equal to
``float(curve.eval_E(sigma))``.
"""

from __future__ import annotations

from .density import BoundCurve, PiecewiseBound
from .exact import LinFrac, rat_str

__all__ = ["render_curves_svg", "PLOT_SAMPLES"]

PLOT_SAMPLES = 512

_WIDTH, _HEIGHT = 800, 500
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 20, 20, 50
_PALETTE = ("#1f6fb2", "#c23b22", "#2e7d32", "#7b1fa2", "#e69500", "#455a64")


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _point(A: LinFrac, x: int, w: int) -> tuple[float, float]:
    """(sigma, E) as floats for sigma = x / w and E = A(sigma)(1 - sigma),
    each rounded once.

    E = (a x + b w)(w - x) / ((c x + d w) w), and the true division of two
    ints is correctly rounded, reduced or not, so the pair equals
    ``(float(sigma), float(E))``.
    """
    return x / w, (A.a * x + A.b * w) * (w - x) / ((A.c * x + A.d * w) * w)


def _sample_envelope(bound: PiecewiseBound, xs: range, w: int) -> list[tuple[float, float]]:
    return [_point(seg.curve.A, x, w) for x, seg in bound.segments_along(xs, w)]


def _sample_curve(curve: BoundCurve, xs: range, w: int) -> list[tuple[float, float]]:
    """The points of the grid in the curve's region, held or not decided on integers."""
    lo, hi = curve.region.span(w)
    return [_point(curve.A, x, w) for x in xs if lo <= x <= hi]


def render_curves_svg(bound: PiecewiseBound, baselines: tuple[BoundCurve, ...]) -> str:
    """E(sigma) of the optimized bound plus baselines as a standalone SVG,
    sampled at ``PLOT_SAMPLES`` points of the bound's interval."""
    interval = bound.interval
    xs, w = interval.integer_grid(PLOT_SAMPLES - 1)
    series: list[tuple[str, bool, list[tuple[float, float]]]] = []
    series.append(("optimized", False, _sample_envelope(bound, xs, w)))
    for base in baselines:
        prov = base.provenance
        series.append((prov.label, prov.conjectural, _sample_curve(base, xs, w)))
    series = [(label, dashed, pts) for label, dashed, pts in series if pts]

    y_max = max((y for _, _, pts in series for _, y in pts), default=1.0) or 1.0
    x_lo, x_hi = float(interval.lo), float(interval.hi)
    x_span = (x_hi - x_lo) or 1.0

    def px(x: float) -> float:
        return _MARGIN_L + (x - x_lo) / x_span * (_WIDTH - _MARGIN_L - _MARGIN_R)

    def py(y: float) -> float:
        return _HEIGHT - _MARGIN_B - y / y_max * (_HEIGHT - _MARGIN_T - _MARGIN_B)

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        # axes
        f'<line x1="{_MARGIN_L}" y1="{_HEIGHT - _MARGIN_B}" x2="{_WIDTH - _MARGIN_R}" '
        f'y2="{_HEIGHT - _MARGIN_B}" stroke="black" stroke-width="1"/>',
        f'<line x1="{_MARGIN_L}" y1="{_MARGIN_T}" x2="{_MARGIN_L}" '
        f'y2="{_HEIGHT - _MARGIN_B}" stroke="black" stroke-width="1"/>',
        # exact endpoint ticks
        f'<text x="{_MARGIN_L}" y="{_HEIGHT - _MARGIN_B + 20}" font-size="13" '
        f'text-anchor="middle">{rat_str(interval.lo)}</text>',
        f'<text x="{_WIDTH - _MARGIN_R}" y="{_HEIGHT - _MARGIN_B + 20}" font-size="13" '
        f'text-anchor="middle">{rat_str(interval.hi)}</text>',
        f'<text x="{_MARGIN_L - 8}" y="{_HEIGHT - _MARGIN_B + 4}" font-size="13" '
        f'text-anchor="end">0</text>',
        f'<text x="{_MARGIN_L - 8}" y="{_MARGIN_T + 4}" font-size="13" '
        f'text-anchor="end">{y_max:.4f}</text>',
        f'<text x="{(_WIDTH + _MARGIN_L - _MARGIN_R) // 2}" y="{_HEIGHT - 12}" '
        f'font-size="14" text-anchor="middle">sigma</text>',
        f'<text x="16" y="{_MARGIN_T + 10}" font-size="14">E(sigma)</text>',
    ]
    for idx, (label, dashed, pts) in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        coords = " ".join(f"{_fmt(px(x))},{_fmt(py(y))}" for x, y in pts)
        dash = ' stroke-dasharray="6,4"' if dashed else ""
        lines.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5"{dash} '
            f'points="{coords}"/>'
        )
        ly = _MARGIN_T + 16 + 18 * idx
        lines.append(
            f'<line x1="{_WIDTH - 190}" y1="{ly - 4}" x2="{_WIDTH - 160}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="1.5"{dash}/>'
        )
        lines.append(
            f'<text x="{_WIDTH - 152}" y="{ly}" font-size="12">{label}</text>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
