"""Zero-density exponent curves driven by exponent pairs.

For an admissible pair (kappa, lambda) the density exponent A(sigma) has
two linear-fractional branches on two adjoining sigma-regions; the full
exponent of T is E(sigma) = A(sigma) * (1 - sigma).  This module builds
the regions and branches exactly, audits the parameter balance behind
them (choice of the smoothing length Y = T^y(sigma) and the block length
T0), compares against hard-coded baselines, and minimizes E over a family
of pairs into an exact piecewise bound.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction

from .exact import (
    Interval,
    LinFrac,
    Quadratic,
    Root,
    RootBracket,
    SignCertificate,
    dec_str,
    quadratic_roots_in_interval,
    quadratic_sign_on_interval,
    rat_str,
)
from .pairs import ExponentPair, PairFamily

__all__ = [
    "InadmissiblePair",
    "EmptyRegion",
    "BalanceViolation",
    "KAPPA_LIMIT",
    "RegionSpec",
    "Provenance",
    "BoundCurve",
    "ContinuityReport",
    "TermCertificate",
    "AuditReport",
    "Crossover",
    "Segment",
    "PiecewiseBound",
    "regions_for",
    "exponent_curve",
    "continuity_check",
    "audit_balance",
    "baseline_curves",
    "crossover",
    "validate_interval",
    "optimize",
    "candidate_curves",
    "provenance_fields",
    "bound_table_rows",
    "piecewise_to_json_obj",
]

#: The two-branch construction needs kappa strictly below 1/3.
KAPPA_LIMIT = Fraction(1, 3)

_HALF = Fraction(1, 2)
_ONE = Fraction(1)


class InadmissiblePair(ValueError):
    """Pair outside the parameter range the construction supports."""


class EmptyRegion(ValueError):
    """Requested a curve or audit on an empty validity region."""


class BalanceViolation(Exception):
    """A balanced term exceeds the claimed exponent somewhere."""

    def __init__(self, term: str, witness: Fraction, message: str = ""):
        self.term = term
        self.witness = witness
        super().__init__(
            message or f"term {term} exceeds the exponent at sigma = {rat_str(witness)}"
        )


# ---------------------------------------------------------------------------
# Regions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegionSpec:
    """Validity regions of the two A(sigma) branches for one pair.

    region1 = [max(sigma_star, 1/2), 1]   (empty iff lambda + 2*kappa > 1)
    region2 = [left2, sigma_star]          (empty iff kappa + 1 > 4*lambda)

    where sigma_star = (1 + lambda - 4 kappa) / (2 - 6 kappa) and
    left2 = (1 + lambda + kappa) / (2 (1 + kappa)).  Empty regions are
    explicit ``Interval.empty()`` values, never dropped.
    """

    pair: ExponentPair
    sigma_star: Fraction
    left2: Fraction
    region1: Interval
    region2: Interval

    def region(self, index: int) -> Interval:
        if index == 1:
            return self.region1
        if index == 2:
            return self.region2
        raise ValueError(f"region index must be 1 or 2, got {index!r}")


def _require_admissible(pair: ExponentPair) -> None:
    if pair.kappa >= KAPPA_LIMIT:
        raise InadmissiblePair(
            f"pair {pair} has kappa >= 1/3; the region construction needs kappa < 1/3"
        )


def regions_for(pair: ExponentPair) -> RegionSpec:
    """Exact region endpoints for a pair; kappa >= 1/3 is rejected."""
    _require_admissible(pair)
    k, l = pair.kappa, pair.lam
    sigma_star = (1 + l - 4 * k) / (2 - 6 * k)
    left2 = (1 + l + k) / (2 * (1 + k))
    lo1 = max(sigma_star, _HALF)
    region1 = Interval(lo1, _ONE) if lo1 <= _ONE else Interval.empty()
    region2 = Interval(left2, sigma_star) if left2 <= sigma_star else Interval.empty()
    return RegionSpec(pair, sigma_star, left2, region1, region2)


# ---------------------------------------------------------------------------
# Bound curves
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Provenance:
    """Which candidate a curve came from."""

    label: str
    pair: ExponentPair | None = None
    region: int | None = None
    baseline: bool = False
    conjectural: bool = False


@dataclass(frozen=True)
class BoundCurve:
    """One branch of a density bound: A(sigma) and E(sigma) = A(sigma)(1-sigma).

    E is carried redundantly as a ratio of polynomials of degree <= 2 so
    that sign questions about it reduce to quadratic certificates.
    """

    A: LinFrac
    e_num: Quadratic
    e_den: Quadratic
    region: Interval
    provenance: Provenance

    @classmethod
    def from_A(cls, A: LinFrac, region: Interval, provenance: Provenance) -> "BoundCurve":
        e_num = Quadratic.from_linear_product(A.a, A.b, -1, 1)  # (a s + b)(1 - s)
        e_den = Quadratic.linear(A.c, A.d)
        return cls(A, e_num, e_den, region, provenance)

    def eval_A(self, sigma: Fraction) -> Fraction:
        return self.A.eval(sigma)

    def eval_E(self, sigma: Fraction) -> Fraction:
        return self.A.eval(sigma) * (1 - Fraction(sigma))

    def __str__(self) -> str:
        return f"{self.provenance.label}: A = {self.A} on {self.region}"


def exponent_curve(pair: ExponentPair, region: int) -> BoundCurve:
    """The A(sigma) branch of a pair on region 1 or 2.

    Region 1: A = 4/(4 sigma - 1).
    Region 2: A = 4 kappa / ((2-2 kappa) sigma + (3 kappa - lambda - 1)),
    the coefficient normalization that makes A * (1 - sigma) the exponent
    of T on both branches.
    """
    regions = regions_for(pair)
    reg = regions.region(region)
    if reg.is_empty:
        raise EmptyRegion(f"region {region} of pair {pair} is empty")
    k, l = pair.kappa, pair.lam
    if region == 1:
        A = LinFrac(0, 4, 4, -1)
    else:
        if k == 0:
            raise InadmissiblePair(
                f"pair {pair}: the region-2 branch degenerates for kappa = 0"
            )
        A = LinFrac.of(0, 4 * k, 2 - 2 * k, 3 * k - l - 1)
    label = f"pair {rat_str(k)},{rat_str(l)} region {region}"
    return BoundCurve.from_A(A, reg, Provenance(label, pair, region))


@dataclass(frozen=True)
class ContinuityReport:
    """Do the two branches agree at the shared endpoint sigma_star?"""

    status: str  # "ok" | "skipped" | "mismatch"
    sigma_star: Fraction | None = None
    shared_value: Fraction | None = None
    note: str = ""

    def __bool__(self) -> bool:
        return self.status == "ok"


def continuity_check(pair: ExponentPair) -> ContinuityReport:
    """Verify both branches take the same value at sigma_star, exactly.

    The shared value in closed form is 4(2-6k)/(2+4l-10k).  Pairs whose
    region-2 branch is degenerate (kappa = 0) or whose regions do not both
    exist are reported as skipped with an explicit note.
    """
    regions = regions_for(pair)
    if regions.region1.is_empty:
        return ContinuityReport("skipped", note="region 1 empty: EmptyRegion")
    if regions.region2.is_empty:
        return ContinuityReport("skipped", note="region 2 empty: EmptyRegion")
    if pair.kappa == 0:
        return ContinuityReport(
            "skipped", note="region-2 branch degenerate for kappa = 0"
        )
    k, l = pair.kappa, pair.lam
    a1 = exponent_curve(pair, 1).eval_A(regions.sigma_star)
    a2 = exponent_curve(pair, 2).eval_A(regions.sigma_star)
    closed_form = 4 * (2 - 6 * k) / (2 + 4 * l - 10 * k)
    if a1 == a2 == closed_form:
        return ContinuityReport("ok", regions.sigma_star, a1)
    return ContinuityReport(
        "mismatch",
        regions.sigma_star,
        note=f"branches disagree: {rat_str(a1)} vs {rat_str(a2)}",
    )


# ---------------------------------------------------------------------------
# Balance audit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TermCertificate:
    """Exact comparison of one balanced term against E on the region."""

    label: str
    num: Quadratic  # term exponent numerator over the shared denominator
    diff_cert: SignCertificate  # sign of (term - E) numerator
    achieves: bool  # term == E identically on the region

    @property
    def ok(self) -> bool:
        return self.diff_cert.is_nonpos


@dataclass(frozen=True)
class AuditReport:
    """Outcome of auditing max(e1, e2, e3) = E on one region.

    e1: dyadic main term              (2 - 2 sigma) y
    e2: block-subdivision term        1 + y (1 - sigma - t0_exponent/2)
    e3: sixth-moment term             2 + (3 - 6 sigma) y

    with Y = T^{y(sigma)}, N of size Y, and T0 = N^{t0_exponent}; all
    exponents share the positive linear denominator of y on the region.
    """

    pair: ExponentPair
    region_index: int
    region: Interval
    y: LinFrac
    t0_exponent: LinFrac
    denominator: Quadratic
    e_num: Quadratic
    terms: tuple[TermCertificate, ...]

    @property
    def passed(self) -> bool:
        return all(t.ok for t in self.terms) and any(t.achieves for t in self.terms)

    def term_value(self, label: str, sigma: Fraction) -> Fraction:
        for t in self.terms:
            if t.label == label:
                return t.num.eval(sigma) / self.denominator.eval(sigma)
        raise KeyError(label)

    def exponent_value(self, sigma: Fraction) -> Fraction:
        return self.e_num.eval(sigma) / self.denominator.eval(sigma)


_TERM_LABELS = ("class1_main", "class1_subdivision", "class2_moment")


def _positive_witness(num: Quadratic, region: Interval, cert: SignCertificate) -> Fraction:
    """A rational sigma in the region where the numerator is positive."""
    candidates = [region.lo, region.hi]
    if num.c2 != 0:
        v = -num.c1 / (2 * num.c2)
        if region.contains(v):
            candidates.append(v)
    for r in cert.roots:
        for edge in ((r.lo, r.hi) if isinstance(r, RootBracket) else (r,)):
            for eps in (region.width / 1000, Fraction(0)):
                for x in (edge - eps, edge + eps):
                    if region.contains(x):
                        candidates.append(x)
    for x in candidates:
        if num.eval(x) > 0:
            return x
    raise AssertionError("positive witness requested for a nonpositive quadratic")


def audit_balance(pair: ExponentPair, region: int) -> AuditReport:
    """Certify that the three balanced term exponents stay below E.

    Region 1 uses y = 2/(4 sigma - 1); region 2 uses
    y = 2 kappa / ((2-2 kappa) sigma + (3 kappa - lambda - 1)).  With N of
    size Y the three exponents and E share that single linear denominator
    (positive on the region, asserted), so each comparison is an exact
    linear sign certificate.  Raises BalanceViolation with a witness sigma
    if any term pokes above E.
    """
    regions = regions_for(pair)
    reg = regions.region(region)
    if reg.is_empty:
        raise EmptyRegion(f"region {region} of pair {pair} is empty")
    k, l = pair.kappa, pair.lam
    if k == 0:
        raise InadmissiblePair(
            f"pair {pair}: the block length T0 = N^((2s-1-(l-k))/k) is undefined for kappa = 0"
        )
    if region == 1:
        y = LinFrac(0, 2, 4, -1)
    else:
        y = LinFrac.of(0, 2 * k, 2 - 2 * k, 3 * k - l - 1)
    n_y = Fraction(y.b)
    den = Quadratic.linear(y.c, y.d)
    assert den.eval(reg.lo) > 0 and den.eval(reg.hi) > 0, "y denominator must be positive"

    t0_exponent = LinFrac.of(2, -(1 + l - k), 0, k)

    # Term exponents as numerators over the shared denominator `den`:
    #   e1 = (2 - 2s) y
    e1_num = Quadratic.linear(-2 * n_y, 2 * n_y)
    #   e2 = 1 + y (1 - s - (2s - (1 + l - k)) / (2k))
    lin_a = -1 - 1 / k
    lin_b = 1 + (1 + l - k) / (2 * k)
    e2_num = den + Quadratic.linear(n_y * lin_a, n_y * lin_b)
    #   e3 = 2 + (3 - 6s) y
    e3_num = den.scale(2) + Quadratic.linear(-6 * n_y, 3 * n_y)
    #   E = A (1 - s) = 2 y (1 - s)
    e_num = Quadratic.linear(-2 * n_y, 2 * n_y)

    terms = []
    for label, num in zip(_TERM_LABELS, (e1_num, e2_num, e3_num)):
        diff = num - e_num
        cert = quadratic_sign_on_interval(diff, reg)
        terms.append(TermCertificate(label, num, cert, achieves=diff.is_zero))
    report = AuditReport(pair, region, reg, y, t0_exponent, den, e_num, tuple(terms))
    for t in report.terms:
        if not t.ok:
            witness = _positive_witness(t.num - e_num, reg, t.diff_cert)
            raise BalanceViolation(t.label, witness)
    return report


# ---------------------------------------------------------------------------
# Baselines
# ---------------------------------------------------------------------------

def baseline_curves() -> tuple[BoundCurve, ...]:
    """The named reference bounds.

    ivic-8/3:             A = 8/3 on [1/2, 1]
    ivic-1992:            A = 4/(8 sigma - 5) on [11/12, 1]
    density-hypothesis:   A = 2 on [1/2, 1]  (conjectural, flagged)
    """
    return (
        BoundCurve.from_A(
            LinFrac.constant(Fraction(8, 3)),
            Interval(_HALF, _ONE),
            Provenance("ivic-8/3", baseline=True),
        ),
        BoundCurve.from_A(
            LinFrac(0, 4, 8, -5),
            Interval(Fraction(11, 12), _ONE),
            Provenance("ivic-1992", baseline=True),
        ),
        BoundCurve.from_A(
            LinFrac.constant(2),
            Interval(_HALF, _ONE),
            Provenance("density-hypothesis", baseline=True, conjectural=True),
        ),
    )


# ---------------------------------------------------------------------------
# Crossovers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Crossover:
    """Where two A-curves agree inside the overlap of their regions."""

    kind: str  # "identical" | "none" | "points"
    points: tuple[Root, ...] = ()


def crossover(f: BoundCurve, g: BoundCurve) -> Crossover:
    """Solve A_f = A_g exactly on the overlap of the two regions.

    Identical curves are reported as such (no isolated crossing); poles of
    either curve are excluded from the root set.
    """
    overlap = f.region.intersect(g.region)
    if overlap.is_empty:
        raise ValueError("crossover requires overlapping regions")
    if f.A == g.A:
        return Crossover("identical")
    q = Quadratic.from_linear_product(f.A.a, f.A.b, g.A.c, g.A.d) - Quadratic.from_linear_product(
        g.A.a, g.A.b, f.A.c, f.A.d
    )
    if q.is_zero:
        return Crossover("identical")
    roots = quadratic_roots_in_interval(q, overlap)
    points = []
    for r in roots:
        probe = r.midpoint() if isinstance(r, RootBracket) else r
        if f.A.denominator_at(probe) == 0 or g.A.denominator_at(probe) == 0:
            continue
        points.append(r)
    if not points:
        return Crossover("none")
    return Crossover("points", tuple(points))


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Segment:
    region: Interval
    curve: BoundCurve


@dataclass(frozen=True)
class PiecewiseBound:
    """Ordered segments tiling the optimization interval.

    Adjacent segments share an endpoint; at a shared endpoint the bound
    takes the segment with the smaller E there (the left one on a tie), so
    ``eval_E`` is the pointwise minimum even where the bound jumps.
    """

    interval: Interval
    segments: tuple[Segment, ...]

    def __len__(self) -> int:
        return len(self.segments)

    def __iter__(self):
        return iter(self.segments)

    def segment_at(self, sigma: Fraction) -> Segment:
        hits = [seg for seg in self.segments if seg.region.contains(sigma)]
        if not hits:
            raise KeyError(f"sigma = {rat_str(sigma)} outside the optimized interval")
        return min(hits, key=lambda seg: seg.curve.eval_E(sigma))

    def eval_A(self, sigma: Fraction) -> Fraction:
        return self.segment_at(sigma).curve.eval_A(sigma)

    def eval_E(self, sigma: Fraction) -> Fraction:
        return self.segment_at(sigma).curve.eval_E(sigma)


def validate_interval(interval: Interval) -> None:
    """Raise ValueError unless the interval lies within [1/2, 1]."""
    if not interval.is_empty and not (_HALF <= interval.lo and interval.hi <= _ONE):
        raise ValueError(f"interval {interval} does not lie within [1/2, 1]")


def candidate_curves(
    family: PairFamily,
    include_conjectural: bool = False,
) -> tuple[BoundCurve, ...]:
    """All curves the optimizer may pick from, in a fixed deterministic order.

    Pairs come first (sorted by (kappa, lambda), region 1 then 2); pairs
    with kappa >= 1/3 are skipped, as is the degenerate kappa = 0 region-2
    branch.  Baselines follow; conjectural ones only on request.
    """
    curves: list[BoundCurve] = []
    for pair in sorted(family, key=lambda p: p.key):
        if pair.kappa >= KAPPA_LIMIT:
            continue
        for region in (1, 2):
            try:
                curves.append(exponent_curve(pair, region))
            except (EmptyRegion, InadmissiblePair):
                continue
    for base in baseline_curves():
        if base.provenance.conjectural and not include_conjectural:
            continue
        curves.append(base)
    return tuple(curves)


def _reciprocal_line(curve: BoundCurve) -> tuple[Fraction, Fraction]:
    """Slope and intercept of g = 1/A for A = b/(c s + d) positive on its region."""
    A, region = curve.A, curve.region
    if A.a != 0 or A.b <= 0 or min(A.denominator_at(region.lo), A.denominator_at(region.hi)) <= 0:
        raise ValueError(
            f"optimize needs A = b/(cs+d) with b > 0 and cs+d > 0 on the region, got {curve}"
        )
    return Fraction(A.c, A.b), Fraction(A.d, A.b)


def optimize(
    family: PairFamily,
    interval: Interval,
    resolution: int | None = None,
    *,
    include_conjectural: bool = False,
) -> PiecewiseBound:
    """Minimize E(sigma) over all candidate curves on a sigma-interval, exactly.

    Every candidate is A = b/(c s + d) with b > 0 and c s + d > 0 on its
    region (ValueError otherwise), so g = 1/A is affine and, for
    sigma < 1, a smaller E = A (1 - sigma) is a larger g.  A left-to-right
    sweep from x = interval.lo picks the candidate whose region covers
    [x, x + eps) with the largest (g(x), slope), ties to the earliest in
    ``candidate_curves`` order.  Its segment ends at the first of: its own
    region end, interval.hi, or the first point past x where another
    candidate is strictly better (a crossing of two lines, or the start of
    a better candidate's region).  Boundaries are exact rationals and every
    segment's curve is valid on the whole segment.

    The interval must lie within [1/2, 1] (ValueError otherwise).
    ``resolution`` is ignored, as the sweep samples nothing; it is accepted
    only so that callers written for the former grid optimizer still run.
    """
    if resolution is not None:
        warnings.warn("optimize() ignores resolution", DeprecationWarning, stacklevel=2)
    validate_interval(interval)
    if interval.is_empty:
        return PiecewiseBound(interval, ())
    curves = candidate_curves(family, include_conjectural)
    lines = [_reciprocal_line(c) for c in curves]
    segments: list[Segment] = []
    x = interval.lo
    while True:
        at_end = x == interval.hi  # only for a one-point interval
        live = [
            i for i, c in enumerate(curves)
            if c.region.lo <= x < c.region.hi or (at_end and c.region.contains(x))
        ]
        win = max(live, key=lambda i: (lines[i][0] * x + lines[i][1], lines[i][0], -i))
        m_win, k_win = lines[win]
        end = min(curves[win].region.hi, interval.hi)
        for (m, k), c in zip(lines, curves):
            lo, hi = max(x, c.region.lo), min(end, c.region.hi)
            if lo >= hi:
                continue
            # g_c - g_win is affine; find where it first turns positive in [lo, hi)
            dm, dk = m - m_win, k - k_win
            if dm * lo + dk > 0:
                end = lo
            elif dm > 0 and -dk / dm < hi:
                end = -dk / dm
        segments.append(Segment(Interval(x, end), curves[win]))
        if end == interval.hi:
            return PiecewiseBound(interval, tuple(segments))
        x = end


# ---------------------------------------------------------------------------
# Serialization helpers
# ---------------------------------------------------------------------------

def provenance_fields(prov: Provenance) -> dict[str, str]:
    """Flat winner columns used by the CSV and JSON emitters."""
    if prov.pair is not None:
        return {
            "winner_kappa": rat_str(prov.pair.kappa),
            "winner_lambda": rat_str(prov.pair.lam),
            "winner_word": prov.pair.word or "",
            "region": str(prov.region),
        }
    return {"winner_kappa": "", "winner_lambda": "", "winner_word": prov.label, "region": ""}


def bound_table_rows(bound: PiecewiseBound, resolution: int) -> list[dict[str, str]]:
    """Exact + decimal rows of the optimized bound on its grid."""
    rows = []
    for sigma in bound.interval.grid(resolution):
        seg = bound.segment_at(sigma)
        a = seg.curve.eval_A(sigma)
        e = a * (1 - sigma)
        row = {
            "sigma": rat_str(sigma),
            "A_num": str(a.numerator),
            "A_den": str(a.denominator),
            "A_decimal": dec_str(a),
            "E_decimal": dec_str(e),
        }
        row.update(provenance_fields(seg.curve.provenance))
        rows.append(row)
    return rows


def piecewise_to_json_obj(bound: PiecewiseBound) -> dict:
    segs = []
    for seg in bound.segments:
        prov = seg.curve.provenance
        segs.append(
            {
                "lo": rat_str(seg.region.lo),
                "hi": rat_str(seg.region.hi),
                "A": {
                    "a": str(seg.curve.A.a),
                    "b": str(seg.curve.A.b),
                    "c": str(seg.curve.A.c),
                    "d": str(seg.curve.A.d),
                    "text": str(seg.curve.A),
                },
                "provenance": provenance_fields(prov),
                "label": prov.label,
            }
        )
    return {
        "interval": {"lo": rat_str(bound.interval.lo), "hi": rat_str(bound.interval.hi)},
        "segments": segs,
    }
