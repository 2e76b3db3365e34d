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

import math
import warnings
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import Inadmissible
from .exact import (
    Interval,
    LinFrac,
    Quadratic,
    Root,
    RootBracket,
    SignCertificate,
    dec_str,
    quadratic_roots_in_interval,
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
    "baseline_crossovers",
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


class InadmissiblePair(Inadmissible):
    """Pair outside the parameter range the construction supports."""


class EmptyRegion(Inadmissible):
    """Requested a curve or audit on an empty validity region."""


# ---------------------------------------------------------------------------
# Regions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegionSpec:
    """Validity regions of the two A(sigma) branches for one pair.

    region1 = [max(sigma_star, 1/2), 1]    (empty iff lambda + 2*kappa > 1)
    region2 = [left2, min(sigma_star, 1)]   (empty iff kappa + 1 > 4*lambda)

    where sigma_star = (1 + lambda - 4 kappa) / (2 - 6 kappa) and
    left2 = (1 + lambda + kappa) / (2 (1 + kappa)).  Empty regions are
    explicit ``Interval.empty()`` values, never dropped.  kappa = p/q and
    lambda = r/q with q > 0: the integers the branches, the audit and the
    continuity check are built from, so they take this record, not the pair.
    """

    pair: ExponentPair
    p: int
    r: int
    q: int
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


def regions_for(pair: ExponentPair) -> RegionSpec:
    """Exact region endpoints for a pair; kappa >= 1/3 is rejected."""
    k, l = pair.kappa, pair.lam
    q = math.lcm(k.denominator, l.denominator)
    p, r = k.numerator * (q // k.denominator), l.numerator * (q // l.denominator)
    if 3 * p >= q:
        raise InadmissiblePair(
            f"pair {pair} has kappa >= 1/3; the region construction needs kappa < 1/3"
        )
    # sigma_star and left2 over positive denominators, compared as integers
    star_n, star_d = q + r - 4 * p, 2 * q - 6 * p
    left_n, left_d = q + r + p, 2 * (q + p)
    sigma_star, left2 = Fraction(star_n, star_d), Fraction(left_n, left_d)
    if star_n <= star_d:
        region1 = Interval(sigma_star if 2 * star_n >= star_d else _HALF, _ONE)
        hi2, hi_n, hi_d = sigma_star, star_n, star_d
    else:
        region1 = Interval.empty()
        hi2, hi_n, hi_d = _ONE, 1, 1
    region2 = Interval(left2, hi2) if left_n * hi_d <= hi_n * left_d else Interval.empty()
    return RegionSpec(pair, p, r, q, sigma_star, left2, region1, region2)


# ---------------------------------------------------------------------------
# Bound curves
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Provenance:
    """Which candidate a curve came from."""

    label: str
    pair: ExponentPair | None = None
    region: int | None = None
    conjectural: bool = False


@dataclass(frozen=True)
class BoundCurve:
    """One branch of a density bound: A(sigma) and E(sigma) = A(sigma)(1-sigma)."""

    A: LinFrac
    region: Interval
    provenance: Provenance

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
    A = _branch_A(regions, region)
    label = f"pair {rat_str(pair.kappa)},{rat_str(pair.lam)} region {region}"
    return BoundCurve(A, regions.region(region), Provenance(label, pair, region))


def _branch_A(regions: RegionSpec, region: int) -> LinFrac:
    """The A of ``exponent_curve(regions.pair, region)``, from its RegionSpec."""
    if regions.region(region).is_empty:
        raise EmptyRegion(f"region {region} of pair {regions.pair} is empty")
    if region == 1:
        return LinFrac(0, 4, 4, -1)
    p, r, q = regions.p, regions.r, regions.q
    if p == 0:
        raise InadmissiblePair(
            f"pair {regions.pair}: the region-2 branch degenerates for kappa = 0"
        )
    # 4k / ((2-2k) s + (3k-l-1)) with numerator and denominator times q
    return LinFrac(0, 4 * p, 2 * q - 2 * p, 3 * p - r - q)


@dataclass(frozen=True)
class ContinuityReport:
    """Do the two branches agree at the shared endpoint sigma_star?"""

    status: str  # "ok" | "skipped" | "mismatch"
    sigma_star: Fraction | None = None
    shared_value: Fraction | None = None
    note: str = ""


def continuity_check(regions: RegionSpec) -> ContinuityReport:
    """Verify both branches of a pair's RegionSpec agree at sigma_star, exactly.

    The shared value in closed form is 4(2-6k)/(2+4l-10k); both branch
    values at sigma_star are compared with it by integer cross-multiplication.
    Pairs whose region-2 branch is degenerate (kappa = 0) or whose regions do not both
    exist are reported as skipped with an explicit note.
    """
    if regions.region1.is_empty:
        return ContinuityReport("skipped", note="region 1 empty: EmptyRegion")
    if regions.region2.is_empty:
        return ContinuityReport("skipped", note="region 2 empty: EmptyRegion")
    p, r, q = regions.p, regions.r, regions.q
    if p == 0:
        return ContinuityReport(
            "skipped", note="region-2 branch degenerate for kappa = 0"
        )
    star = regions.sigma_star
    x, w = star.numerator, star.denominator
    # each branch's A at sigma_star as an integer quotient, cross-multiplied
    (n1, d1), (n2, d2) = (
        (A.a * x + A.b * w, A.c * x + A.d * w)
        for A in (_branch_A(regions, 1), _branch_A(regions, 2))
    )
    closed_n, closed_d = 4 * (2 * q - 6 * p), 2 * q + 4 * r - 10 * p
    if n1 * d2 == n2 * d1 and n1 * closed_d == closed_n * d1:
        return ContinuityReport("ok", star, Fraction(n1, d1))
    return ContinuityReport(
        "mismatch",
        star,
        note=f"branches disagree: {rat_str(Fraction(n1, d1))} vs {rat_str(Fraction(n2, d2))}",
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


@dataclass(frozen=True)
class BalanceViolation:
    """Why an audit failed: the failing term and a sigma in the region where it fails."""

    term: str
    witness: Fraction
    message: str = ""

    def __str__(self) -> str:
        return self.message or (
            f"term {self.term} exceeds the exponent at sigma = {rat_str(self.witness)}"
        )


@dataclass(frozen=True)
class AuditReport:
    """Outcome of auditing max(e1, e2, e3) = E on one region.

    e1: dyadic main term              (2 - 2 sigma) y
    e2: block-subdivision term        1 + y (1 - sigma - t0_exponent/2)
    e3: sixth-moment term             2 + (3 - 6 sigma) y

    with Y = T^{y(sigma)}, N of size Y, and T0 = N^{t0_exponent}; all
    exponents share the positive linear denominator of y on the region.
    ``violation`` is None exactly when the audit passed.

    The report keeps the integers the audit decided on: ``y_ints`` =
    (n, c, d) with y = n/(c sigma + d) in lowest terms; ``term_ints``, the
    terms' numerators in ``_TERM_LABELS`` order, each (a, b) for
    (a sigma + b) / (``scale`` (c sigma + d)), the first also E's; and
    ``term_ends``, each term-minus-E numerator at the region's lo and hi
    times their positive denominators.  ``y``, ``t0_exponent``,
    ``denominator``, ``e_num`` and ``terms`` are built from these integers
    on first read, so an audit that is only gated on pays for none of them.
    """

    regions: RegionSpec
    region_index: int
    region: Interval
    y_ints: tuple[int, int, int]
    scale: int
    term_ints: tuple[tuple[int, int], ...]
    term_ends: tuple[tuple[int, int], ...]
    violation: BalanceViolation | None

    @property
    def passed(self) -> bool:
        return self.violation is None

    @cached_property
    def y(self) -> LinFrac:
        return LinFrac(0, *self.y_ints)

    @cached_property
    def t0_exponent(self) -> LinFrac:
        p, r, q = self.regions.p, self.regions.r, self.regions.q
        return LinFrac(2 * q, p - q - r, 0, p)

    @cached_property
    def denominator(self) -> Quadratic:
        return Quadratic.linear(self.y_ints[1], self.y_ints[2])

    @cached_property
    def e_num(self) -> Quadratic:
        return self._numerator(*self.term_ints[0])

    @cached_property
    def terms(self) -> tuple[TermCertificate, ...]:
        e_a, e_b = self.term_ints[0]
        return tuple(
            TermCertificate(
                label,
                self._numerator(a, b),
                _linear_certificate(a - e_a, b - e_b, at_lo, at_hi, self.region),
                achieves=(a, b) == (e_a, e_b),
            )
            for label, (a, b), (at_lo, at_hi) in zip(_TERM_LABELS, self.term_ints, self.term_ends)
        )

    def _numerator(self, a: int, b: int) -> Quadratic:
        """(a s + b) / scale, the numerator over the shared denominator."""
        return Quadratic.linear(Fraction(a, self.scale), Fraction(b, self.scale))

    def term_value(self, label: str, sigma: Fraction) -> Fraction:
        for t in self.terms:
            if t.label == label:
                return t.num.eval(sigma) / self.denominator.eval(sigma)
        raise KeyError(label)

    def exponent_value(self, sigma: Fraction) -> Fraction:
        return self.e_num.eval(sigma) / self.denominator.eval(sigma)


_TERM_LABELS = ("class1_main", "class1_subdivision", "class2_moment")


def _linear_certificate(
    a: int, b: int, at_lo: int, at_hi: int, region: Interval
) -> SignCertificate:
    """Sign of a s + b on the region, read from its values at the two ends.

    ``at_lo`` and ``at_hi`` are those values times positive denominators, as
    the audit decided on them; the certificate is the one
    ``quadratic_sign_on_interval`` gives for a linear input.
    """
    if a == b == 0:
        return SignCertificate("zero")
    if region.is_point:
        return SignCertificate("nonneg" if at_lo > 0 else "nonpos" if at_lo < 0 else "zero")
    zeros = tuple(x for x, v in ((region.lo, at_lo), (region.hi, at_hi)) if v == 0)
    if min(at_lo, at_hi) >= 0:
        return SignCertificate("nonneg", zeros)
    if max(at_lo, at_hi) <= 0:
        return SignCertificate("nonpos", zeros)
    return SignCertificate("mixed", (Fraction(-b, a),))


def audit_balance(regions: RegionSpec, region: int) -> AuditReport:
    """Certify that the three balanced term exponents stay below E on a region.

    Region 1 uses y = 2/(4 sigma - 1); region 2 uses
    y = 2 kappa / ((2-2 kappa) sigma + (3 kappa - lambda - 1)).  With N of
    size Y the three exponents and E share that single linear denominator
    (positive on the region, asserted), so each term - E is a linear
    numerator whose coefficients are integers in the RegionSpec's (p, r, q),
    kappa = p/q and lambda = r/q.  Every decision is integer
    cross-multiplication at the region's ends: a term passes when its
    numerator is <= 0 at both, and its SignCertificate is read from those
    same two values.  A failed audit is a report whose ``violation`` names
    a witness sigma: the first term that pokes above E, at an end where it
    does, or (term "exponent_curve", checked first) the A of
    ``exponent_curve`` when it is not 2y, so that E is not the curve's
    exponent.
    """
    pair, reg = regions.pair, regions.region(region)
    if reg.is_empty:
        raise EmptyRegion(f"region {region} of pair {pair} is empty")
    p, r, q = regions.p, regions.r, regions.q
    if p == 0:
        raise InadmissiblePair(
            f"pair {pair}: the block length T0 = N^((2s-1-(l-k))/k) is undefined for kappa = 0"
        )
    # y = n / (c s + d) in lowest terms, the form LinFrac gives it
    if region == 1:
        n, c, d = 2, 4, -1
    else:
        g = math.gcd(2 * p, 2 * q - 2 * p, 3 * p - r - q)
        n, c, d = 2 * p // g, (2 * q - 2 * p) // g, (3 * p - r - q) // g
    lo_n, lo_d = reg.lo.numerator, reg.lo.denominator
    hi_n, hi_d = reg.hi.numerator, reg.hi.denominator
    assert c * lo_n + d * lo_d > 0 and c * hi_n + d * hi_d > 0, "y denominator must be positive"

    # E = A (1 - s) for the A of exponent_curve, which must be 2 y: it is
    # exactly when (A.a s + A.b)(c s + d) - 2n (A.c s + A.d) vanishes identically
    violation = None
    A = _branch_A(regions, region)
    gap = (A.a * c, A.a * d + A.b * c - 2 * n * A.c, A.b * d - 2 * n * A.d)
    if any(gap):
        points = ((lo_n, lo_d), (lo_n * hi_d + hi_n * lo_d, 2 * lo_d * hi_d), (hi_n, hi_d))
        witness = next(
            (Fraction(x, w) for x, w in points if (gap[0] * x + gap[1] * w) * x + gap[2] * w * w),
            reg.lo,
        )
        violation = BalanceViolation(
            "exponent_curve", witness,
            f"exponent_curve's A = {A} is not 2y = 2({LinFrac(0, n, c, d)}); they differ at "
            f"sigma = {rat_str(witness)}",
        )

    # Exponent numerators (a s + b) over scale * (c s + d):
    #   E = A (1 - s) = 2 y (1 - s), which is also e1 = (2 - 2s) y
    #   e2 = 1 + y (1 - s - (2s - (1 + l - k)) / (2k))
    #   e3 = 2 + (3 - 6s) y
    scale = 2 * p
    term_ints = (
        (-2 * scale * n, 2 * scale * n),
        (scale * c - 2 * n * (q + p), scale * d + n * (q + r + p)),
        (scale * (2 * c - 6 * n), scale * (2 * d + 3 * n)),
    )
    e_a, e_b = term_ints[0]
    term_ends = []
    for label, (a, b) in zip(_TERM_LABELS, term_ints):
        a, b = a - e_a, b - e_b
        at_lo, at_hi = a * lo_n + b * lo_d, a * hi_n + b * hi_d
        term_ends.append((at_lo, at_hi))
        if violation is None and (at_lo > 0 or at_hi > 0):
            violation = BalanceViolation(label, reg.lo if at_lo > 0 else reg.hi)
    return AuditReport(
        regions, region, reg, (n, c, d), scale, term_ints, tuple(term_ends), violation
    )


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
        BoundCurve(
            LinFrac.constant(Fraction(8, 3)),
            Interval(_HALF, _ONE),
            Provenance("ivic-8/3"),
        ),
        BoundCurve(
            LinFrac(0, 4, 8, -5),
            Interval(Fraction(11, 12), _ONE),
            Provenance("ivic-1992"),
        ),
        BoundCurve(
            LinFrac.constant(2),
            Interval(_HALF, _ONE),
            Provenance("density-hypothesis", conjectural=True),
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


def baseline_crossovers(
    bound: PiecewiseBound, curves: Sequence[BoundCurve]
) -> Iterator[tuple[Segment, BoundCurve, Root]]:
    """(segment, curve, root) for each point where a curve meets the bound.

    Segments in order, then curves in the given order; a root counts only
    when it lies in the segment, since outside it the bound is another
    curve.  A curve identical to the segment's, or disjoint from it, meets
    it nowhere.
    """
    for seg in bound.segments:
        for curve in curves:
            if curve.region.intersect(seg.region).is_empty or curve.A == seg.curve.A:
                continue
            for root in crossover(seg.curve, curve).points:
                if seg.region.contains(root.midpoint() if isinstance(root, RootBracket) else root):
                    yield seg, curve, root


def validate_interval(interval: Interval) -> None:
    """Raise Inadmissible unless the interval lies within [1/2, 1]."""
    if not interval.is_empty and not (_HALF <= interval.lo and interval.hi <= _ONE):
        raise Inadmissible(f"interval {interval} does not lie within [1/2, 1]")


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

    The interval must lie within [1/2, 1] (Inadmissible otherwise).
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
