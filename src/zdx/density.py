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
from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction
from typing import NamedTuple

from . import Inadmissible, Record
from .exact import (
    Interval,
    LinFrac,
    Quadratic,
    Root,
    SignCertificate,
    quadratic_roots_in_interval,
    quadratic_sign_on_interval,
    rat_str,
    root_key,
)
from .pairs import ExponentPair, PairFamily

__all__ = [
    "InadmissiblePair",
    "EmptyRegion",
    "BalanceViolation",
    "MAX_RESOLUTION",
    "Provenance",
    "BoundCurve",
    "ContinuityReport",
    "TermCertificate",
    "AuditReport",
    "FamilyAudit",
    "Crossover",
    "Segment",
    "PiecewiseBound",
    "regions_for",
    "exponent_curve",
    "continuity_check",
    "audit_balance",
    "audit_family",
    "baseline_curves",
    "crossover",
    "baseline_crossovers",
    "validate_interval",
    "validate_resolution",
    "optimize",
    "candidate_curves",
    "provenance_fields",
    "piecewise_to_json_obj",
]

_HALF = Fraction(1, 2)
_ONE = Fraction(1)


class InadmissiblePair(Inadmissible):
    """Pair outside the parameter range the construction supports."""


class EmptyRegion(Inadmissible):
    """Requested a curve or audit on an empty validity region."""


# ---------------------------------------------------------------------------
# Regions
# ---------------------------------------------------------------------------

def _sigma_star(p: int, r: int, q: int) -> tuple[int, int]:
    """sigma_star as n/d, with d > 0 when kappa = p/q < 1/3 and lambda = r/q."""
    return q + r - 4 * p, 2 * q - 6 * p


_End = tuple[int, int]  # a rational n/d with d > 0, not necessarily in lowest terms
_Ends = tuple[_End, _End]  # a region's (lo, hi)


def _region_ends(p: int, r: int, q: int) -> tuple[_End, _End, _Ends | None, _Ends | None]:
    """sigma_star, left2 and the (lo, hi) ends of regions 1 and 2, None if empty.

    region1 = [max(sigma_star, 1/2), 1]    (empty iff lambda + 2*kappa > 1)
    region2 = [left2, min(sigma_star, 1)]   (empty iff kappa + 1 > 4*lambda)

    where sigma_star = (1 + lambda - 4 kappa) / (2 - 6 kappa) and
    left2 = (1 + lambda + kappa) / (2 (1 + kappa)), for kappa = p/q < 1/3
    and lambda = r/q.  Every comparison is integer cross-multiplication.
    """
    star = star_n, star_d = _sigma_star(p, r, q)
    left = left_n, left_d = q + r + p, 2 * (q + p)
    if star_n <= star_d:
        region1 = (star if 2 * star_n >= star_d else (1, 2), (1, 1))
        hi2 = star
    else:
        region1, hi2 = None, (1, 1)
    region2 = (left, hi2) if left_n * hi2[1] <= hi2[0] * left_d else None
    return star, left, region1, region2


def _admissible(pair: ExponentPair) -> tuple[int, int, int]:
    """The pair's triple (p, r, q); kappa >= 1/3 is rejected."""
    p, r, q = pair.triple
    if 3 * p >= q:
        raise InadmissiblePair(
            f"pair {pair} has kappa >= 1/3; the region construction needs kappa < 1/3"
        )
    return p, r, q


def _interval(ends: _Ends | None) -> Interval:
    return Interval(Fraction(*ends[0]), Fraction(*ends[1])) if ends else Interval.empty()


def regions_for(pair: ExponentPair) -> tuple[Interval, Interval]:
    """Exact regions 1 and 2 of a pair's two A(sigma) branches (``_region_ends``),
    an empty one as ``Interval.empty()``, never dropped; kappa >= 1/3 is rejected."""
    _, _, ends1, ends2 = _region_ends(*_admissible(pair))
    return _interval(ends1), _interval(ends2)


def _region_of(pair: ExponentPair, region: int) -> tuple[int, int, int, _Ends]:
    """(p, r, q) of an admissible pair and the integer ends of its nonempty region 1 or 2."""
    p, r, q = _admissible(pair)
    if region not in (1, 2):
        raise ValueError(f"region index must be 1 or 2, got {region!r}")
    ends = _region_ends(p, r, q)[1 + region]
    if ends is None:
        raise EmptyRegion(f"region {region} of pair {pair} is empty")
    return p, r, q, ends


# ---------------------------------------------------------------------------
# Bound curves
# ---------------------------------------------------------------------------

class Provenance(Record):
    """Which candidate a curve came from."""

    label: str
    pair: ExponentPair | None = None
    region: int | None = None
    conjectural: bool = False


class BoundCurve(Record):
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
    p, _, _, ends = _region_of(pair, region)
    if region == 2 and p == 0:
        raise InadmissiblePair(f"pair {pair}: the region-2 branch degenerates for kappa = 0")
    return _curve(pair, region, ends)


def _curve(pair: ExponentPair, region: int, ends: _Ends) -> BoundCurve:
    """The BoundCurve of a pair's branch on its region's integer ends."""
    A = LinFrac(*_branch_ints(*pair.triple, region))
    label = f"pair {rat_str(pair.kappa)},{rat_str(pair.lam)} region {region}"
    return BoundCurve(A, _interval(ends), Provenance(label, pair, region))


def _branch_ints(p: int, r: int, q: int, region: int) -> tuple[int, int, int, int]:
    """(a, b, c, d) of a branch's A = (a s + b) / (c s + d), not normalized."""
    if region == 1:
        return 0, 4, 4, -1
    # 4k / ((2-2k) s + (3k-l-1)) with numerator and denominator times q
    return 0, 4 * p, 2 * q - 2 * p, 3 * p - r - q


class ContinuityReport(Record):
    """Do the two branches agree at the shared endpoint sigma_star?"""

    status: str  # "ok" | "skipped" | "mismatch"
    sigma_star: Fraction | None = None
    shared_value: Fraction | None = None
    note: str = ""


def continuity_check(pair: ExponentPair) -> ContinuityReport:
    """Verify both branches of a pair agree at sigma_star, exactly.

    The shared value in closed form is 4(2-6k)/(2+4l-10k); both branch
    values at sigma_star are compared with it by integer cross-multiplication.
    Pairs whose region-2 branch is degenerate (kappa = 0) or whose regions do not both
    exist are reported as skipped with an explicit note; kappa >= 1/3 is rejected.
    """
    p, r, q = _admissible(pair)
    star, _, ends1, ends2 = _region_ends(p, r, q)
    if ends1 is None:
        return ContinuityReport("skipped", note="region 1 empty: EmptyRegion")
    if ends2 is None:
        return ContinuityReport("skipped", note="region 2 empty: EmptyRegion")
    if p == 0:
        return ContinuityReport("skipped", note="region-2 branch degenerate for kappa = 0")
    n1, d1, n2, d2, agree = _continuity_ints(
        p, r, q, star, _branch_ints(p, r, q, 1), _branch_ints(p, r, q, 2)
    )
    if agree:
        return ContinuityReport("ok", Fraction(*star), Fraction(n1, d1))
    return ContinuityReport("mismatch", Fraction(*star), note=_mismatch_note(n1, d1, n2, d2))


def _continuity_ints(p: int, r: int, q: int, star: _End, A1: tuple[int, int, int, int],
                     A2: tuple[int, int, int, int]) -> tuple[int, int, int, int, bool]:
    """Each branch's A at sigma_star = x/w as n/d, and whether both equal the closed form.

    A1 and A2 are the branches' (a, b, c, d).  The cross-multiplications
    decide the same for any nonzero multiple of (x, w) or of either A.
    """
    x, w = star
    # each branch's A at sigma_star as an integer quotient, cross-multiplied
    (n1, d1), (n2, d2) = ((a * x + b * w, c * x + d * w) for a, b, c, d in (A1, A2))
    closed_n, closed_d = 4 * (2 * q - 6 * p), 2 * q + 4 * r - 10 * p
    return n1, d1, n2, d2, n1 * d2 == n2 * d1 and n1 * closed_d == closed_n * d1


def _mismatch_note(n1: int, d1: int, n2: int, d2: int) -> str:
    """A continuity mismatch's note: the branch values n1/d1 and n2/d2 at sigma_star."""
    return f"branches disagree: {rat_str(Fraction(n1, d1))} vs {rat_str(Fraction(n2, d2))}"


# ---------------------------------------------------------------------------
# Balance audit
# ---------------------------------------------------------------------------

class TermCertificate(Record):
    """Exact comparison of one balanced term against E on the region."""

    label: str
    num: Quadratic  # term exponent numerator over the shared denominator
    diff_cert: SignCertificate  # sign of (term - E) numerator
    achieves: bool  # term == E identically on the region


class BalanceViolation(Record):
    """Why an audit failed: the failing term and a sigma in the region where it fails."""

    term: str
    witness: Fraction
    message: str = ""

    def __str__(self) -> str:
        return self.message or (
            f"term {self.term} exceeds the exponent at sigma = {rat_str(self.witness)}"
        )


class AuditReport(Record):
    """Outcome of auditing max(e1, e2, e3) = E on one region.

    e1: dyadic main term              (2 - 2 sigma) y
    e2: block-subdivision term        1 + y (1 - sigma - t0_exponent/2)
    e3: sixth-moment term             2 + (3 - 6 sigma) y

    with Y = T^{y(sigma)}, N of size Y, and T0 = N^{t0_exponent}; all
    exponents share the positive linear ``denominator`` of y on the region.
    ``terms`` are in ``_TERM_LABELS`` order, each with its numerator over
    that denominator and the ``quadratic_sign_on_interval`` certificate of
    its term-minus-E numerator; E = e1, so E's numerator is the first term's.
    ``audit_balance`` builds all of them from the integers the audit
    decided on.  ``violation`` is None exactly when the audit passed.
    """

    pair: ExponentPair
    region_index: int
    region: Interval
    y: LinFrac
    t0_exponent: LinFrac
    denominator: Quadratic
    terms: tuple[TermCertificate, ...]
    violation: BalanceViolation | None

    @property
    def passed(self) -> bool:
        return self.violation is None


_TERM_LABELS = ("class1_main", "class1_subdivision", "class2_moment")


def audit_balance(pair: ExponentPair, region: int) -> AuditReport:
    """Certify that the three balanced term exponents stay below E on a region.

    Region 1 uses y = 2/(4 sigma - 1); region 2 uses
    y = 2 kappa / ((2-2 kappa) sigma + (3 kappa - lambda - 1)).  With N of
    size Y the three exponents and E share that single linear denominator
    (positive on the region, asserted), so each term - E is a linear
    numerator whose coefficients are integers in the pair's triple (p, r, q),
    kappa = p/q and lambda = r/q.  Every decision is integer
    cross-multiplication at the region's ends: a term passes when its
    numerator is <= 0 at both.  A failed audit is a report whose
    ``violation`` names a witness sigma: the first term that pokes above E,
    at an end where it does, or (term "exponent_curve", checked first) the
    A of ``exponent_curve`` when it is not 2y, so that E is not the curve's
    exponent.
    """
    p, r, q, ends = _region_of(pair, region)
    if p == 0:
        raise InadmissiblePair(
            f"pair {pair}: the block length T0 = N^((2s-1-(l-k))/k) is undefined for kappa = 0"
        )
    reg = _interval(ends)
    A = _branch_ints(p, r, q, region)
    (n, c, d), scale, term_ints, failure = _audit_ints(p, r, q, region, ends, A)
    e_a, e_b = term_ints[0]
    terms = tuple(
        TermCertificate(
            label,
            Quadratic.linear(Fraction(a, scale), Fraction(b, scale)),
            quadratic_sign_on_interval(Quadratic.linear(a - e_a, b - e_b), reg),
            achieves=(a, b) == (e_a, e_b),
        )
        for label, (a, b) in zip(_TERM_LABELS, term_ints)
    )
    return AuditReport(
        pair, region, reg, LinFrac(0, n, c, d), LinFrac(2 * q, p - q - r, 0, p),
        Quadratic.linear(c, d), terms,
        None if failure is None else _violation(failure, A, (n, c, d)),
    )


def _violation(failure: tuple[str, _End], A: tuple[int, int, int, int],
               y: tuple[int, int, int]) -> BalanceViolation:
    """The BalanceViolation of an ``_audit_ints`` failure.

    ``A`` is the (a, b, c, d) the audit was given and ``y`` the (n, c, d)
    it returned; the exponent_curve message prints both as LinFrac.
    """
    term, (x, w) = failure
    witness = Fraction(x, w)
    message = ""
    if term == "exponent_curve":
        message = (
            f"exponent_curve's A = {LinFrac(*A)} is not 2y = 2({LinFrac(0, *y)}); they differ at "
            f"sigma = {rat_str(witness)}"
        )
    return BalanceViolation(term, witness, message)


def _audit_ints(
    p: int, r: int, q: int, region: int, ends: _Ends, A: tuple[int, int, int, int]
) -> tuple[tuple[int, int, int], int, tuple[tuple[int, int], ...], tuple[str, _End] | None]:
    """The audit's decisions on integers: y, the term numerators and the failure.

    ``ends`` are the region's (lo, hi) and ``A`` the branch's (a, b, c, d).
    Returns y = (n, c, d) in lowest terms, the scale, the term numerators
    in ``_TERM_LABELS`` order and the failure: None, or (term, (x, w)) with
    a witness sigma = x/w.  Every test is a sign of a form homogeneous in
    each end and in A, so it decides the same for positive multiples of them.
    """
    # y = n / (c s + d) in lowest terms, the form LinFrac gives it
    if region == 1:
        n, c, d = 2, 4, -1
    else:
        g = math.gcd(2 * p, 2 * q - 2 * p, 3 * p - r - q)
        n, c, d = 2 * p // g, (2 * q - 2 * p) // g, (3 * p - r - q) // g
    (lo_n, lo_d), (hi_n, hi_d) = lo, hi = ends
    assert c * lo_n + d * lo_d > 0 and c * hi_n + d * hi_d > 0, "y denominator must be positive"

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

    # E = A (1 - s) for the A of exponent_curve, which must be 2 y: it is
    # exactly when (A.a s + A.b)(c s + d) - 2n (A.c s + A.d) vanishes identically
    a_a, a_b, a_c, a_d = A
    gap = (a_a * c, a_a * d + a_b * c - 2 * n * a_c, a_b * d - 2 * n * a_d)
    if any(gap):
        points = (lo, (lo_n * hi_d + hi_n * lo_d, 2 * lo_d * hi_d), hi)
        witness = next(
            ((x, w) for x, w in points if (gap[0] * x + gap[1] * w) * x + gap[2] * w * w), lo
        )
        return (n, c, d), scale, term_ints, ("exponent_curve", witness)
    e_a, e_b = term_ints[0]
    for label, (a, b) in zip(_TERM_LABELS, term_ints):
        a, b = a - e_a, b - e_b
        at_lo, at_hi = a * lo_n + b * lo_d, a * hi_n + b * hi_d
        if at_lo > 0 or at_hi > 0:
            return (n, c, d), scale, term_ints, (label, lo if at_lo > 0 else hi)
    return (n, c, d), scale, term_ints, None


class FamilyAudit(NamedTuple):
    """Outcome of ``audit_family``.

    ``lines`` holds, in family order, a FAIL line per failed region audit
    or continuity check and, when verbose, one status line per audited pair.
    """

    audited: int  # region audits that passed
    failed: int  # region audits and continuity checks that failed
    skipped: int  # pairs outside 0 < kappa < 1/3
    lines: tuple[str, ...]


def audit_family(family: Iterable[ExponentPair], verbose: bool = False) -> FamilyAudit:
    """Balance audit of every nonempty region and continuity check of every
    pair with 0 < kappa < 1/3, the family-wide ``audit_balance`` and
    ``continuity_check``.

    Each pair is decided on its triple (p, r, q) by the integer kernels
    those two call, over ends and branch coefficients not brought to
    lowest terms.  A FAIL line is written from the kernel's result by the
    helpers the reports use, so no report is built.
    """
    lines: list[str] = []
    audited = failed = skipped = 0
    for pair in family:
        p, r, q = pair.triple
        if not 0 < 3 * p < q:
            skipped += 1
            continue
        star, _, *ends = _region_ends(p, r, q)
        branches = _branch_ints(p, r, q, 1), _branch_ints(p, r, q, 2)
        status = []
        for region, region_ends, A in zip((1, 2), ends, branches):
            if region_ends is None:
                status.append("empty")
                continue
            y, _, _, failure = _audit_ints(p, r, q, region, region_ends, A)
            if failure:
                lines.append(f"FAIL {pair} region {region}: {_violation(failure, A, y)}")
                failed += 1
                status.append("FAIL")
            else:
                audited += 1
                status.append("pass")
        continuity = "skipped"
        if None not in ends:
            n1, d1, n2, d2, agree = _continuity_ints(p, r, q, star, *branches)
            continuity = "ok" if agree else "mismatch"
            if not agree:
                lines.append(
                    f"FAIL {pair} continuity at sigma = {rat_str(Fraction(*star))}: "
                    f"{_mismatch_note(n1, d1, n2, d2)}"
                )
                failed += 1
        if verbose:
            lines.append(
                f"{pair}  word={pair.word or '-'}  r1:{status[0]} r2:{status[1]}  "
                f"continuity:{continuity}"
            )
    return FamilyAudit(audited, failed, skipped, tuple(lines))


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

class Crossover(Record):
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
    if f.A == g.A:  # canonical LinFracs: equal exactly when the cross difference is zero
        return Crossover("identical")
    roots = quadratic_roots_in_interval(f.A.cross_difference(g.A), overlap)
    points = []
    for r in roots:
        probe = root_key(r)
        if f.A.denominator_at(probe) == 0 or g.A.denominator_at(probe) == 0:
            continue
        points.append(r)
    if not points:
        return Crossover("none")
    return Crossover("points", tuple(points))


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------

class Segment(Record):
    region: Interval
    curve: BoundCurve


class PiecewiseBound(Record):
    """Ordered segments tiling the optimization interval.

    Adjacent segments share an endpoint; at a shared endpoint the bound
    takes the segment with the smaller E there (the left one on a tie), so
    ``segments_along`` gives the pointwise minimum even where the bound jumps.
    """

    interval: Interval
    segments: tuple[Segment, ...]

    def segments_along(self, xs: Iterable[int], w: int) -> Iterator[tuple[int, Segment]]:
        """(x, segment) for ascending sigma = x / w, w > 0, in one pass: the
        segment holding sigma with the smallest E there, the first on a tie.

        Only the first segment not ending before sigma, and the next, can
        hold it, as segments tile the interval with positive lengths.
        Holding is decided on integers, by each segment's ``Interval.span``
        over w.
        """
        segments = self.segments
        spans = [seg.region.span(w) for seg in segments]
        i = 0
        for x in xs:
            while i < len(spans) and spans[i][1] < x:
                i += 1
            yield x, _lowest_at(segments[i:i + 2], spans[i:i + 2], x, w)


def _lowest_at(segments: Sequence[Segment], spans: Sequence[tuple[int, int]], x: int,
               w: int) -> Segment:
    """The segment holding sigma = x / w with the smallest E there, the first on a tie.

    ``spans`` are the segments' ``Interval.span`` over w, so holding is
    decided on integers.  E is evaluated only where more than one segment
    holds sigma, at a shared endpoint.
    """
    hits = [seg for seg, (lo, hi) in zip(segments, spans) if lo <= x <= hi]
    if not hits:
        raise KeyError(f"sigma = {rat_str(Fraction(x, w))} outside the optimized interval")
    if len(hits) == 1:
        return hits[0]
    sigma = Fraction(x, w)
    return min(hits, key=lambda seg: seg.curve.eval_E(sigma))


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
                if seg.region.contains(root_key(root)):
                    yield seg, curve, root


def validate_interval(interval: Interval) -> None:
    """Raise Inadmissible unless the interval lies within [1/2, 1]."""
    if not interval.is_empty and not (_HALF <= interval.lo and interval.hi <= _ONE):
        raise Inadmissible(f"interval {interval} does not lie within [1/2, 1]")


def candidate_curves(family: PairFamily) -> tuple[BoundCurve, ...]:
    """All curves the optimizer may pick from, in a fixed deterministic order.

    Pairs come first, in family order, which ``generate_pairs`` sorts by
    (kappa, lambda), region 1 then 2; pairs with kappa >= 1/3 are skipped,
    as is the degenerate kappa = 0 region-2 branch.  The proven baselines
    follow; a conjectural baseline never competes for the bound.
    """
    return tuple(_curve(*branch) for branch in _candidates(family)) + tuple(_proven_baselines())


def _candidates(family: Iterable[ExponentPair]) -> Iterator[tuple[ExponentPair, int, _Ends]]:
    """(pair, region, integer ends) of every pair branch, in ``candidate_curves`` order."""
    for pair in family:
        p, r, q = pair.triple
        if 3 * p >= q:
            continue
        _, _, ends1, ends2 = _region_ends(p, r, q)
        if ends1:
            yield pair, 1, ends1
        if ends2 and p:
            yield pair, 2, ends2


def _proven_baselines() -> list[BoundCurve]:
    return [c for c in baseline_curves() if not c.provenance.conjectural]


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
) -> PiecewiseBound:
    """Minimize E(sigma) over all candidate curves on a sigma-interval, exactly.

    Every candidate is A = b/(c s + d) with b > 0 and c s + d > 0 on its
    region (ValueError otherwise), so g = 1/A is affine and, for
    sigma < 1, a smaller E = A (1 - sigma) is a larger g.  Each segment
    starts at x with the candidate whose region covers [x, x + eps) with
    the largest (g(x), slope), ties to the earliest in ``candidate_curves``
    order, and ends at the first of: its own region end, interval.hi, or
    the first point past x where another candidate is strictly better.
    Boundaries are exact rationals and every segment's curve is valid on
    the whole segment.

    The pairs are not swept one by one.  Write a = 2 sigma - 1 and, for an
    admissible pair (0 < kappa < 1/3), m = (lambda - a)/kappa, the slope
    from (0, a) to (kappa, lambda).  Region 2 holds sigma iff
    4 - 6 sigma <= m <= 2 sigma - 1, where g = (3 - 2 sigma - m)/4; region 1
    holds it iff m <= 4 - 6 sigma, where g = (4 sigma - 1)/4 is at least
    every region-2 g.  So the region-1 line wins from the least region-1
    start on, credited to the first pair in family order whose region 1
    has begun; before that, the winner is the pair of least m, the lower
    tangent from (0, a) to the convex hull of the admissible pairs (exponent
    pairs are closed under convex combination).  The tangent vertex moves
    to the next smaller kappa where a crosses a hull edge's kappa = 0
    intercept; on an edge's collinear pairs the smaller kappa has the
    larger slope and wins.  One pass over the family collects the
    admissible pairs and the pairs whose sigma_star falls below every
    earlier one's, ``hull.lower_hull`` builds the hull on the integer
    triples, and the baselines are merged in by exact line crossings.  The
    cost is O(n + V) for n pairs and V hull vertices, plus O(baselines) per
    segment (the sort is linear on a sorted family).  On [1/2, 1] it takes
    3.5-4.1 ms at depth 12 (80 vertices), 13-18 ms at depth 16 (298) and
    0.18-0.24 s at depth 22 (2,008) in process (``BENCH_27.json``,
    "budgets").  A one-point interval is decided over every candidate
    whose closed region holds it: there a region 2 that ends at the point
    ties the region-1 line and wins on slope, so the credited pair need not
    be a hull vertex.  ``_point_winner`` decides it in one integer pass:
    ``zdx optimize --depth 22 --interval 4/5,4/5`` takes 0.18-0.27 s and
    28 MB on a 2 vCPU Xeon (``BENCH_31.json``).

    The interval must lie within [1/2, 1] (Inadmissible otherwise).
    ``resolution`` is ignored, as nothing is sampled; it is accepted only
    so that callers written for the former grid optimizer still run.
    """
    if resolution is not None:
        warnings.warn("optimize() ignores resolution", DeprecationWarning, stacklevel=2)
    validate_interval(interval)
    if interval.is_empty:
        return PiecewiseBound(interval, ())
    if interval.is_point:
        return PiecewiseBound(interval, (Segment(interval, _point_winner(family, interval.lo)),))
    from . import hull  # here, so that commands which never optimize do not load it

    def line(curve: BoundCurve, lo: Fraction, hi: Fraction) -> hull.Line:
        return hull.Line(lo, hi, *_reciprocal_line(curve), curve)

    baselines = [line(c, c.region.lo, c.region.hi) for c in _proven_baselines()]
    # in one pass: the admissible points to hull and the records, the pairs
    # whose sigma_star is below every earlier pair's, as (n, d, pair); on
    # [1/2, 1] region 1 holds sigma iff sigma_star <= sigma <= 1, so the
    # records need no clipping at 1/2
    points, records = [], []
    for pair in family:
        p, r, q = pair.triple
        if 3 * p >= q:
            continue
        if p:
            points.append((p, r, q, pair))
        n, d = _sigma_star(p, r, q)
        if n <= d and (not records or n * records[-1][1] < records[-1][0] * d):
            records.append((n, d, pair))
    vertices = hull.lower_hull(points)
    # the best pair curve just right of each sigma: the region-1 line from
    # the least sigma_star sigma1 on, the tangent vertex's region 2 before
    sigma1 = Fraction(*records[-1][:2]) if records else interval.hi
    pair_lines = []
    for a, b, vertex in hull.tangent_ranges(vertices, interval.lo, min(sigma1, interval.hi)):
        for pair, _, ends in [branch for branch in _candidates((vertex[3],)) if branch[1] == 2]:
            lo, hi = max(a, Fraction(*ends[0])), min(b, Fraction(*ends[1]))
            if lo < hi:
                pair_lines.append(line(_curve(pair, 2, ends), lo, hi))
    if sigma1 < interval.hi:
        region1 = line(exponent_curve(records[-1][2], 1), max(sigma1, interval.lo), interval.hi)
        pair_lines.append(region1._replace(item=None))  # credited per segment
    segments = []
    for lo, hi, win in hull.upper_envelope(interval.lo, interval.hi, pair_lines, baselines):
        curve = win.item or exponent_curve(
            next(pair for n, d, pair in records if n * lo.denominator <= lo.numerator * d), 1
        )
        segments.append(Segment(Interval(lo, hi), curve))
    return PiecewiseBound(interval, tuple(segments))


def _point_winner(family: PairFamily, sigma: Fraction) -> BoundCurve:
    """The candidate whose closed region holds sigma = x/w with the largest (g, slope),
    the first in ``candidate_curves`` order on a tie.  For A = b/(c s + d),
    g = (c x + d w)/(b w) and the slope c/b are compared by cross-multiplication.
    All region-1 branches share one line, so only the first that holds sigma
    competes.  One curve is built, for the winner.
    """
    x, w = sigma.numerator, sigma.denominator
    live, held1 = [], False  # ((b, c, d), candidate) in candidate_curves order
    for pair, region, ends in _candidates(family):
        (lo_n, lo_d), (hi_n, hi_d) = ends
        if lo_n * w <= x * lo_d and x * hi_d <= hi_n * w and not (held1 and region == 1):
            held1 = held1 or region == 1
            live.append((_branch_ints(*pair.triple, region)[1:], (pair, region, ends)))
    live += [((1, *_reciprocal_line(c)), c) for c in _proven_baselines()
             if c.region.contains(sigma)]
    (b, c, d), best = live[0]
    for (b2, c2, d2), candidate in live[1:]:
        if ((c2 * x + d2 * w) * b, c2 * b) > ((c * x + d * w) * b2, c * b2):
            (b, c, d), best = (b2, c2, d2), candidate
    return best if isinstance(best, BoundCurve) else _curve(*best)


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


#: Budget on the CSV table's ``resolution``: ``optimize`` writes one row per
#: grid point, in blocks of rows.  At this cap it takes 2.2-2.8 s and 20 MB
#: peak RSS at depth 12, and 2.5-3.3 s and 33 MB at depth 22
#: (``BENCH_29.json``, "budgets").
MAX_RESOLUTION = 100_000


def validate_resolution(resolution: int) -> None:
    """Raise Inadmissible if a table ``resolution`` exceeds ``MAX_RESOLUTION``."""
    if resolution > MAX_RESOLUTION:
        raise Inadmissible(
            f"resolution {resolution} exceeds the table budget of {MAX_RESOLUTION}"
        )


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
