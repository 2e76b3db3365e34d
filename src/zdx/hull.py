"""Exact geometry behind ``density.optimize``: a lower hull and a line envelope.

A point is a tuple whose first three entries (p, r, q), q > 0, stand for
(p/q, r/q); later entries are carried along.  ``lower_hull`` builds a
lower convex hull by Andrew's monotone chain (Inf. Process. Lett. 9,
1979) on integer cross products, and ``tangent_ranges`` walks the vertex
that the lower tangent from (0, 2 sigma - 1) touches as sigma grows.
``upper_envelope`` merges affine lines g = m sigma + k, each live on a
half-open sigma-range, into the segments of their upper envelope.
``density.optimize`` picks the points and the lines.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from typing import Any, NamedTuple

from .pairs import sorted_triples

__all__ = ["Line", "lower_hull", "tangent_ranges", "upper_envelope"]


class Line(NamedTuple):
    """g = m sigma + k, live on [lo, hi); ``item`` is what its segments carry."""

    lo: Fraction
    hi: Fraction
    m: Fraction
    k: Fraction
    item: Any


def _cross(o: tuple, a: tuple, b: tuple) -> int:
    """Sign of (a - o) x (b - o), times a positive integer."""
    (po, ro, qo), (pa, ra, qa), (pb, rb, qb) = o[:3], a[:3], b[:3]
    return (pa * qo - po * qa) * (rb * qo - ro * qb) - (ra * qo - ro * qa) * (pb * qo - po * qb)


def lower_hull(points: list[tuple]) -> list[tuple]:
    """The lower hull's vertices, by increasing kappa.

    ``pairs.sorted_triples`` orders the points exactly and keeps the given
    order among equal ones.  Of several points with one kappa only the
    first of least lambda is kept, and points inside an edge are dropped.
    """
    hull: list[tuple] = []
    for pt in sorted_triples(points):
        if hull and pt[0] * hull[-1][2] == hull[-1][0] * pt[2]:
            continue
        while len(hull) >= 2 and _cross(hull[-2], hull[-1], pt) <= 0:
            hull.pop()
        hull.append(pt)
    return hull


def _tangent_switch(left: tuple, right: tuple) -> Fraction:
    """sigma = (1 + c)/2, for c the kappa = 0 intercept of the edge left-right."""
    (p1, r1, q1), (p2, r2, q2) = left[:3], right[:3]
    den = p2 * q1 - p1 * q2  # > 0: kappa increases along the hull
    return Fraction(den + r1 * p2 - r2 * p1, 2 * den)


def tangent_ranges(hull: list[tuple], lo: Fraction, hi: Fraction) -> list[tuple]:
    """(a, b, vertex) for each nonempty [a, b) within [lo, hi) where the
    lower tangent from (0, 2 sigma - 1) to the hull touches that vertex.

    The anchor rises with sigma, so the tangent vertex moves to smaller
    kappa.  Where sigma crosses an edge's switch point both ends touch,
    and the one of smaller kappa, whose line then rises faster, is taken.
    """
    ranges = []
    for j in reversed(range(len(hull))):
        b = min(_tangent_switch(hull[j - 1], hull[j]), hi) if j else hi
        if lo < b:
            ranges.append((lo, b, hull[j]))
            lo = b
        if b >= hi:
            break
    return ranges


def _first_beat(c: Line, win: Line, x: Fraction, end: Fraction) -> Fraction:
    """The first point of [x, end) past which c is strictly above win, else end."""
    lo, hi = max(x, c.lo), min(end, c.hi)
    if lo < hi:
        # g_c - g_win is affine; find where it first turns positive in [lo, hi)
        dm, dk = c.m - win.m, c.k - win.k
        if dm * lo + dk > 0:
            return lo
        if dm > 0 and -dk / dm < hi:
            return -dk / dm
    return end


def upper_envelope(
    lo: Fraction, hi: Fraction, ranged: Sequence[Line], lines: Sequence[Line]
) -> list[tuple[Fraction, Fraction, Line]]:
    """Segments (x, end, line) of the upper envelope on [lo, hi], lo < hi.

    ``ranged`` lines are disjoint and sorted; ``lines`` are few, in order,
    and lose ties to a ranged line.  A segment takes the line live at x of
    largest (g(x), m), the first on a tie, and ends at its hi, at ``hi``,
    or where another line first rises strictly above it.  This costs
    O(len(ranged) + segments * len(lines)).
    """
    segments = []
    x, j = lo, 0
    while True:
        while j < len(ranged) and ranged[j].hi <= x:
            j += 1
        live = [c for c in [*ranged[j:j + 1], *lines] if c.lo <= x < c.hi]
        win = max(live, key=lambda c: (c.m * x + c.k, c.m))
        end = min(win.hi, hi)
        for c in lines:
            end = _first_beat(c, win, x, end)
        # every ranged line the scan passes lies before the next x
        i = j
        while i < len(ranged) and ranged[i].lo < end:
            end = _first_beat(ranged[i], win, x, end)
            i += 1
        segments.append((x, end, win))
        if end == hi:
            return segments
        x = end
