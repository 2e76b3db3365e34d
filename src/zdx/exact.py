"""Exact rational substrate: linear-fractional functions of one variable,
closed rational intervals, and sign certificates for quadratics.

Every decision made here is exact; floats never participate.  Irrational
crossing points are the only non-rational objects, and they are reported
as isolating brackets of width below ``BRACKET_WIDTH``.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from . import Record, rat

__all__ = [
    "BRACKET_WIDTH",
    "PoleError",
    "SignChangeDenominator",
    "rat_str",
    "Interval",
    "LinFrac",
    "Quadratic",
    "RootBracket",
    "root_key",
    "SignCertificate",
    "OrderCertificate",
    "linfrac_compare_on_interval",
    "quadratic_sign_on_interval",
    "quadratic_roots_in_interval",
]

#: Maximum width of an isolating bracket around an irrational root.
BRACKET_WIDTH = Fraction(1, 10**9)


class PoleError(ZeroDivisionError):
    """Evaluation of a linear-fractional function at a denominator zero."""


class SignChangeDenominator(ValueError):
    """A denominator vanishes on the interval of a comparison."""


def rat_str(q: Fraction) -> str:
    """Render a rational as "p/q", or "p" when the denominator is 1."""
    if type(q) is not Fraction:
        q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def _sign(q: Fraction) -> int:
    return (q > 0) - (q < 0)


# ---------------------------------------------------------------------------
# Intervals
# ---------------------------------------------------------------------------

class Interval(Record):
    """Closed interval [lo, hi] with rational endpoints.

    The empty interval is an explicit value (``Interval.empty()``); it is
    never produced silently by arithmetic on nonempty intervals.
    """

    lo: Fraction
    hi: Fraction
    is_empty: bool = False

    def __post_init__(self) -> None:
        if type(self.lo) is not Fraction:
            object.__setattr__(self, "lo", Fraction(self.lo))
        if type(self.hi) is not Fraction:
            object.__setattr__(self, "hi", Fraction(self.hi))
        if not self.is_empty and self.lo > self.hi:
            raise ValueError(f"interval endpoints out of order: {self.lo} > {self.hi}")
        if self.is_empty:
            object.__setattr__(self, "lo", Fraction(0))
            object.__setattr__(self, "hi", Fraction(0))

    @classmethod
    def empty(cls) -> "Interval":
        return cls(Fraction(0), Fraction(0), is_empty=True)

    def contains(self, x: Fraction) -> bool:
        return not self.is_empty and self.lo <= x <= self.hi

    @property
    def is_point(self) -> bool:
        return not self.is_empty and self.lo == self.hi

    def intersect(self, other: "Interval") -> "Interval":
        if self.is_empty or other.is_empty:
            return Interval.empty()
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if lo > hi:
            return Interval.empty()
        return Interval(lo, hi)

    def integer_grid(self, steps: int) -> tuple[range, int]:
        """(xs, w), w > 0: the steps + 1 equally spaced points x / w of the
        interval, endpoints included.

        For lo = a/b and hi = c/d, x runs from a d steps to c b steps in steps
        of c b - a d over w = b d steps, so x / w need not be in lowest terms.
        A point gives itself alone as a / b, and the empty interval no point.
        """
        if steps < 1:
            raise ValueError("steps must be >= 1")
        if self.is_empty:
            return range(0), 1
        a, b = self.lo.numerator, self.lo.denominator
        if self.is_point:
            return range(a, a + 1), b
        c, d = self.hi.numerator, self.hi.denominator
        return range(a * d * steps, c * b * steps + 1, c * b - a * d), b * d * steps

    def span(self, w: int) -> tuple[int, int]:
        """(lo, hi) such that x / w lies in the interval iff lo <= x <= hi, for w > 0."""
        if self.is_empty:
            return 1, 0
        lo, hi = self.lo, self.hi
        return -(-lo.numerator * w // lo.denominator), hi.numerator * w // hi.denominator

    def __str__(self) -> str:
        if self.is_empty:
            return "[]"
        return f"[{rat_str(self.lo)}, {rat_str(self.hi)}]"


# ---------------------------------------------------------------------------
# Linear-fractional functions
# ---------------------------------------------------------------------------

def _canonical_ints(a: int, b: int, c: int, d: int) -> tuple[int, int, int, int]:
    """Canonical integer quadruple: content 1, leading denominator
    coefficient positive, constants collapsed to (0, p, 0, q)."""
    if c == 0 and d == 0:
        raise ValueError("linear-fractional denominator is identically zero")
    # a*d == b*c means the function is constant wherever it is defined.
    if a * d == b * c:
        k = Fraction(a, c) if c != 0 else Fraction(b, d)
        return (0, k.numerator, 0, k.denominator)
    g = math.gcd(a, b, c, d)
    if (c if c != 0 else d) < 0:
        g = -g
    return (a // g, b // g, c // g, d // g)


def _linear_str(p: int, q: int) -> str:
    """Render p*s + q compactly."""
    if p == 0:
        return str(q)
    if p == 1:
        head = "s"
    elif p == -1:
        head = "-s"
    else:
        head = f"{p}s"
    if q == 0:
        return head
    return f"{head}{'+' if q > 0 else '-'}{abs(q)}"


class LinFrac(Record):
    """f(s) = (a*s + b) / (c*s + d) with exact coefficients.

    Instances are canonicalized so that structural equality coincides with
    functional equality (constants collapse to (0, p, 0, q) and coefficient
    content is normalized with a positive leading denominator coefficient).
    """

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self) -> None:
        coeffs = (self.a, self.b, self.c, self.d)
        if not type(self.a) is type(self.b) is type(self.c) is type(self.d) is int:
            # clear denominators so that every input takes the integer path
            fracs = [Fraction(x) for x in coeffs]
            lcm = math.lcm(*(q.denominator for q in fracs))
            coeffs = tuple(q.numerator * (lcm // q.denominator) for q in fracs)
        ca, cb, cc, cd = _canonical_ints(*coeffs)
        object.__setattr__(self, "a", ca)
        object.__setattr__(self, "b", cb)
        object.__setattr__(self, "c", cc)
        object.__setattr__(self, "d", cd)

    @classmethod
    def of(cls, a, b, c, d) -> "LinFrac":
        """Build from arbitrary rationals (canonicalized)."""
        return cls(rat(a), rat(b), rat(c), rat(d))  # type: ignore[arg-type]

    @classmethod
    def constant(cls, k) -> "LinFrac":
        k = rat(k)
        return cls(0, k.numerator, 0, k.denominator)

    def eval(self, sigma: Fraction) -> Fraction:
        if type(sigma) is not Fraction:
            sigma = Fraction(sigma)
        den = self.c * sigma + self.d
        if den == 0:
            raise PoleError(f"{self} has a pole at sigma = {rat_str(sigma)}")
        return (self.a * sigma + self.b) / den

    def denominator_at(self, sigma: Fraction) -> Fraction:
        return self.c * Fraction(sigma) + self.d

    def cross_difference(self, other: "LinFrac") -> "Quadratic":
        """(a s + b)(other.c s + other.d) - (other.a s + other.b)(c s + d), the
        numerator of self - other over the product of the two denominators,
        built once from the integer coefficients."""
        a, b, c, d = self.a, self.b, self.c, self.d
        return Quadratic(a * other.c - other.a * c,
                         a * other.d + b * other.c - other.a * d - other.b * c,
                         b * other.d - other.b * d)

    def __str__(self) -> str:
        num = _linear_str(self.a, self.b)
        den = _linear_str(self.c, self.d)
        if (self.c, self.d) == (0, 1):
            return num
        num_p = f"({num})" if self.a != 0 and self.b != 0 else num
        den_p = f"({den})" if self.c != 0 else den
        return f"{num_p}/{den_p}"

    @classmethod
    def parse(cls, text: str) -> "LinFrac":
        """Parse curve text such as "2/(13s-11)", "4/3", "(4s+2)/(s-1)", "4*s".

        The text is a linear form in the variable (s, sigma or x) over
        integer or decimal coefficients, or two such forms divided by "/";
        a form beside "/" is one signed term or is parenthesized, and inside
        parentheses coefficients may also be fractions ("1/(s-17/18)").
        Whitespace is ignored.  Anything else raises ValueError.
        """
        s = "".join(text.split())
        m = re.fullmatch(_QUOTIENT, s)
        if m:
            num, den = m.group("num"), m.group("den") or "1"
        elif re.fullmatch(_FORM, s):
            num, den = s, "1"
        else:
            raise ValueError(f"not a curve like 4/(8s-5): {text!r}")
        return cls.of(*_linear_coeffs(num), *_linear_coeffs(den))


_NUM = r"\d+(?:\.\d+)?"
_RAT = _NUM + r"(?:/\d+)?"
_VAR = r"(?:sigma|s|x)"


def _term(num: str) -> str:
    """Regex of one unsigned term (``4s``, ``4*s``, ``s``, ``3``) over ``num``."""
    return rf"(?:(?:{num})\*?)?{_VAR}|{num}"


def _form(num: str) -> str:
    """Regex of a sum of signed terms over ``num``."""
    return rf"[+-]?(?:{_term(num)})(?:[+-](?:{_term(num)}))*"


_SIDE = rf"\({_form(_RAT)}\)|[+-]?(?:{_term(_NUM)})"
# patterns, not compiled ones: ``re`` compiles and caches each on its first
# use, so importing this module compiles none
_QUOTIENT = rf"(?P<num>{_SIDE})(?:/(?P<den>{_SIDE}))?"
_FORM = _form(_NUM)
_TERM = rf"([+-]?)({_RAT})?\*?({_VAR})?"


def _linear_coeffs(form: str) -> tuple[Fraction, Fraction]:
    """(coefficient of the variable, constant) of a form the grammar matched."""
    coeffs = [Fraction(0), Fraction(0)]
    for sign, num, var in re.findall(_TERM, form.strip("()")):
        if num or var:
            k = Fraction(num or 1)
            coeffs[0 if var else 1] += -k if sign == "-" else k
    return coeffs[0], coeffs[1]


# ---------------------------------------------------------------------------
# Quadratics and sign certificates
# ---------------------------------------------------------------------------

class Quadratic(Record):
    """q(s) = c2*s^2 + c1*s + c0 over exact rationals."""

    c2: Fraction
    c1: Fraction
    c0: Fraction

    def __post_init__(self) -> None:
        if type(self.c2) is not Fraction:
            object.__setattr__(self, "c2", Fraction(self.c2))
        if type(self.c1) is not Fraction:
            object.__setattr__(self, "c1", Fraction(self.c1))
        if type(self.c0) is not Fraction:
            object.__setattr__(self, "c0", Fraction(self.c0))

    @classmethod
    def linear(cls, c1, c0) -> "Quadratic":
        return cls(Fraction(0), rat(c1), rat(c0))

    def eval(self, s: Fraction) -> Fraction:
        if type(s) is not Fraction:
            s = Fraction(s)
        return (self.c2 * s + self.c1) * s + self.c0

    def degree(self) -> int:
        if self.c2 != 0:
            return 2
        if self.c1 != 0:
            return 1
        return 0 if self.c0 != 0 else -1

    def scale(self, k) -> "Quadratic":
        k = rat(k)
        return Quadratic(self.c2 * k, self.c1 * k, self.c0 * k)

    def __str__(self) -> str:
        parts = []
        for coeff, power in ((self.c2, "s^2"), (self.c1, "s"), (self.c0, "")):
            if coeff == 0:
                continue
            sign = "+" if coeff > 0 and parts else ""
            parts.append(f"{sign}{rat_str(coeff)}{power and '*' + power}")
        return "".join(parts) or "0"


class RootBracket(Record):
    """Isolating bracket (lo, hi) around an irrational root; width < 1e-9."""

    lo: Fraction
    hi: Fraction

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2


Root = Fraction | RootBracket


def root_key(r: Root) -> Fraction:
    """The sigma a root stands for: itself, or its bracket's midpoint."""
    return r.midpoint() if isinstance(r, RootBracket) else r


class SignCertificate(Record):
    """Exact sign determination of a quadratic on a closed interval.

    kind is one of:
      "zero"    identically zero on the interval
      "nonneg"  q >= 0 everywhere; ``roots`` are the equality points
      "nonpos"  q <= 0 everywhere; ``roots`` are the equality points
      "mixed"   sign changes; ``roots`` are the crossing points (exact
                rationals or isolating brackets)
    """

    kind: str
    roots: tuple[Root, ...] = ()


def _bisect_root(q: Quadratic, lo: Fraction, hi: Fraction) -> RootBracket:
    """Shrink a sign-changing bracket to width < BRACKET_WIDTH."""
    s_lo = _sign(q.eval(lo))
    while hi - lo >= BRACKET_WIDTH:
        mid = (lo + hi) / 2
        # q has irrational roots (its discriminant is no rational square), so never q(mid) == 0
        if _sign(q.eval(mid)) == s_lo:
            lo = mid
        else:
            hi = mid
    return RootBracket(lo, hi)


def _rational_sqrt(q: Fraction) -> Fraction | None:
    if q < 0:
        return None
    rn = math.isqrt(q.numerator)
    rd = math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def quadratic_roots_in_interval(q: Quadratic, interval: Interval) -> tuple[Root, ...]:
    """All real roots of q inside the closed interval, sorted.

    Rational roots are exact; irrational roots come back as isolating
    brackets of width < BRACKET_WIDTH fully contained in the interval's
    ambient line (bracket ends may stick out of the interval by less than
    the bracket width only when the root is interior, never spuriously).
    """
    if interval.is_empty:
        return ()
    lo, hi = interval.lo, interval.hi
    deg = q.degree()
    if deg == -1:
        raise ValueError("zero polynomial has no isolated roots")
    if deg == 0:
        return ()
    if deg == 1:
        r = -q.c0 / q.c1
        return (r,) if lo <= r <= hi else ()
    disc = q.c1 * q.c1 - 4 * q.c2 * q.c0
    if disc < 0:
        return ()
    sq = _rational_sqrt(disc)
    if sq is not None:
        r1 = (-q.c1 - sq) / (2 * q.c2)
        r2 = (-q.c1 + sq) / (2 * q.c2)
        roots = sorted({r1, r2})
        return tuple(r for r in roots if lo <= r <= hi)
    # Irrational pair: split at the vertex and bisect each sign change.
    vertex = -q.c1 / (2 * q.c2)
    cuts = [lo] + ([vertex] if lo < vertex < hi else []) + [hi]
    found: list[Root] = []
    for a, b in zip(cuts, cuts[1:]):
        sa, sb = _sign(q.eval(a)), _sign(q.eval(b))
        if sa == 0 or sb == 0:
            # Rational endpoint roots imply a rational root pair, handled above.
            raise AssertionError("unexpected exact zero in irrational branch")
        if sa != sb:
            found.append(_bisect_root(q, a, b))
    return tuple(sorted(found, key=root_key))


def quadratic_sign_on_interval(q: Quadratic, interval: Interval) -> SignCertificate:
    """Decide the sign of q on a closed interval exactly.

    Uses only the endpoint values and, when the vertex lies inside, the
    exact rational vertex value; degenerate (linear or constant) inputs
    fall through to the simpler decision.
    """
    if interval.is_empty:
        raise ValueError("sign certificate on an empty interval")
    lo, hi = interval.lo, interval.hi
    deg = q.degree()
    if deg == -1:
        return SignCertificate("zero")
    if deg == 0:
        return SignCertificate("nonneg" if q.c0 > 0 else "nonpos")

    q_lo, q_hi = q.eval(lo), q.eval(hi)
    if interval.is_point:
        s = _sign(q_lo)
        if s > 0:
            return SignCertificate("nonneg")
        if s < 0:
            return SignCertificate("nonpos")
        return SignCertificate("zero")

    candidates = [(lo, q_lo), (hi, q_hi)]
    if deg == 2:
        vertex = -q.c1 / (2 * q.c2)
        if lo < vertex < hi:
            candidates.append((vertex, q.eval(vertex)))
    values = [v for _, v in candidates]
    vmin, vmax = min(values), max(values)

    if vmin >= 0:
        zeros = tuple(sorted(x for x, v in candidates if v == 0))
        return SignCertificate("nonneg", zeros)
    if vmax <= 0:
        zeros = tuple(sorted(x for x, v in candidates if v == 0))
        return SignCertificate("nonpos", zeros)

    # Mixed sign: every root is a crossing, since a touch point would be a
    # double root, and a quadratic with a double root has one sign.
    return SignCertificate("mixed", quadratic_roots_in_interval(q, interval))


# ---------------------------------------------------------------------------
# Ordering of linear-fractional functions on an interval
# ---------------------------------------------------------------------------

class OrderCertificate(Record):
    """Exact ordering of two linear-fractional functions on an interval.

    relation is one of "le", "ge", "eq", "crosses".  For "le"/"ge" the
    ``equality_points`` list the sigmas where f = g; for "crosses" the
    ``crossings`` are the sign changes of f - g.
    """

    relation: str
    equality_points: tuple[Fraction, ...] = ()
    crossings: tuple[Root, ...] = ()


def _denominator_sign_on(f: LinFrac, interval: Interval) -> int:
    s_lo = _sign(f.denominator_at(interval.lo))
    s_hi = _sign(f.denominator_at(interval.hi))
    if s_lo == 0 or s_hi == 0 or s_lo != s_hi:
        raise SignChangeDenominator(
            f"denominator of {f} vanishes on {interval}"
        )
    return s_lo


def linfrac_compare_on_interval(f: LinFrac, g: LinFrac, interval: Interval) -> OrderCertificate:
    """Order f against g everywhere on the interval, exactly.

    Requires both denominators to keep a constant nonzero sign on the
    interval (SignChangeDenominator otherwise).  The comparison clears
    denominators to a quadratic and certifies its sign.
    """
    if interval.is_empty:
        raise ValueError("comparison on an empty interval")
    sf = _denominator_sign_on(f, interval)
    sg = _denominator_sign_on(g, interval)
    # (f - g) has the sign of num_f*den_g - num_g*den_f times sf*sg.
    cert = quadratic_sign_on_interval(f.cross_difference(g).scale(sf * sg), interval)
    if cert.kind == "zero":
        return OrderCertificate("eq")
    if cert.kind == "nonpos":
        return OrderCertificate("le", equality_points=tuple(r for r in cert.roots))
    if cert.kind == "nonneg":
        return OrderCertificate("ge", equality_points=tuple(r for r in cert.roots))
    return OrderCertificate("crosses", crossings=cert.roots)
