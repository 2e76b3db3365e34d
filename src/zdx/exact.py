"""Exact rational substrate: linear-fractional functions of one variable,
closed rational intervals, and sign certificates for quadratics.

Every decision made here is exact; floats never participate.  Irrational
crossing points are the only non-rational objects, and they are reported
as isolating brackets of width below ``BRACKET_WIDTH``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction

__all__ = [
    "BRACKET_WIDTH",
    "PoleError",
    "SignChangeDenominator",
    "rat",
    "rat_str",
    "dec_str",
    "Interval",
    "LinFrac",
    "Quadratic",
    "RootBracket",
    "SignCertificate",
    "OrderCertificate",
    "linfrac_eval",
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


def rat(x: Fraction | int | str) -> Fraction:
    """Parse an exact rational from "p/q", integer, or decimal text."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    return Fraction(str(x).strip())


def rat_str(q: Fraction) -> str:
    """Render a rational as "p/q", or "p" when the denominator is 1."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def dec_str(q: Fraction, digits: int = 20) -> str:
    """Decimal rendering with ``digits`` significant digits (deterministic)."""
    q = Fraction(q)
    with localcontext() as ctx:
        ctx.prec = digits
        d = Decimal(q.numerator) / Decimal(q.denominator)
    return str(d)


def _sign(q: Fraction) -> int:
    return (q > 0) - (q < 0)


# ---------------------------------------------------------------------------
# Intervals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Interval:
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

    @classmethod
    def point(cls, x: Fraction) -> "Interval":
        x = Fraction(x)
        return cls(x, x)

    def contains(self, x: Fraction) -> bool:
        return not self.is_empty and self.lo <= x <= self.hi

    @property
    def width(self) -> Fraction:
        if self.is_empty:
            return Fraction(0)
        return self.hi - self.lo

    @property
    def is_point(self) -> bool:
        return not self.is_empty and self.lo == self.hi

    def midpoint(self) -> Fraction:
        if self.is_empty:
            raise ValueError("empty interval has no midpoint")
        return (self.lo + self.hi) / 2

    def intersect(self, other: "Interval") -> "Interval":
        if self.is_empty or other.is_empty:
            return Interval.empty()
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if lo > hi:
            return Interval.empty()
        return Interval(lo, hi)

    def grid(self, resolution: int) -> list[Fraction]:
        """resolution+1 equally spaced rational points, endpoints included."""
        if resolution < 0:
            raise ValueError("resolution must be >= 0")
        if self.is_empty:
            return []
        if resolution == 0 or self.is_point:
            return [self.lo]
        step = (self.hi - self.lo) / resolution
        return [self.lo + k * step for k in range(resolution + 1)]

    def __str__(self) -> str:
        if self.is_empty:
            return "[]"
        return f"[{rat_str(self.lo)}, {rat_str(self.hi)}]"


# ---------------------------------------------------------------------------
# Linear-fractional functions
# ---------------------------------------------------------------------------

def _canonical_coeffs(a: Fraction, b: Fraction, c: Fraction, d: Fraction) -> tuple[int, int, int, int]:
    """Canonical integer quadruple: content 1, leading denominator
    coefficient positive, constants collapsed to (0, p, 0, q)."""
    if c == 0 and d == 0:
        raise ValueError("linear-fractional denominator is identically zero")
    # a*d == b*c means the function is constant wherever it is defined.
    if a * d == b * c:
        k = a / c if c != 0 else b / d
        return (0, k.numerator, 0, k.denominator)
    lcm = 1
    for q in (a, b, c, d):
        lcm = lcm * q.denominator // math.gcd(lcm, q.denominator)
    ia, ib, ic, id_ = (int(q * lcm) for q in (a, b, c, d))
    g = math.gcd(math.gcd(abs(ia), abs(ib)), math.gcd(abs(ic), abs(id_)))
    ia, ib, ic, id_ = ia // g, ib // g, ic // g, id_ // g
    lead = ic if ic != 0 else id_
    if lead < 0:
        ia, ib, ic, id_ = -ia, -ib, -ic, -id_
    return (ia, ib, ic, id_)


def _canonical_ints(a: int, b: int, c: int, d: int) -> tuple[int, int, int, int]:
    """``_canonical_coeffs`` for integer coefficients, without Fractions."""
    if c == 0 and d == 0:
        raise ValueError("linear-fractional denominator is identically zero")
    if a * d == b * c:
        k = Fraction(a, c) if c != 0 else Fraction(b, d)
        return (0, k.numerator, 0, k.denominator)
    g = math.gcd(a, b, c, d)
    if (c if c != 0 else d) < 0:
        g = -g
    return (a // g, b // g, c // g, d // g)


def _linear_str(p: int, q: int, var: str = "s") -> str:
    """Render p*var + q compactly."""
    if p == 0:
        return str(q)
    if p == 1:
        head = var
    elif p == -1:
        head = f"-{var}"
    else:
        head = f"{p}{var}"
    if q == 0:
        return head
    return f"{head}{'+' if q > 0 else '-'}{abs(q)}"


@dataclass(frozen=True)
class LinFrac:
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
        if type(self.a) is type(self.b) is type(self.c) is type(self.d) is int:
            ca, cb, cc, cd = _canonical_ints(self.a, self.b, self.c, self.d)
        else:
            ca, cb, cc, cd = _canonical_coeffs(
                Fraction(self.a), Fraction(self.b), Fraction(self.c), Fraction(self.d)
            )
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

    @classmethod
    def identity(cls) -> "LinFrac":
        return cls(1, 0, 0, 1)

    @property
    def is_constant(self) -> bool:
        return self.a == 0 and self.c == 0

    def eval(self, sigma: Fraction) -> Fraction:
        if type(sigma) is not Fraction:
            sigma = Fraction(sigma)
        den = self.c * sigma + self.d
        if den == 0:
            raise PoleError(f"{self} has a pole at sigma = {rat_str(sigma)}")
        return (self.a * sigma + self.b) / den

    def denominator_at(self, sigma: Fraction) -> Fraction:
        return self.c * Fraction(sigma) + self.d

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
        """Parse "(a s + b)/(c s + d)" style text with integer coefficients.

        Accepts "2/(13s-11)", "4/3", "s", "(4s+2)/(s-1)"; the variable may
        be written s, sigma, or x.
        """
        s = text.strip().replace(" ", "")
        s = s.replace("sigma", "s").replace("x", "s").replace("*", "")
        depth = 0
        split_at = -1
        for i, ch in enumerate(s):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif ch == "/" and depth == 0:
                if split_at >= 0:
                    raise ValueError(f"more than one top-level '/' in {text!r}")
                split_at = i
        if split_at >= 0:
            num_text, den_text = s[:split_at], s[split_at + 1:]
        else:
            num_text, den_text = s, "1"
        na, nb = _parse_linear(num_text, text)
        da, db = _parse_linear(den_text, text)
        return cls.of(na, nb, da, db)


_TERM_RE = re.compile(r"[+-]?[^+-]+")


def _parse_linear(part: str, original: str) -> tuple[Fraction, Fraction]:
    part = part.strip()
    if part.startswith("(") and part.endswith(")"):
        part = part[1:-1]
    if not part:
        raise ValueError(f"empty term in {original!r}")
    coeff_s = Fraction(0)
    coeff_1 = Fraction(0)
    for m in _TERM_RE.finditer(part):
        term = m.group(0)
        if "s" in term:
            head = term[: term.index("s")]
            if head in ("", "+"):
                coeff_s += 1
            elif head == "-":
                coeff_s -= 1
            else:
                coeff_s += Fraction(head)
        else:
            coeff_1 += Fraction(term)
    return coeff_s, coeff_1


def linfrac_eval(f: LinFrac, sigma: Fraction) -> Fraction:
    """Exact value of f at sigma; PoleError if the denominator vanishes."""
    return f.eval(sigma)


# ---------------------------------------------------------------------------
# Quadratics and sign certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Quadratic:
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

    @classmethod
    def const(cls, c0) -> "Quadratic":
        return cls(Fraction(0), Fraction(0), rat(c0))

    @classmethod
    def from_linear_product(cls, a1, b1, a2, b2) -> "Quadratic":
        """(a1 s + b1)(a2 s + b2)."""
        a1, b1, a2, b2 = rat(a1), rat(b1), rat(a2), rat(b2)
        return cls(a1 * a2, a1 * b2 + a2 * b1, b1 * b2)

    def eval(self, s: Fraction) -> Fraction:
        if type(s) is not Fraction:
            s = Fraction(s)
        return (self.c2 * s + self.c1) * s + self.c0

    @property
    def is_zero(self) -> bool:
        return self.c2 == 0 and self.c1 == 0 and self.c0 == 0

    def degree(self) -> int:
        if self.c2 != 0:
            return 2
        if self.c1 != 0:
            return 1
        return 0 if self.c0 != 0 else -1

    def __add__(self, other: "Quadratic") -> "Quadratic":
        return Quadratic(self.c2 + other.c2, self.c1 + other.c1, self.c0 + other.c0)

    def __sub__(self, other: "Quadratic") -> "Quadratic":
        return Quadratic(self.c2 - other.c2, self.c1 - other.c1, self.c0 - other.c0)

    def __neg__(self) -> "Quadratic":
        return Quadratic(-self.c2, -self.c1, -self.c0)

    def scale(self, k) -> "Quadratic":
        k = rat(k)
        return Quadratic(self.c2 * k, self.c1 * k, self.c0 * k)

    def __str__(self) -> str:
        parts = []
        for coeff, power in ((self.c2, "s^2"), (self.c1, "s"), (self.c0, "")):
            if coeff == 0:
                continue
            parts.append(f"{'+' if coeff > 0 and parts else ''}{rat_str(coeff)}{power and '*' + power}")
        return "".join(parts) or "0"


@dataclass(frozen=True)
class RootBracket:
    """Isolating bracket (lo, hi) around an irrational root; width < 1e-9."""

    lo: Fraction
    hi: Fraction

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2


Root = Fraction | RootBracket


def _root_key(r: Root) -> Fraction:
    return r.midpoint() if isinstance(r, RootBracket) else r


@dataclass(frozen=True)
class SignCertificate:
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

    @property
    def is_nonneg(self) -> bool:
        return self.kind in ("zero", "nonneg")

    @property
    def is_nonpos(self) -> bool:
        return self.kind in ("zero", "nonpos")


def _bisect_root(q: Quadratic, lo: Fraction, hi: Fraction) -> RootBracket:
    """Shrink a sign-changing bracket to width < BRACKET_WIDTH."""
    s_lo = _sign(q.eval(lo))
    while hi - lo >= BRACKET_WIDTH:
        mid = (lo + hi) / 2
        s_mid = _sign(q.eval(mid))
        if s_mid == 0:
            # q is rational at rational points, so a zero here would have
            # been caught by the exact-root path; defensive narrowing.
            eps = (hi - lo) / 4
            lo, hi = mid - eps, mid + eps
            continue
        if s_mid == s_lo:
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
    return tuple(sorted(found, key=_root_key))


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

    # Mixed sign: report the crossing points.
    roots = quadratic_roots_in_interval(q, interval)
    crossings: list[Root] = []
    for r in roots:
        if isinstance(r, RootBracket):
            crossings.append(r)
            continue
        # Exact root: it is a crossing unless the sign is the same on both
        # sides (a touch point), which for a quadratic means a double root,
        # and a double root cannot produce mixed signs.
        crossings.append(r)
    return SignCertificate("mixed", tuple(crossings))


# ---------------------------------------------------------------------------
# Ordering of linear-fractional functions on an interval
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OrderCertificate:
    """Exact ordering of two linear-fractional functions on an interval.

    relation is one of "le", "ge", "eq", "crosses".  For "le"/"ge" the
    ``equality_points`` list the sigmas where f = g; for "crosses" the
    ``crossings`` are the sign changes of f - g.
    """

    relation: str
    equality_points: tuple[Fraction, ...] = ()
    crossings: tuple[Root, ...] = ()

    def mirrored(self) -> "OrderCertificate":
        rel = {"le": "ge", "ge": "le"}.get(self.relation, self.relation)
        return OrderCertificate(rel, self.equality_points, self.crossings)


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
    diff = Quadratic.from_linear_product(f.a, f.b, g.c, g.d) - Quadratic.from_linear_product(
        g.a, g.b, f.c, f.d
    )
    cert = quadratic_sign_on_interval(diff.scale(sf * sg), interval)
    if cert.kind == "zero":
        return OrderCertificate("eq")
    if cert.kind == "nonpos":
        return OrderCertificate("le", equality_points=tuple(r for r in cert.roots))
    if cert.kind == "nonneg":
        return OrderCertificate("ge", equality_points=tuple(r for r in cert.roots))
    return OrderCertificate("crosses", crossings=cert.roots)
