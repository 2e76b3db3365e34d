import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zdx.exact import (
    BRACKET_WIDTH,
    Interval,
    LinFrac,
    OrderCertificate,
    PoleError,
    Quadratic,
    RootBracket,
    SignChangeDenominator,
    linfrac_compare_on_interval,
    quadratic_roots_in_interval,
    quadratic_sign_on_interval,
    rat_str,
)
from zdx import dec_str, rat
from oracles import fraction_grid, is_nonneg, is_nonpos, minus

F = Fraction


def linear_product(a1, b1, a2, b2) -> Quadratic:
    """(a1 s + b1)(a2 s + b2)."""
    a1, b1, a2, b2 = map(F, (a1, b1, a2, b2))
    return Quadratic(a1 * a2, a1 * b2 + a2 * b1, b1 * b2)


rationals = st.fractions(max_denominator=40)
nonzero_rationals = rationals.filter(lambda q: q != 0)


# -- rationals ---------------------------------------------------------------

def test_rat_parsing():
    assert rat("17/18") == F(17, 18)
    assert rat("3") == F(3)
    assert rat("-4/6") == F(-2, 3)
    assert rat("0.95") == F(19, 20)
    with pytest.raises(ValueError):
        rat("not a number")


def test_rat_refuses_more_digits_than_python_reads():
    assert rat("1e-4299") == F(1, 10**4299)
    assert rat("9" * 4300) == 10**4300 - 1
    for text in ("1e-4300", "1e999999999", "9" * 4000 + "e400", "1/1" + "0" * 4300):
        with pytest.raises(ValueError):
            rat(text)


def test_rat_str_and_dec_str():
    assert rat_str(F(44, 31)) == "44/31"
    assert rat_str(F(4, 2)) == "2"
    assert dec_str(F(44, 31)) == "1.4193548387096774194"
    assert dec_str(F(1, 2)) == "0.5"


@given(x=rationals, y=rationals)
def test_exact_arithmetic_no_drift(x, y):
    assert (x + y) - y == x
    if y != 0:
        assert (x * y) / y == x


# -- linfrac evaluation ------------------------------------------------------

def test_eval_upper_branch():
    f = LinFrac(0, 4, 4, -1)  # 4/(4s-1)
    assert f.eval(F(1)) == F(4, 3)


def test_eval_identity():
    f = LinFrac(1, 0, 0, 1)
    assert f.eval(F(21, 22)) == F(21, 22)


def test_eval_lower_branch():
    f = LinFrac(0, 2, 13, -11)  # 2/(13s-11)
    assert f.eval(F(17, 18)) == F(36, 23)


def test_eval_pole():
    f = LinFrac(0, 4, 4, -1)
    with pytest.raises(PoleError):
        f.eval(F(1, 4))


def test_canonical_equality_is_functional_equality():
    assert LinFrac(0, 2, 13, -11) == LinFrac.of(0, F(2, 7), F(13, 7), F(-11, 7))
    assert LinFrac.of(0, -2, -13, 11) == LinFrac(0, 2, 13, -11)
    # constants collapse regardless of representation
    assert LinFrac(2, 4, 1, 2) == LinFrac.constant(2)
    assert LinFrac.constant(F(8, 3)) == LinFrac(0, 8, 0, 3)


def _reference_canonical(a: F, b: F, c: F, d: F) -> tuple[int, int, int, int]:
    """The canonical quadruple computed the long way, over Fractions."""
    if a * d == b * c:
        k = a / c if c != 0 else b / d
        return (0, k.numerator, 0, k.denominator)
    lcm = 1
    for q in (a, b, c, d):
        lcm = lcm * q.denominator // math.gcd(lcm, q.denominator)
    ia, ib, ic, id_ = (int(q * lcm) for q in (a, b, c, d))
    g = math.gcd(math.gcd(abs(ia), abs(ib)), math.gcd(abs(ic), abs(id_)))
    ia, ib, ic, id_ = ia // g, ib // g, ic // g, id_ // g
    if (ic if ic != 0 else id_) < 0:
        ia, ib, ic, id_ = -ia, -ib, -ic, -id_
    return (ia, ib, ic, id_)


@given(st.integers(-30, 30), st.integers(-30, 30), st.integers(-30, 30),
       st.integers(-30, 30), st.integers(1, 12))
@example(2, 4, 1, 2, 1)  # constant
@example(0, 6, 0, -4, 1)  # constant with a negative denominator
@example(3, 5, 0, 7, 1)  # zero c
@example(1, 2, -3, 4, 1)  # negative leading coefficient
@example(0, -5, 0, -7, 3)  # negative d with c = 0
@example(2, 4, 6, 8, 5)  # common content
@settings(max_examples=300)
def test_int_canonical_form_matches_fraction_path(a, b, c, d, content):
    a, b, c, d = (content * x for x in (a, b, c, d))
    if c == d == 0:
        with pytest.raises(ValueError):
            LinFrac(a, b, c, d)
        return
    f = LinFrac(a, b, c, d)
    assert all(type(x) is int for x in (f.a, f.b, f.c, f.d))
    assert (f.a, f.b, f.c, f.d) == _reference_canonical(F(a), F(b), F(c), F(d))
    # Fraction coefficients clear their denominators and take the same path
    g = LinFrac(F(a, 7), F(b, 3), F(c, 7 * content), F(d, 21))
    assert (g.a, g.b, g.c, g.d) == _reference_canonical(
        F(a, 7), F(b, 3), F(c, 7 * content), F(d, 21)
    )


_SMALL = st.integers(-6, 6)
_NONZERO = _SMALL.filter(bool)
#: Raw (a, b, c, d): forms, most of them non-constant; constants p/q; and
#: removable singularities k(v s + u)/(m(v s + u)), such as (s-1)/(s-1).
_QUADRUPLES = st.one_of(
    st.tuples(_SMALL, _SMALL, _SMALL, _SMALL).filter(lambda t: t[2:] != (0, 0)),
    st.tuples(_SMALL, _NONZERO).map(lambda t: (0, t[0], 0, t[1])),
    st.tuples(_SMALL, _NONZERO, _NONZERO, _SMALL).map(
        lambda t: (t[0] * t[2], t[0] * t[3], t[1] * t[2], t[1] * t[3])),
)


@given(_QUADRUPLES, _QUADRUPLES, st.booleans(), st.integers(1, 5), _NONZERO)
@example((1, -1, 1, -1), (0, 1, 0, 1), False, 1, 1)  # (s-1)/(s-1) is the constant 1
@example((1, -1, 1, -1), (2, 4, 2, 4), False, 1, 1)  # removable at 1 and at -2: both 1
@example((2, -2, 1, -1), (0, 1, 0, 1), False, 1, 1)  # 2 against 1
@example((0, 4, 8, -5), (0, 4, 8, -5), False, 3, -2)  # one form, two contents and signs
@settings(max_examples=300)
def test_equality_is_a_zero_cross_difference(f, g, same, j, k):
    # crossover() reports identical curves from f == g alone
    if same:  # g is f's coefficients times another factor
        g = f
    f, g = LinFrac(*(j * x for x in f)), LinFrac(*(k * x for x in g))
    assert (f == g) == f.cross_difference(g).is_zero


def test_parse_roundtrip():
    for text, expected in [
        ("2/(13s-11)", LinFrac(0, 2, 13, -11)),
        ("4/(4sigma-1)", LinFrac(0, 4, 4, -1)),
        ("8/3", LinFrac.constant(F(8, 3))),
        ("s", LinFrac(1, 0, 0, 1)),
        ("(4s+2)/(s-1)", LinFrac(4, 2, 1, -1)),
        ("2", LinFrac.constant(2)),
    ]:
        assert LinFrac.parse(text) == expected
    with pytest.raises(ValueError):
        LinFrac.parse("1/2/3")


@pytest.mark.parametrize("text, coeffs", [
    ("2/(13s-11)", (0, 2, 13, -11)),
    ("4/3", (0, 4, 0, 3)),
    ("(4s+2)/(s-1)", (4, 2, 1, -1)),
    ("4*s", (4, 0, 0, 1)),
    ("sigma", (1, 0, 0, 1)),
    ("x", (1, 0, 0, 1)),
    ("1/(s-0.96)", (0, 25, 25, -24)),
    ("1/(s-17/18)", (0, 18, 18, -17)),
    ("(1-s)/(s+1)", (-1, 1, 1, 1)),
    ("-4/(s-1)", (0, -4, 1, -1)),
    (" 4 / ( 8 s - 5 ) ", (0, 4, 8, -5)),
])
def test_parse_accepts_curve_text(text, coeffs):
    f = LinFrac.parse(text)
    assert (f.a, f.b, f.c, f.d) == coeffs


@pytest.mark.parametrize("text", [
    "s^2", "sigma^3", "s2", "3*s*s", "1/(s)(s)", "++s", "1/2/3",
    "s+2/3", "1/s-1", "", "()", "(s", "*s", "s*4", "4.", "2/(13s-11))",
])
def test_parse_rejects_what_the_grammar_does_not_match(text):
    with pytest.raises(ValueError):
        LinFrac.parse(text)


@given(st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50),
       st.integers(-50, 50))
@settings(max_examples=300)
def test_parse_reads_back_str(a, b, c, d):
    if c == d == 0:
        return
    f = LinFrac(a, b, c, d)
    assert LinFrac.parse(str(f)) == f


# -- comparison certificates -------------------------------------------------

def test_compare_crossover_touch_at_left_endpoint():
    f = LinFrac(0, 2, 13, -11)
    g = LinFrac(0, 4, 8, -5)
    interval = Interval(F(17, 18), F(21, 22))
    cert = linfrac_compare_on_interval(f, g, interval)
    assert cert.relation == "le"
    assert cert.equality_points == (F(17, 18),)


def test_compare_equal_everywhere():
    f = LinFrac(0, 4, 4, -1)
    cert = linfrac_compare_on_interval(f, LinFrac.of(0, 8, 8, -2), Interval(F(1, 2), F(1)))
    assert cert.relation == "eq"


def test_compare_strict():
    f = LinFrac(0, 4, 4, -1)
    g = LinFrac.constant(2)
    cert = linfrac_compare_on_interval(f, g, Interval(F(21, 22), F(1)))
    assert cert.relation == "le"
    assert cert.equality_points == ()


def test_compare_denominator_sign_change():
    f = LinFrac(0, 4, 4, -1)  # pole at 1/4
    with pytest.raises(SignChangeDenominator):
        linfrac_compare_on_interval(f, LinFrac.constant(1), Interval(F(0), F(1)))


@given(
    a=rationals, b=rationals, c=rationals, d=rationals,
    a2=rationals, b2=rationals, c2=rationals, d2=rationals,
)
@settings(max_examples=300)
def test_compare_mirror_property(a, b, c, d, a2, b2, c2, d2):
    interval = Interval(F(1, 2), F(2))
    try:
        f = LinFrac.of(a, b, c, d)
        g = LinFrac.of(a2, b2, c2, d2)
        cert_fg = linfrac_compare_on_interval(f, g, interval)
        cert_gf = linfrac_compare_on_interval(g, f, interval)
    except (ValueError, SignChangeDenominator):
        return
    mirror = {"le": "ge", "ge": "le"}.get(cert_fg.relation, cert_fg.relation)
    assert cert_gf == OrderCertificate(mirror, cert_fg.equality_points, cert_fg.crossings)


# -- quadratic sign certificates ----------------------------------------------

def test_perfect_square_nonneg():
    q = Quadratic(1, -2, 1)  # (s-1)^2
    cert = quadratic_sign_on_interval(q, Interval(F(0), F(2)))
    assert cert.kind == "nonneg"
    assert cert.roots == (F(1),)


def test_degenerate_linear():
    q = Quadratic.linear(36, -34)
    cert = quadratic_sign_on_interval(q, Interval(F(17, 18), F(1)))
    assert cert.kind == "nonneg"
    assert cert.roots == (F(17, 18),)


def test_irrational_root_bracketed():
    q = Quadratic(1, 0, -2)  # s^2 - 2
    cert = quadratic_sign_on_interval(q, Interval(F(1), F(2)))
    assert cert.kind == "mixed"
    (root,) = cert.roots
    assert isinstance(root, RootBracket)
    assert root.hi - root.lo < BRACKET_WIDTH
    # the bracket isolates sqrt(2): q changes sign across it
    assert q.eval(root.lo) < 0 < q.eval(root.hi)
    # sanity against the classical convergent 577/408 ~ sqrt(2)
    assert abs(root.midpoint() - F(577, 408)) < F(1, 10**4)


def test_rational_roots_exact():
    q = linear_product(1, -F(1, 3), 1, -F(3, 4))
    roots = quadratic_roots_in_interval(q, Interval(F(0), F(1)))
    assert roots == (F(1, 3), F(3, 4))


def test_sign_zero_polynomial():
    cert = quadratic_sign_on_interval(Quadratic(0, 0, 0), Interval(F(0), F(1)))
    assert cert.kind == "zero"
    assert is_nonneg(cert) and is_nonpos(cert)


def test_point_interval_sign():
    q = Quadratic(1, 0, -1)
    assert quadratic_sign_on_interval(q, Interval(F(1), F(1))).kind == "zero"
    assert quadratic_sign_on_interval(q, Interval(F(2), F(2))).kind == "nonneg"


# -- intervals ----------------------------------------------------------------

def test_interval_basics():
    i = Interval(F(1, 2), F(1))
    assert i.contains(F(3, 4))
    assert not i.contains(F(2))
    assert i.intersect(Interval(F(3, 4), F(2))) == Interval(F(3, 4), F(1))
    assert i.intersect(Interval(F(2), F(3))).is_empty
    assert Interval.empty().is_empty
    with pytest.raises(ValueError):
        Interval(F(1), F(0))


def test_int_and_text_inputs_become_fractions():
    i = Interval(1, "3/2")
    q = Quadratic(1, "-1/3", 2)
    for x in (i.lo, i.hi, q.c2, q.c1, q.c0):
        assert type(x) is F
    assert (i.lo, i.hi) == (F(1), F(3, 2))
    assert (q.c2, q.c1, q.c0) == (F(1), F(-1, 3), F(2))
    assert type(q.eval(3)) is F and q.eval(3) == F(10)
    assert type(Interval(2, 2).lo) is F


def test_interval_grid():
    xs, w = Interval(F(0), F(1)).integer_grid(4)
    assert [F(x, w) for x in xs] == [F(0), F(1, 4), F(1, 2), F(3, 4), F(1)]
    assert list(Interval.empty().integer_grid(10)[0]) == []
    assert Interval(F(1), F(1)).integer_grid(5) == (range(1, 2), 1)


#: A rational in [1/2, 1] with a denominator up to 10^6.
half_to_one = st.integers(1, 10**6).flatmap(
    lambda den: st.integers((den + 1) // 2, den).map(lambda num: F(num, den)))


@st.composite
def sub_intervals(draw):
    """An interval inside [1/2, 1], a point one time in four."""
    lo = draw(half_to_one)
    hi = lo if draw(st.integers(0, 3)) == 0 else draw(half_to_one)
    return Interval(min(lo, hi), max(lo, hi))


@settings(max_examples=200, deadline=None)
@given(sub_intervals(), st.integers(1, 1000), st.data())
def test_integer_grid_matches_the_fraction_grid(interval, steps, data):
    # x / w is lo + k (hi - lo) / steps, and holding by span is holding by contains
    xs, w = interval.integer_grid(steps)
    assert w > 0
    grid = [F(x, w) for x in xs]
    assert grid == fraction_grid(interval, steps)
    # region ends on a grid point, one step of 1/w off one, or anywhere in [1/2, 1]
    near = st.sampled_from(xs).flatmap(lambda x: st.sampled_from([F(x - 1, w), F(x, w),
                                                                   F(x + 1, w)]))
    ends = sorted(data.draw(st.lists(near | half_to_one, min_size=2, max_size=2)))
    for region in (Interval(*ends), Interval.empty()):
        lo, hi = region.span(w)
        assert [lo <= x <= hi for x in xs] == [region.contains(sigma) for sigma in grid]


def test_empty_interval_not_silent():
    # explicit empties compare equal
    assert Interval.empty() == Interval.empty()


# -- bulk consistency: certificates never contradict sampling -----------------

def _sample_consistency(trial_rng: random.Random) -> None:
    def coeffs():
        return [trial_rng.randint(-9, 9) for _ in range(4)]

    a, b, c, d = coeffs()
    a2, b2, c2, d2 = coeffs()
    if (c, d) == (0, 0) or (c2, d2) == (0, 0):
        return
    lo = F(trial_rng.randint(-20, 20), trial_rng.randint(1, 10))
    hi = lo + F(trial_rng.randint(1, 30), trial_rng.randint(1, 10))
    interval = Interval(lo, hi)
    f, g = LinFrac(a, b, c, d), LinFrac(a2, b2, c2, d2)
    try:
        cert = linfrac_compare_on_interval(f, g, interval)
    except SignChangeDenominator:
        return

    # integer-cleared difference quadratic: sign(f-g) = sign(q) on interval
    sf = 1 if f.denominator_at(lo) > 0 else -1
    sg = 1 if g.denominator_at(lo) > 0 else -1
    q = minus(linear_product(f.a, f.b, g.c, g.d), linear_product(g.a, g.b, f.c, f.d))
    assert f.cross_difference(g) == q
    q = q.scale(sf * sg)
    # sample 100 rational points via integer arithmetic
    num_lo, num_hi = lo.numerator * hi.denominator, hi.numerator * lo.denominator
    den = lo.denominator * hi.denominator
    ic2, ic1, ic0 = q.c2, q.c1, q.c0
    signs = []
    for k in range(100):
        # sigma = (num_lo*(99-k) + num_hi*k) / (99*den)
        p = num_lo * (99 - k) + num_hi * k
        qd = 99 * den
        val = ic2 * p * p + ic1 * p * qd + ic0 * qd * qd
        signs.append((val > 0) - (val < 0))

    if cert.relation == "eq":
        assert all(s == 0 for s in signs)
    elif cert.relation == "le":
        assert all(s <= 0 for s in signs)
    elif cert.relation == "ge":
        assert all(s >= 0 for s in signs)
    else:
        # every sign change along the samples must contain a certified crossing
        step = (hi - lo) / 99
        changes = 0
        for k in range(99):
            if signs[k] != 0 and signs[k + 1] != 0 and signs[k] != signs[k + 1]:
                changes += 1
                left, right = lo + k * step, lo + (k + 1) * step
                ok = False
                for r in cert.crossings:
                    x0 = r.lo if isinstance(r, RootBracket) else r
                    x1 = r.hi if isinstance(r, RootBracket) else r
                    if x1 >= left and x0 <= right:
                        ok = True
                assert ok, f"sign change in [{left},{right}] without certified crossing"
        assert changes <= len(cert.crossings)


def test_sampling_never_contradicts_certificates():
    rng = random.Random(20260810)
    for _ in range(10_000):
        _sample_consistency(rng)
