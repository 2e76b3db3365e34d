from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from zdx import svg
from zdx.density import BoundCurve, Provenance, optimize
from zdx.exact import Interval, LinFrac
from zdx.pairs import generate_pairs
from oracles import bound_E, fraction_grid

F = Fraction


@st.composite
def sigmas(draw):
    """A rational in [1/2, 1], often 1/2 or 1, with denominators up to 10^30."""
    if draw(st.booleans()):
        return draw(st.sampled_from([F(1, 2), F(1)]))
    den = draw(st.integers(1, 10**30))
    return F(draw(st.integers((den + 1) // 2, den)), den)


@st.composite
def intervals(draw):
    lo, hi = sorted((draw(sigmas()), draw(sigmas())))
    return Interval(lo, hi)


coefficients = st.integers(-10**20, 10**20)


@st.composite
def curves(draw):
    """An integer LinFrac on a region inside [1/2, 1], often a constant."""
    if draw(st.booleans()):
        A = LinFrac.constant(F(draw(coefficients), draw(st.integers(1, 10**20))))
    else:
        a, b, c, d = (draw(coefficients) for _ in range(4))
        assume((c, d) != (0, 0))
        A = LinFrac(a, b, c, d)
    return BoundCurve(A, draw(intervals()), Provenance("test"))


@settings(max_examples=300, deadline=None)
@given(curves(), intervals(), st.integers(1, 40))
@example(BoundCurve(LinFrac.constant(F(8, 3)), Interval(F(1, 2), F(1)), Provenance("8/3")),
         Interval(F(1, 2), F(1)), 7)
@example(BoundCurve(LinFrac(0, 4, 8, -5), Interval(F(11, 12), F(1)), Provenance("1992")),
         Interval(F(10**29 + 1, 10**30 + 3) + F(1, 2), F(1)), 13)
def test_sampled_E_is_float_of_exact_E(curve, interval, steps):
    xs, w = interval.integer_grid(steps)
    held = [sigma for sigma in fraction_grid(interval, steps) if curve.region.contains(sigma)]
    assume(all(curve.A.denominator_at(sigma) != 0 for sigma in held))
    want = [(float(sigma), float(curve.eval_E(sigma))) for sigma in held]
    assert svg._sample_curve(curve, xs, w) == want


@pytest.mark.parametrize("interval", [Interval(F(13, 15), F(1)), Interval(F(1, 2), F(1))])
def test_sampled_envelope_is_float_of_exact_E(interval):
    bound = optimize(generate_pairs(12), interval)
    grid = fraction_grid(interval, svg.PLOT_SAMPLES - 1)
    want = [(float(sigma), float(bound_E(bound, sigma))) for sigma in grid]
    assert svg._sample_envelope(bound, *interval.integer_grid(svg.PLOT_SAMPLES - 1)) == want



def test_sampled_curve_skips_an_empty_region():
    # an empty region holds no point, not even the grid's 0 that its stored ends 0, 0 span
    curve = BoundCurve(LinFrac.constant(2), Interval.empty(), Provenance("empty"))
    assert svg._sample_curve(curve, *Interval(F(-1), F(1)).integer_grid(4)) == []
