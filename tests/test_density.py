from fractions import Fraction

import pytest

from zdx import density
from zdx.density import (
    BoundCurve,
    EmptyRegion,
    InadmissiblePair,
    Provenance,
    audit_balance,
    baseline_curves,
    bound_table_rows,
    candidate_curves,
    continuity_check,
    crossover,
    exponent_curve,
    optimize,
    piecewise_to_json_obj,
    regions_for,
)
from zdx.exact import (
    Interval,
    LinFrac,
    Quadratic,
    linfrac_compare_on_interval,
    quadratic_sign_on_interval,
)
from zdx.pairs import ExponentPair, generate_pairs

F = Fraction

PAIR_114 = ExponentPair(F(1, 14), F(11, 14), "AAB")
PAIR_16 = ExponentPair(F(1, 6), F(2, 3), "AB")
WIDE = Interval(F(13, 15), F(1))


@pytest.fixture(scope="module")
def depth12():
    return generate_pairs(12)


@pytest.fixture(scope="module")
def depth13():
    return generate_pairs(13)


def admissible(family):
    return [p for p in family if p.kappa < F(1, 3)]


# -- regions -------------------------------------------------------------------

def test_regions_headline_pair():
    regions = regions_for(PAIR_114)
    assert regions.region1 == Interval(F(21, 22), F(1))
    assert regions.region2 == Interval(F(13, 15), F(21, 22))


def test_regions_seed_pair_degenerate_points():
    regions = regions_for(ExponentPair(F(0), F(1)))
    assert regions.region1 == Interval.point(F(1))
    assert regions.region2 == Interval.point(F(1))


def test_regions_inadmissible():
    with pytest.raises(InadmissiblePair):
        regions_for(ExponentPair(F(1, 2), F(1, 2)))


def test_region_emptiness_flags_not_dropped():
    # B(1/14, 11/14) = (2/7, 4/7) has lambda + 2 kappa > 1: region 1 empty
    p = ExponentPair(F(2, 7), F(4, 7))
    regions = regions_for(p)
    assert regions.region1.is_empty
    assert not regions.region2.is_empty


# -- exponent curves ------------------------------------------------------------

def test_exponent_curve_region2_matches_two_branch_form():
    curve = exponent_curve(PAIR_114, 2)
    assert curve.A == LinFrac(0, 2, 13, -11)


def test_exponent_curve_region1_values():
    curve = exponent_curve(PAIR_114, 1)
    assert curve.eval_A(F(21, 22)) == F(44, 31)
    assert curve.eval_E(F(21, 22)) == F(2, 31)


def test_exponent_e_vanishes_at_one(depth12):
    for p in admissible(depth12):
        for region in (1, 2):
            try:
                curve = exponent_curve(p, region)
            except (EmptyRegion, InadmissiblePair):
                continue
            if curve.region.contains(F(1)):
                assert curve.eval_E(F(1)) == 0
            # structural: E numerator has (1 - sigma) as a factor
            assert curve.e_num.eval(F(1)) == 0


def test_exponent_curve_empty_region():
    p = ExponentPair(F(2, 7), F(4, 7))
    with pytest.raises(EmptyRegion):
        exponent_curve(p, 1)


def test_exponent_curve_kappa_zero_region2_degenerate():
    with pytest.raises(InadmissiblePair):
        exponent_curve(ExponentPair(F(0), F(1)), 2)


def test_e_monotone_decreasing_on_regions(depth12):
    # sign of the derivative numerator of E = num/den: num' den - num den'
    for p in admissible(depth12):
        if p.kappa == 0:
            continue
        for region in (1, 2):
            try:
                curve = exponent_curve(p, region)
            except EmptyRegion:
                continue
            if curve.region.is_point:
                continue
            n, d = curve.e_num, curve.e_den
            dn = Quadratic.linear(2 * n.c2, n.c1)  # E numerator derivative
            # derivative numerator of n/d: n' d - n d', both products deg <= 2
            prod1 = Quadratic(dn.c1 * d.c1, dn.c1 * d.c0 + dn.c0 * d.c1, dn.c0 * d.c0)
            prod2 = Quadratic(n.c2 * d.c1, n.c1 * d.c1, n.c0 * d.c1)
            deriv_num = prod1 - prod2
            cert = quadratic_sign_on_interval(deriv_num, curve.region)
            assert cert.kind == "nonpos" and cert.roots == (), (p, region)


# -- continuity ------------------------------------------------------------------

def test_continuity_headline_pair():
    rep = continuity_check(PAIR_114)
    assert rep.status == "ok"
    assert rep.sigma_star == F(21, 22)
    assert rep.shared_value == F(44, 31)


def test_continuity_16():
    assert continuity_check(PAIR_16).status == "ok"


def test_continuity_skips_degenerate():
    rep = continuity_check(ExponentPair(F(0), F(1)))
    assert rep.status == "skipped"
    assert "kappa" in rep.note
    p = ExponentPair(F(2, 7), F(4, 7))
    rep = continuity_check(p)
    assert rep.status == "skipped"
    assert "EmptyRegion" in rep.note


def test_continuity_family_closed_form(depth12):
    for p in admissible(depth12):
        rep = continuity_check(p)
        if rep.status != "ok":
            continue
        k, l = p.kappa, p.lam
        assert rep.shared_value == 4 * (2 - 6 * k) / (2 + 4 * l - 10 * k)


# -- audit ------------------------------------------------------------------------

def test_audit_spot_value_region1():
    rep = audit_balance(PAIR_114, 1)
    s = F(24, 25)
    assert rep.y.eval(s) == F(50, 71)
    assert rep.term_value("class1_main", s) == F(4, 71)
    assert rep.term_value("class1_subdivision", s) == F(1, 71)
    assert rep.term_value("class2_moment", s) == F(4, 71)
    assert rep.exponent_value(s) == F(4, 71)
    assert rep.passed


def test_audit_region1_at_one():
    rep = audit_balance(PAIR_114, 1)
    assert rep.y.eval(F(1)) == F(2, 3)
    assert rep.term_value("class1_main", F(1)) == 0
    assert rep.term_value("class2_moment", F(1)) == 0
    assert rep.exponent_value(F(1)) == 0


def test_audit_region2_subdivision_tight_at_left_endpoint():
    rep = audit_balance(PAIR_16, 2)
    left = regions_for(PAIR_16).left2
    assert left == F(11, 14)
    assert rep.term_value("class1_subdivision", left) == rep.exponent_value(left)


def test_audit_t0_exponent_expression():
    rep = audit_balance(PAIR_114, 1)
    # (2 sigma - 1 - (lambda - kappa)) / kappa at sigma = 24/25: (36/175)*14 = 72/25
    assert rep.t0_exponent.eval(F(24, 25)) == F(36, 175) * 14


def test_audit_rejects_kappa_zero():
    with pytest.raises(InadmissiblePair):
        audit_balance(ExponentPair(F(0), F(1)), 1)


def test_audit_empty_region():
    with pytest.raises(EmptyRegion):
        audit_balance(ExponentPair(F(2, 7), F(4, 7)), 1)


def test_audit_family_grid_consistency(depth12):
    # spot pairs on a 1000-point rational grid: max of terms equals E
    sample = [PAIR_114, PAIR_16, ExponentPair(F(2, 7), F(4, 7)),
              ExponentPair(F(1, 30), F(13, 15), "AAAB")]
    for p in sample:
        regions = regions_for(p)
        for region in (1, 2):
            if regions.region(region).is_empty:
                continue
            rep = audit_balance(p, region)
            for sigma in rep.region.grid(1000):
                terms = [rep.term_value(t.label, sigma) for t in rep.terms]
                assert max(terms) == rep.exponent_value(sigma)


def test_balance_violation_carries_witness():
    # Force a violation by auditing a region extended beyond sigma_star:
    # the sixth-moment term exceeds E to the right of sigma_star.
    from zdx.density import _positive_witness
    from zdx.exact import quadratic_sign_on_interval

    rep = audit_balance(PAIR_114, 2)
    beyond = Interval(rep.region.lo, rep.region.hi + F(1, 50))
    diff = rep.terms[2].num - rep.e_num
    cert = quadratic_sign_on_interval(diff, beyond)
    assert cert.kind == "mixed"
    witness = _positive_witness(diff, beyond, cert)
    assert diff.eval(witness) > 0


# -- baselines and crossovers ------------------------------------------------------

def test_baselines():
    b83, b92, hyp = baseline_curves()
    assert b83.eval_E(F(1)) == 0
    assert b92.eval_A(F(11, 12)) == F(12, 7)
    assert b92.eval_E(F(1)) == 0
    assert hyp.eval_A(F(3, 4)) == 2
    assert hyp.provenance.conjectural
    assert b92.region == Interval(F(11, 12), F(1))


def test_crossover_exact_endpoints():
    region2 = exponent_curve(PAIR_114, 2)
    region1 = exponent_curve(PAIR_114, 1)
    _, b92, _ = baseline_curves()
    cx = crossover(region2, b92)
    assert cx.kind == "points" and cx.points == (F(17, 18),)
    cx = crossover(region1, region2)
    assert cx.kind == "points" and cx.points == (F(21, 22),)


def test_crossover_identical():
    c1 = exponent_curve(PAIR_114, 1)
    c2 = BoundCurve.from_A(LinFrac(0, 4, 4, -1), Interval(F(9, 10), F(1)), Provenance("x"))
    assert crossover(c1, c2).kind == "identical"


def test_crossover_requires_overlap():
    c1 = exponent_curve(PAIR_114, 1)
    c2 = BoundCurve.from_A(LinFrac.constant(2), Interval(F(1, 2), F(2, 3)), Provenance("x"))
    with pytest.raises(ValueError):
        crossover(c1, c2)


# -- optimizer ----------------------------------------------------------------------

def test_optimize_headline_reproduction():
    fam = generate_pairs(3)
    bound = optimize(fam, Interval(F(17, 18), F(1)))
    assert len(bound) == 2
    s1, s2 = bound.segments
    assert s1.region == Interval(F(17, 18), F(21, 22))
    assert s1.curve.A == LinFrac(0, 2, 13, -11)
    assert s1.curve.provenance.pair.key == (F(1, 14), F(11, 14))
    assert s2.region == Interval(F(21, 22), F(1))
    assert s2.curve.A == LinFrac(0, 4, 4, -1)
    assert s2.curve.provenance.pair.key == (F(1, 14), F(11, 14))


def test_optimize_single_branches():
    fam = generate_pairs(3)
    weyl = optimize(fam, Interval(F(21, 22), F(1)))
    assert len(weyl) == 1
    assert weyl.segments[0].curve.A == LinFrac(0, 4, 4, -1)
    mid = optimize(fam, Interval(F(17, 18), F(21, 22)))
    assert len(mid) == 1
    assert mid.segments[0].curve.A == LinFrac(0, 2, 13, -11)


def test_optimize_empty_interval():
    fam = generate_pairs(2)
    assert optimize(fam, Interval.empty()).segments == ()


def test_optimize_point_interval():
    bound = optimize(generate_pairs(3), Interval.point(F(17, 18)))
    assert [seg.region for seg in bound] == [Interval.point(F(17, 18))]
    assert bound.eval_E(F(17, 18)) == exponent_curve(PAIR_114, 2).eval_E(F(17, 18))


def test_optimize_dominance(depth13):
    # every segment is certified <= every candidate on their whole overlap;
    # depth 13 has a winner narrower than a 256-point grid step
    bound = optimize(depth13, WIDE)
    curves = candidate_curves(depth13)
    for seg in bound:
        for c in curves:
            overlap = seg.region.intersect(c.region)
            if overlap.is_empty:
                continue
            if overlap.is_point:
                assert bound.eval_E(overlap.lo) <= c.eval_E(overlap.lo)
            else:
                cert = linfrac_compare_on_interval(seg.curve.A, c.A, overlap)
                assert cert.relation in ("le", "eq"), (str(seg.curve), str(c))


@pytest.mark.parametrize("depth", [9, 13])
def test_optimize_provenance_replays(depth):
    for seg in optimize(generate_pairs(depth), WIDE):
        prov = seg.curve.provenance
        if prov.pair is None:
            continue
        region = regions_for(prov.pair).region(prov.region)
        assert region.contains(seg.region.lo) and region.contains(seg.region.hi), str(seg.curve)
        assert exponent_curve(prov.pair, prov.region).A == seg.curve.A


@pytest.mark.parametrize("depth,count", [(3, 4), (9, 11), (12, 23), (13, 30), (15, 52)])
def test_optimize_segment_counts(depth, count):
    assert len(optimize(generate_pairs(depth), WIDE)) == count


def test_optimize_point_at_discontinuity(depth12):
    # the bound jumps down to ivic-1992 where its region starts
    bound = optimize(depth12, WIDE)
    seg = bound.segment_at(F(11, 12))
    assert seg.curve.provenance.label == "ivic-1992"
    assert bound.eval_E(F(11, 12)) == F(1, 7)
    # a continuous boundary keeps the left segment
    headline = optimize(generate_pairs(3), Interval(F(17, 18), F(1)))
    assert headline.segment_at(F(21, 22)).curve.A == LinFrac(0, 2, 13, -11)


def test_optimize_rejects_interval_outside_domain():
    fam = generate_pairs(2)
    for lo, hi in ((F(0), F(1, 4)), (F(1, 2), F(2)), (F(2, 5), F(1))):
        with pytest.raises(ValueError):
            optimize(fam, Interval(lo, hi))


def test_optimize_rejects_candidate_of_other_form(monkeypatch):
    bad = BoundCurve.from_A(LinFrac(1, 1, 0, 1), Interval(F(1, 2), F(1)), Provenance("s+1"))
    monkeypatch.setattr(density, "baseline_curves", lambda: (bad,))
    with pytest.raises(ValueError):
        optimize(generate_pairs(2), Interval(F(17, 18), F(1)))


def test_optimize_improves_baselines(depth12):
    interval = Interval(F(21, 22), F(1))
    bound = optimize(depth12, interval)
    for sigma in interval.grid(64):
        e = bound.eval_E(sigma)
        assert e <= F(8, 3) * (1 - sigma)
        assert e <= 4 * (1 - sigma) / (8 * sigma - 5)


def test_optimize_segments_adjacent(depth12):
    bound = optimize(depth12, Interval(F(13, 15), F(1)))
    assert bound.segments[0].region.lo == F(13, 15)
    assert bound.segments[-1].region.hi == F(1)
    for a, b in zip(bound.segments, bound.segments[1:]):
        assert a.region.hi == b.region.lo


# -- serialization -------------------------------------------------------------------

def test_bound_table_rows():
    fam = generate_pairs(3)
    bound = optimize(fam, Interval(F(17, 18), F(1)))
    rows = bound_table_rows(bound, 4)
    assert rows[0]["sigma"] == "17/18"
    assert rows[0]["A_num"] == "36" and rows[0]["A_den"] == "23"
    assert rows[0]["winner_kappa"] == "1/14"
    assert rows[-1]["sigma"] == "1"
    assert rows[-1]["E_decimal"] == "0"
    assert rows[-1]["region"] == "1"


def test_piecewise_json():
    fam = generate_pairs(3)
    bound = optimize(fam, Interval(F(17, 18), F(1)))
    obj = piecewise_to_json_obj(bound)
    assert obj["interval"] == {"lo": "17/18", "hi": "1"}
    assert obj["segments"][0]["A"]["text"] == "2/(13s-11)"
    assert obj["segments"][1]["lo"] == "21/22"
