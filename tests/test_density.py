import csv
import io
import random
from fractions import Fraction

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zdx import density, hull
from zdx.cli import cli
from zdx.density import (
    BoundCurve,
    EmptyRegion,
    FamilyAudit,
    InadmissiblePair,
    PiecewiseBound,
    Provenance,
    Segment,
    audit_balance,
    audit_family,
    baseline_crossovers,
    baseline_curves,
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
    rat_str,
)
from zdx.pairs import ExponentPair, PairFamily, closure, generate_pairs
from oracles import (
    bound_E,
    e_num,
    exponent_value,
    fraction_grid,
    is_nonpos,
    is_zero,
    minus,
    numerators,
    segment_at,
    term_value,
)

F = Fraction
#: The two-branch construction needs kappa strictly below 1/3.
KAPPA_LIMIT = F(1, 3)

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


def linear_product(a1, b1, a2, b2) -> Quadratic:
    """(a1 s + b1)(a2 s + b2)."""
    a1, b1, a2, b2 = map(F, (a1, b1, a2, b2))
    return Quadratic(a1 * a2, a1 * b2 + a2 * b1, b1 * b2)


# -- regions -------------------------------------------------------------------

def test_regions_headline_pair():
    region1, region2 = regions_for(PAIR_114)
    assert region1 == Interval(F(21, 22), F(1))
    assert region2 == Interval(F(13, 15), F(21, 22))


def test_regions_seed_pair_degenerate_points():
    region1, region2 = regions_for(ExponentPair(F(0), F(1)))
    assert region1 == Interval(F(1), F(1))
    assert region2 == Interval(F(1), F(1))


def test_regions_inadmissible():
    with pytest.raises(InadmissiblePair):
        regions_for(ExponentPair(F(1, 2), F(1, 2)))


def test_regions_lie_within_half_one():
    # region 2 ends at min(sigma_star, 1): sigma_star > 1 exactly when region 1 is empty
    for p in admissible(generate_pairs(18)):
        for region in regions_for(p):
            assert region.is_empty or F(1, 2) <= region.lo <= region.hi <= 1, (p, region)
    p = ExponentPair(F(2, 7), F(4, 7))
    assert F(*density._region_ends(*p.triple)[0]) == F(3, 2)  # sigma_star
    assert regions_for(p)[1] == Interval(F(13, 18), F(1))


def test_region_emptiness_flags_not_dropped():
    # B(1/14, 11/14) = (2/7, 4/7) has lambda + 2 kappa > 1: region 1 empty
    p = ExponentPair(F(2, 7), F(4, 7))
    region1, region2 = regions_for(p)
    assert region1.is_empty
    assert not region2.is_empty


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
            # structural: E = A (1 - sigma) vanishes at 1 unless A has a pole there
            if curve.A.denominator_at(F(1)) != 0:
                assert curve.eval_E(F(1)) == 0


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
            # E = n/d with n = (a s + b)(1 - s) and d = c s + d for A = (a s + b)/(c s + d)
            n = linear_product(curve.A.a, curve.A.b, -1, 1)
            d = Quadratic.linear(curve.A.c, curve.A.d)
            dn = Quadratic.linear(2 * n.c2, n.c1)  # E numerator derivative
            # derivative numerator of n/d: n' d - n d', both products deg <= 2
            prod1 = Quadratic(dn.c1 * d.c1, dn.c1 * d.c0 + dn.c0 * d.c1, dn.c0 * d.c0)
            prod2 = Quadratic(n.c2 * d.c1, n.c1 * d.c1, n.c0 * d.c1)
            deriv_num = minus(prod1, prod2)
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
    assert term_value(rep, "class1_main", s) == F(4, 71)
    assert term_value(rep, "class1_subdivision", s) == F(1, 71)
    assert term_value(rep, "class2_moment", s) == F(4, 71)
    assert exponent_value(rep, s) == F(4, 71)
    assert rep.passed


def test_audit_region1_at_one():
    rep = audit_balance(PAIR_114, 1)
    assert rep.y.eval(F(1)) == F(2, 3)
    assert term_value(rep, "class1_main", F(1)) == 0
    assert term_value(rep, "class2_moment", F(1)) == 0
    assert exponent_value(rep, F(1)) == 0


def test_audit_region2_subdivision_tight_at_left_endpoint():
    rep = audit_balance(PAIR_16, 2)
    left = regions_for(PAIR_16)[1].lo  # region 2 starts at left2
    assert left == F(11, 14)
    assert term_value(rep, "class1_subdivision", left) == exponent_value(rep, left)


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
        for region, interval in zip((1, 2), regions_for(p)):
            if interval.is_empty:
                continue
            rep = audit_balance(p, region)
            for sigma in fraction_grid(rep.region, 1000):
                terms = [term_value(rep, t.label, sigma) for t in rep.terms]
                assert max(terms) == exponent_value(rep, sigma)


def test_audit_differences_are_linear(depth12):
    # every term minus E is linear, so an endpoint is a witness whenever one exists
    for p in admissible(depth12):
        for region, interval in zip((1, 2), regions_for(p)):
            if p.kappa > 0 and not interval.is_empty:
                rep = audit_balance(p, region)
                assert all(minus(t.num, e_num(rep)).c2 == 0 for t in rep.terms), (p, region)


def test_balance_violation_carries_witness(monkeypatch):
    # Force a violation by auditing region 2 extended beyond sigma_star:
    # the sixth-moment term exceeds E to the right of sigma_star.
    _move_region_ends(monkeypatch, lambda e1, e2: (e1, (e2[0], _shift(e2[1], 1, 50))))
    rep = audit_balance(PAIR_114, 2)
    assert rep.region.hi == F(21, 22) + F(1, 50)
    assert [t.diff_cert.kind for t in rep.terms] == ["zero", "zero", "mixed"]
    assert not rep.passed and rep.violation.term == "class2_moment"
    witness = rep.violation.witness
    assert witness == rep.region.hi
    assert term_value(rep, "class2_moment", witness) > exponent_value(rep, witness)
    assert str(rep.violation) == (
        f"term class2_moment exceeds the exponent at sigma = {witness}"
    )


@pytest.mark.parametrize("pair, region", [(PAIR_114, 1), (PAIR_114, 2), (PAIR_16, 2)])
def test_audit_fails_when_curve_is_not_two_y(monkeypatch, pair, region):
    # a branch A perturbed away from 2y: the report names the curve and a sigma
    real = density._branch_ints

    def perturbed(p, r, q, index):
        A = LinFrac(*real(p, r, q, index))
        return A.a, A.b + 1, A.c, A.d

    monkeypatch.setattr(density, "_branch_ints", perturbed)
    rep = audit_balance(pair, region)
    assert not rep.passed
    assert rep.violation.term == "exponent_curve"
    sigma = rep.violation.witness
    assert regions_for(pair)[region - 1].contains(sigma)
    assert str(rep.violation).startswith("exponent_curve's A = ")
    monkeypatch.undo()
    y = audit_balance(pair, region).y
    assert LinFrac(*perturbed(*pair.triple, region)).eval(sigma) != 2 * y.eval(sigma)


def _forbid_regions_for(monkeypatch):
    def never(*args):
        raise AssertionError("regions_for was called")

    monkeypatch.setattr(density, "regions_for", never)


def test_audit_and_continuity_call_no_regions_for(monkeypatch):
    # both take the pair and read its region ends from the integer kernel
    _forbid_regions_for(monkeypatch)
    for region in (1, 2):
        assert audit_balance(PAIR_114, region).passed
    assert continuity_check(PAIR_114).status == "ok"


def test_candidate_curves_are_exponent_curves(monkeypatch, depth12):
    # both branches of a pair, in family order, are exponent_curve's; neither
    # candidate_curves nor optimize calls regions_for
    want = []
    for p in admissible(depth12):
        for region in (1, 2):
            try:
                want.append(exponent_curve(p, region))
            except (EmptyRegion, InadmissiblePair):
                continue
    _forbid_regions_for(monkeypatch)
    curves = candidate_curves(depth12)
    assert list(curves[:len(want)]) == want
    optimize(depth12, Interval(F(1, 2), F(1)))
    optimize(depth12, Interval(F(21, 22), F(21, 22)))


# -- integer audit kernel against the Fraction reference ---------------------------
# The reference below is the audit and continuity algorithm as it was written over
# Fraction and Quadratic, with every sign decided by quadratic_sign_on_interval; the
# library decides the same on integers.  Both must give the same report.

def _reference_regions(pair):
    """sigma_star, left2 and regions 1 and 2 of a pair, over Fraction."""
    k, l = pair.kappa, pair.lam
    sigma_star = (1 + l - 4 * k) / (2 - 6 * k)
    left2 = (1 + l + k) / (2 * (1 + k))
    lo1 = max(sigma_star, F(1, 2))
    region1 = Interval(lo1, F(1)) if lo1 <= 1 else Interval.empty()
    hi2 = min(sigma_star, F(1))
    region2 = Interval(left2, hi2) if left2 <= hi2 else Interval.empty()
    return sigma_star, left2, region1, region2


def _reference_audit(pair, region, reg, branch_A):
    k, l = pair.kappa, pair.lam
    y = LinFrac(0, 2, 4, -1) if region == 1 else LinFrac.of(0, 2 * k, 2 - 2 * k, 3 * k - l - 1)
    n_y = F(y.b)
    den = Quadratic.linear(y.c, y.d)
    assert den.eval(reg.lo) > 0 and den.eval(reg.hi) > 0
    violation = None
    A = branch_A(region)
    if A != LinFrac(2 * y.a, 2 * y.b, y.c, y.d):
        gap = minus(linear_product(A.a, A.b, y.c, y.d),
                    linear_product(2 * y.a, 2 * y.b, A.c, A.d))
        mid = (reg.lo + reg.hi) / 2
        witness = next((x for x in (reg.lo, mid, reg.hi) if gap.eval(x) != 0), reg.lo)
        violation = ("exponent_curve", witness,
                     f"exponent_curve's A = {A} is not 2y = 2({y}); they differ at sigma = "
                     f"{rat_str(witness)}")
    t0_exponent = LinFrac.of(2, k - 1 - l, 0, k)
    e1_num = Quadratic.linear(-2 * n_y, 2 * n_y)
    e2_num = Quadratic.linear(y.c + n_y * (-1 - 1 / k), y.d + n_y * (1 + (1 + l - k) / (2 * k)))
    e3_num = Quadratic.linear(2 * y.c - 6 * n_y, 2 * y.d + 3 * n_y)
    terms = []
    for label, num in zip(("class1_main", "class1_subdivision", "class2_moment"),
                          (e1_num, e2_num, e3_num)):
        diff = minus(num, e1_num)
        cert = quadratic_sign_on_interval(diff, reg)
        terms.append((label, str(num), cert.kind, cert.roots, is_zero(diff)))
        if violation is None and not is_nonpos(cert):
            witness = reg.lo if diff.eval(reg.lo) > 0 else reg.hi
            violation = (label, witness,
                         f"term {label} exceeds the exponent at sigma = {rat_str(witness)}")
    return (str(reg), str(y), str(t0_exponent), str(den), str(e1_num), violation is None,
            violation, tuple(terms))


def _audit_summary(rep):
    v = rep.violation
    return (
        str(rep.region), str(rep.y), str(rep.t0_exponent), str(rep.denominator), str(e_num(rep)),
        rep.passed, None if v is None else (v.term, v.witness, str(v)),
        tuple((t.label, str(t.num), t.diff_cert.kind, t.diff_cert.roots, t.achieves)
              for t in rep.terms),
    )


def _reference_continuity(pair, sigma_star, regions, branch_A):
    if any(region.is_empty for region in regions) or pair.kappa == 0:
        return "skipped"
    k, l = pair.kappa, pair.lam
    a1 = branch_A(1).eval(sigma_star)
    a2 = branch_A(2).eval(sigma_star)
    if a1 == a2 == 4 * (2 - 6 * k) / (2 + 4 * l - 10 * k):
        return ("ok", sigma_star, a1)
    return ("mismatch", sigma_star, f"branches disagree: {rat_str(a1)} vs {rat_str(a2)}")


def _continuity_summary(rep):
    if rep.status == "skipped":
        return "skipped"
    return (rep.status, rep.sigma_star, rep.shared_value if rep.status == "ok" else rep.note)


def _ends(interval):
    """An Interval as ``_region_ends`` gives a region: integer (lo, hi), None if empty."""
    if interval.is_empty:
        return None
    return (interval.lo.numerator, interval.lo.denominator), \
        (interval.hi.numerator, interval.hi.denominator)


def assert_kernel_matches_reference(pair, monkeypatch=None, widen=None, perturb=None):
    """Audit and continuity of one pair against the reference, optionally on
    regions changed by ``widen`` and with a branch A changed by ``perturb``.

    ``widen`` maps (sigma_star, left2, region1, region2) to the two regions
    to audit; the kernel is given them through a patched ``_region_ends``."""
    if perturb is not None:
        real = density._branch_ints

        def perturbed(p, r, q, index):
            A = perturb(LinFrac(*real(p, r, q, index)))
            return A.a, A.b, A.c, A.d
        monkeypatch.setattr(density, "_branch_ints", perturbed)

    def branch_A(index):
        return LinFrac(*density._branch_ints(*pair.triple, index))
    sigma_star, left2, *regions = _reference_regions(pair)
    assert regions_for(pair) == tuple(regions), pair
    star, left, *_ = density._region_ends(*pair.triple)
    assert (F(*star), F(*left)) == (sigma_star, left2), pair
    if widen is not None:
        regions = widen(sigma_star, left2, *regions)
        _move_region_ends(monkeypatch, lambda e1, e2: tuple(map(_ends, regions)))
    for region, reg in zip((1, 2), regions):
        if reg.is_empty:
            with pytest.raises(EmptyRegion):
                audit_balance(pair, region)
            continue
        expected = _reference_audit(pair, region, reg, branch_A)
        assert _audit_summary(audit_balance(pair, region)) == expected, (pair, region)
    assert _continuity_summary(continuity_check(pair)) == \
        _reference_continuity(pair, sigma_star, regions, branch_A)


def test_audit_kernel_matches_reference_on_family():
    family = [p for p in generate_pairs(14) if 0 < p.kappa < F(1, 3)]
    assert len(family) > 500
    for pair in family:
        assert_kernel_matches_reference(pair)


@st.composite
def admissible_pairs(draw):
    """0 < kappa < 1/3 and 1/2 <= lambda <= 1 - kappa, most of them off the family;
    lambda = 1 - 2 kappa makes region 1 the point [1, 1], larger lambda empties it."""
    kappa = draw(st.fractions(F(1, 10**6), F(1, 3), max_denominator=10**6))
    if kappa == F(1, 3):
        kappa = F(1, 4)
    if kappa <= F(1, 4) and draw(st.booleans()):
        lam = 1 - 2 * kappa
    else:
        lam = draw(st.fractions(F(1, 2), 1 - kappa, max_denominator=10**6))
    return ExponentPair(kappa, lam, None)


@given(pair=admissible_pairs())
@settings(max_examples=300, deadline=None)
@example(pair=PAIR_16)  # region 1 = [1, 1]
@example(pair=ExponentPair(F(2, 7), F(4, 7)))  # region 1 empty
def test_audit_kernel_matches_reference_off_family(pair):
    assert_kernel_matches_reference(pair)


@pytest.mark.parametrize("pair", [PAIR_114, PAIR_16, ExponentPair(F(1, 30), F(13, 15))])
@pytest.mark.parametrize("widen", [
    lambda star, left2, r1, r2: (Interval(star - F(1, 50), F(1)), r2),
    lambda star, left2, r1, r2: (r1, Interval(left2, star + F(1, 50))),
    lambda star, left2, r1, r2: (r1, Interval(left2 - F(1, 200), left2)),
], ids=["region1-below-star", "region2-past-star", "region2-left-of-left2"])
def test_audit_kernel_matches_reference_on_failures(monkeypatch, pair, widen):
    # regions moved off their construction; past sigma_star a term fails: same term, same witness
    assert_kernel_matches_reference(pair, monkeypatch, widen=widen)


@pytest.mark.parametrize("pair", [PAIR_114, PAIR_16, ExponentPair(F(1, 30), F(13, 15))])
@pytest.mark.parametrize("perturb", [
    lambda A: LinFrac(A.a, A.b + 1, A.c, A.d),
    lambda A: LinFrac(A.a + 1, A.b, A.c, A.d),
    lambda A: LinFrac(0, 1, 0, 1),
], ids=["b+1", "a+1", "constant"])
def test_audit_kernel_matches_reference_when_curve_is_not_two_y(monkeypatch, pair, perturb):
    assert_kernel_matches_reference(pair, monkeypatch, perturb=perturb)


# -- audit_family against the report path --------------------------------------------
# The reference is audit-family's loop as it was written over the reports: every pair's
# regions, audits and continuity check built in full.  audit_family decides on the
# pair's integers and builds reports only for failures; both must print the same.

def _reference_family_audit(family):
    lines, audited, failed, skipped = [], 0, 0, 0
    for pair in family:
        if not 0 < pair.kappa < KAPPA_LIMIT:
            skipped += 1
            continue
        statuses = []
        for region, interval in zip((1, 2), regions_for(pair)):
            if interval.is_empty:
                statuses.append(f"r{region}:empty")
                continue
            rep = audit_balance(pair, region)
            statuses.append(f"r{region}:{'pass' if rep.passed else 'FAIL'}")
            if rep.passed:
                audited += 1
            else:
                failed += 1
                lines.append(f"FAIL {pair} region {region}: {rep.violation}")
        cont = continuity_check(pair)
        if cont.status == "mismatch":
            failed += 1
            lines.append(
                f"FAIL {pair} continuity at sigma = {rat_str(cont.sigma_star)}: {cont.note}"
            )
        lines.append(
            f"({rat_str(pair.kappa)}, {rat_str(pair.lam)})  word={pair.word or '-'}  "
            f"{' '.join(statuses)}  continuity:{cont.status}"
        )
    return FamilyAudit(audited, failed, skipped, tuple(lines))


def assert_family_audit_matches_reference(family, expected=None, triples=None):
    """audit_family of ``triples``, {triple: word} in any order (by default the
    family's), against the report path over the pairs in family order."""
    if expected is None:
        expected = _reference_family_audit(family)
    if triples is None:
        triples = {p.triple: p.word for p in family}
    assert audit_family(triples, verbose=True) == expected
    quiet = audit_family(triples)
    assert quiet == expected._replace(lines=tuple(x for x in expected.lines if x[:5] == "FAIL "))
    return quiet


def test_audit_family_matches_reports_on_family():
    family = generate_pairs(14)
    result = assert_family_audit_matches_reference(family)
    assert (result.audited, result.failed, result.lines) == (881, 0, ())
    assert assert_family_audit_matches_reference(family, triples=closure(14)) == result


def test_audit_family_sorts_a_third_forced_to_fail_into_family_order(monkeypatch):
    # region 2 perturbed on every third pair in 0 < kappa < 1/3: its audit and, where
    # region 1 is nonempty, its continuity check fail.  The closure's breadth-first
    # order is not the family order, so the lines must be sorted to match the reports.
    family, triples = generate_pairs(12), closure(12)
    forced = {p.triple for p in admissible(family)[1::3]}
    real = density._branch_ints

    def perturbed(p, r, q, region):
        a, b, c, d = real(p, r, q, region)
        return (a, b + 1, c, d) if region == 2 and (p, r, q) in forced else (a, b, c, d)

    monkeypatch.setattr(density, "_branch_ints", perturbed)
    assert list(triples) != [p.triple for p in family]
    result = assert_family_audit_matches_reference(family, triples=triples)
    assert len(forced) == 64 and result.failed >= len(forced)


@given(pair=admissible_pairs())
@settings(max_examples=300, deadline=None)
@example(pair=PAIR_16)  # region 1 = [1, 1]
@example(pair=ExponentPair(F(2, 7), F(4, 7)))  # region 1 empty
@example(pair=ExponentPair(F(1, 3), F(1, 2)))  # kappa = 1/3: skipped
@example(pair=ExponentPair(F(0), F(1)))  # kappa = 0: skipped
def test_audit_family_matches_reports_off_family(pair):
    assert_family_audit_matches_reference([pair])


def _perturb_branch(monkeypatch, perturb):
    real = density._branch_ints
    monkeypatch.setattr(density, "_branch_ints", lambda *args: perturb(args[3], *real(*args)))


def _move_region_ends(monkeypatch, move):
    real = density._region_ends

    def moved(p, r, q):
        star, left, ends1, ends2 = real(p, r, q)
        return star, left, *move(ends1, ends2)

    monkeypatch.setattr(density, "_region_ends", moved)


def _shift(end, num, den):
    """The rational end + num/den, as integers not in lowest terms."""
    return end[0] * den + num * end[1], end[1] * den


#: Ways to make audits and continuity checks fail, through the helpers that
#: audit_family shares with regions_for, audit_balance and continuity_check.
FORCED_FAILURES = {
    "b+1": lambda mp: _perturb_branch(mp, lambda region, a, b, c, d: (a, b + 1, c, d)),
    "region2-a+1": lambda mp: _perturb_branch(
        mp, lambda region, a, b, c, d: (a + (region == 2), b, c, d)),
    "region1-moved-left": lambda mp: _move_region_ends(mp, lambda e1, e2: (
        e1 and (_shift(e1[0], -1, 50), e1[1]), e2)),
    "region2-moved-right": lambda mp: _move_region_ends(mp, lambda e1, e2: (
        e1, e2 and (e2[0], _shift(e2[1], 1, 50)))),
}


@pytest.mark.parametrize("force", FORCED_FAILURES.values(), ids=FORCED_FAILURES.keys())
def test_audit_family_forced_failures_match_reports(monkeypatch, force):
    force(monkeypatch)
    result = assert_family_audit_matches_reference(generate_pairs(9))
    assert result.failed > 0 and len(result.lines) == result.failed


def test_audit_family_failure_builds_no_region_spec_or_report(monkeypatch):
    # region 2 of (1/14, 11/14) perturbed: its audit and its continuity check fail, and
    # the FAIL lines come from the kernels' results, not from regions_for or a report
    real = density._branch_ints

    def perturbed(p, r, q, region):
        a, b, c, d = real(p, r, q, region)
        return (a, b + 1, c, d) if (p, r, q, region) == (1, 11, 14, 2) else (a, b, c, d)

    monkeypatch.setattr(density, "_branch_ints", perturbed)
    family = generate_pairs(9)
    expected = _reference_family_audit(family)
    assert [x for x in expected.lines if x[:5] == "FAIL "] == [
        "FAIL (1/14, 11/14) region 2: exponent_curve's A = 5/(26s-22) is not 2y = 2(1/(13s-11)); "
        "they differ at sigma = 13/15",
        "FAIL (1/14, 11/14) continuity at sigma = 21/22: branches disagree: 44/31 vs 55/31",
    ]

    def never(*args, **kwargs):
        raise AssertionError("audit_family built regions or a report")

    for name in ("regions_for", "AuditReport", "ContinuityReport",
                 "audit_balance", "continuity_check"):
        monkeypatch.setattr(density, name, never)
    assert_family_audit_matches_reference(family, expected)


def test_audit_asserts_positive_y_denominator(monkeypatch):
    # region 2 widened left to the pole of y = 1/(13s - 11) at 11/13
    _move_region_ends(monkeypatch, lambda e1, e2: (e1, _ends(Interval(F(11, 13), F(21, 22)))))
    with pytest.raises(AssertionError, match="y denominator must be positive"):
        audit_balance(PAIR_114, 2)


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
    c2 = BoundCurve(LinFrac(0, 4, 4, -1), Interval(F(9, 10), F(1)), Provenance("x"))
    assert crossover(c1, c2).kind == "identical"


def test_crossover_requires_overlap():
    c1 = exponent_curve(PAIR_114, 1)
    c2 = BoundCurve(LinFrac.constant(2), Interval(F(1, 2), F(2, 3)), Provenance("x"))
    with pytest.raises(ValueError):
        crossover(c1, c2)


def test_baseline_crossovers_stay_in_their_segment():
    # ivic-1992 meets the region-2 branches of depth 9 at 15/16 and 109/116,
    # both left of 17/18 and so outside every segment of the bound
    bound = optimize(generate_pairs(9), Interval(F(17, 18), F(1)))
    hits = [(seg.curve.provenance.label, base.provenance.label, root)
            for seg, base, root in baseline_crossovers(bound, baseline_curves())]
    assert hits == [("pair 4/49,75/98 region 1", "ivic-1992", F(1))]
    bound = optimize(generate_pairs(3), Interval(F(17, 18), F(1)))
    assert [root for _, _, root in baseline_crossovers(bound, baseline_curves())] == [
        F(17, 18), F(1)
    ]


# -- optimizer ----------------------------------------------------------------------

def _sweep_oracle(family, interval):
    """The candidate-by-candidate sweep that optimize replaced, O(curves x segments).

    A left-to-right sweep from x = interval.lo picks the candidate whose
    region covers [x, x + eps) with the largest (g(x), slope), ties to the
    earliest in ``candidate_curves`` order, and ends its segment at the
    first of: its own region end, interval.hi, or the first point past x
    where another candidate is strictly better.
    """
    density.validate_interval(interval)
    if interval.is_empty:
        return PiecewiseBound(interval, ())
    curves = candidate_curves(family)
    lines = [density._reciprocal_line(c) for c in curves]
    segments = []
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


def assert_matches_oracle(family, interval, dominant_conjectural=False):
    """optimize against the sweep oracle; with ``dominant_conjectural``,
    optimize also sees a conjectural baseline below every candidate, which
    must change nothing."""
    want = _sweep_oracle(family, interval)
    with pytest.MonkeyPatch.context() as mp:
        if dominant_conjectural:
            low = BoundCurve(LinFrac.constant(F(1, 100)), Interval(F(1, 2), F(1)),
                             Provenance("conjecture", conjectural=True))
            bases = baseline_curves()
            mp.setattr(density, "baseline_curves", lambda: (*bases, low))
        got = optimize(family, interval)
    assert [(s.region, s.curve.A, s.curve.provenance) for s in got.segments] == [
        (s.region, s.curve.A, s.curve.provenance) for s in want.segments
    ]
    assert got == want
    return got


def pairs_of(bound):
    return [(s.curve.provenance.pair.key if s.curve.provenance.pair else s.curve.provenance.label,
             s.curve.provenance.region) for s in bound.segments]


# a quarter of the draws near 1, where region-1 starts are dense
fractions_in_domain = st.fractions(
    min_value=F(1, 2), max_value=F(1), max_denominator=240
) | st.fractions(min_value=F(19, 20), max_value=F(1), max_denominator=2000)


@settings(max_examples=150, deadline=None)
@given(
    keep=st.lists(st.booleans(), min_size=234, max_size=234),
    shuffle_seed=st.none() | st.integers(0, 2**32 - 1),
    ends=st.tuples(fractions_in_domain, fractions_in_domain),
    dominant_conjectural=st.booleans(),
)
@example(keep=[True] * 234, shuffle_seed=None, ends=(F(13, 15), F(1)), dominant_conjectural=False)
@example(keep=[True] * 234, shuffle_seed=None, ends=(F(1, 2), F(1)), dominant_conjectural=True)
@example(keep=[True] * 234, shuffle_seed=7, ends=(F(21, 22), F(21, 22)), dominant_conjectural=True)
@example(keep=[True] * 234, shuffle_seed=None, ends=(F(24, 25), F(1)), dominant_conjectural=False)
def test_optimize_matches_sweep_oracle_on_subfamilies(
    depth12, keep, shuffle_seed, ends, dominant_conjectural
):
    # subfamilies in family order or shuffled: the region-1 credit and the
    # hull's tie rule both read the family order
    assert len(depth12) == len(keep)
    pairs = [p for p, k in zip(depth12, keep) if k]
    if shuffle_seed is not None:
        random.Random(shuffle_seed).shuffle(pairs)
    interval = Interval(min(ends), max(ends))
    assert_matches_oracle(PairFamily(tuple(pairs)), interval, dominant_conjectural)


def test_optimize_credits_region_1_to_first_pair_begun(depth12):
    # from 24/25 on, region 1 is live for many pairs; the first in family
    # order is credited, not the one whose region 1 begins earliest
    (seg,) = optimize(depth12, Interval(F(24, 25), F(1))).segments
    first = next(
        p for p in admissible(depth12)
        if not regions_for(p)[0].is_empty and regions_for(p)[0].lo <= F(24, 25)
    )
    assert (seg.curve.provenance.pair, seg.curve.provenance.region) == (first, 1)
    assert first.key == (F(11, 278), F(118, 139))
    earliest = min(admissible(depth12), key=lambda p: _reference_regions(p)[0])
    assert regions_for(earliest)[0].lo < regions_for(first)[0].lo


def test_optimize_matches_sweep_oracle_with_repeated_pairs(depth12):
    # a pair listed twice is credited to its first listing, here word None
    pairs = [ExponentPair(p.kappa, p.lam, None) for p in depth12] + list(depth12)
    for interval in (WIDE, Interval(F(1, 2), F(1))):
        bound = assert_matches_oracle(PairFamily(tuple(pairs)), interval)
        assert all(s.curve.provenance.pair.word is None
                   for s in bound.segments if s.curve.provenance.pair)


def test_optimize_collinear_pairs_tie_to_smaller_kappa():
    # three pairs on the line lambda = 4/5 - kappa; the lower tangent from
    # (0, 2 sigma - 1) lies along it at sigma = 9/10, where all three tie
    mid, right, left = (ExponentPair(F(k, 20), F(16 - k, 20), None) for k in (2, 3, 1))
    family = PairFamily((mid, right, left))
    bound = assert_matches_oracle(family, Interval(F(17, 20), F(1)))
    assert [s.region for s in bound.segments] == [
        Interval(F(17, 20), F(9, 10)), Interval(F(9, 10), F(31, 34)), Interval(F(31, 34), F(1))
    ]
    assert pairs_of(bound) == [(right.key, 2), (left.key, 2), (left.key, 1)]


def test_optimize_uses_hull_of_admissible_pairs():
    # (2/5, 1/2) has kappa >= 1/3 and lies below the line from (1/20, 3/4),
    # so (3/10, 3/5) is no vertex of the full family's lower hull; it is one
    # of the admissible hull's, and it wins on [23/28, 89/100]
    a, b, c = (
        ExponentPair(F(k), F(l)) for k, l in (("1/20", "3/4"), ("3/10", "3/5"), ("2/5", "1/2"))
    )
    assert hull._cross((1, 15, 20), (8, 10, 20), (6, 12, 20)) > 0  # b above a-c
    bound = assert_matches_oracle(PairFamily((a, b, c)), Interval(F(1, 2), F(1)))
    assert [s.region.hi for s in bound.segments] == [F(23, 28), F(89, 100), F(31, 34), F(1)]
    assert pairs_of(bound) == [("ivic-8/3", None), (b.key, 2), (a.key, 2), (a.key, 1)]
    assert_matches_oracle(PairFamily((a, b, c)), Interval(F(17, 20), F(9, 10)))


def test_optimize_baseline_overtaking_a_pair_wins_on_slope():
    # ivic-1992 (slope 2 in g = 1/A) meets the region-2 line of (1/4, 13/25)
    # (slope 3/2) at 24/25 from below: tied there, it wins just right of it
    pair = ExponentPair(F(1, 4), F(13, 25))
    bound = assert_matches_oracle(PairFamily((pair,)), Interval(F(9, 10), F(1)))
    assert [s.region.hi for s in bound.segments] == [F(24, 25), F(1)]
    assert pairs_of(bound) == [(pair.key, 2), ("ivic-1992", None)]


@pytest.mark.parametrize("dominant_conjectural", [False, True])
@pytest.mark.parametrize(
    "sigma", [F(1, 2), F(5, 8), F(13, 15), F(11, 12), F(17, 18), F(21, 22), F(1)]
)
def test_optimize_point_interval_matches_oracle(sigma, dominant_conjectural):
    # on a point, closed regions compete: at 21/22 the region-2 branch of
    # (1/14, 11/14) ends where its region 1 begins, ties it and wins on slope
    point = Interval(sigma, sigma)
    bound = assert_matches_oracle(generate_pairs(6), point, dominant_conjectural)
    assert [s.region for s in bound.segments] == [point]
    if sigma == F(21, 22):
        assert pairs_of(bound) == [(PAIR_114.key, 2)]


def test_optimize_point_matches_oracle_at_every_region_end(depth12):
    # closed regions begin and end at every sigma_star and left2, at 1/2, at
    # 11/12 (where ivic-1992 begins) and at 1: there ties are decided on slope
    # and on candidate order
    points = {F(1, 2), F(11, 12), F(1)}
    for pair in admissible(depth12):
        points.update(x for x in _reference_regions(pair)[:2] if F(1, 2) <= x <= 1)
    assert len(points) > 200
    for sigma in sorted(points):
        assert_matches_oracle(depth12, Interval(sigma, sigma))


@settings(max_examples=150, deadline=None)
@given(sigma=fractions_in_domain)
@example(sigma=F(4, 5))
@example(sigma=F(21, 22))
def test_optimize_point_matches_oracle_on_drawn_sigma(depth12, sigma):
    # every pair listed twice: a pair's two listings tie, and the first, word None, wins
    pairs = [ExponentPair(p.kappa, p.lam, None) for p in depth12] + list(depth12)
    bound = assert_matches_oracle(PairFamily(tuple(pairs)), Interval(sigma, sigma))
    pair = bound.segments[0].curve.provenance.pair
    assert pair is None or pair.word is None


def test_optimize_headline_reproduction():
    fam = generate_pairs(3)
    bound = optimize(fam, Interval(F(17, 18), F(1)))
    assert len(bound.segments) == 2
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
    assert len(weyl.segments) == 1
    assert weyl.segments[0].curve.A == LinFrac(0, 4, 4, -1)
    mid = optimize(fam, Interval(F(17, 18), F(21, 22)))
    assert len(mid.segments) == 1
    assert mid.segments[0].curve.A == LinFrac(0, 2, 13, -11)


def test_optimize_empty_interval():
    fam = generate_pairs(2)
    assert optimize(fam, Interval.empty()).segments == ()


def test_optimize_point_interval():
    bound = optimize(generate_pairs(3), Interval(F(17, 18), F(17, 18)))
    assert [seg.region for seg in bound.segments] == [Interval(F(17, 18), F(17, 18))]
    assert bound_E(bound, F(17, 18)) == exponent_curve(PAIR_114, 2).eval_E(F(17, 18))


@pytest.mark.parametrize("sigma, label", [
    (F(168, 169), "pair 1/510,251/255 region 2"),
    (F(1), "pair 1/6,2/3 region 2"),
])
def test_optimize_point_credits_a_pair_off_the_hull(depth12, sigma, label):
    # a point interval is not the tangent at one sigma: at 84 of the 144
    # region-1 starts in [1/2, 1] of the admissible depth-12 pairs, a region 2
    # that ends there ties the region-1 line 4/(4s-1), wins on slope, and is
    # no vertex of the lower hull, so the point needs its own path
    bound = optimize(depth12, Interval(sigma, sigma))
    prov = bound.segments[0].curve.provenance
    assert prov.label == label
    assert bound_E(bound, sigma) == 4 * (1 - sigma) / (4 * sigma - 1)
    points = [(*pair.triple, pair) for pair in depth12 if 0 < 3 * pair.triple[0] < pair.triple[2]]
    assert prov.pair not in [vertex[3] for vertex in hull.lower_hull(points)]


def test_optimize_dominance(depth13):
    # every segment is certified <= every candidate on their whole overlap;
    # depth 13 has a winner narrower than a 256-point grid step
    bound = optimize(depth13, WIDE)
    curves = candidate_curves(depth13)
    for seg in bound.segments:
        for c in curves:
            overlap = seg.region.intersect(c.region)
            if overlap.is_empty:
                continue
            if overlap.is_point:
                assert bound_E(bound, overlap.lo) <= c.eval_E(overlap.lo)
            else:
                cert = linfrac_compare_on_interval(seg.curve.A, c.A, overlap)
                assert cert.relation in ("le", "eq"), (str(seg.curve), str(c))


@pytest.mark.parametrize("depth", [9, 13])
def test_optimize_provenance_replays(depth):
    for seg in optimize(generate_pairs(depth), WIDE).segments:
        prov = seg.curve.provenance
        if prov.pair is None:
            continue
        region = regions_for(prov.pair)[prov.region - 1]
        assert region.contains(seg.region.lo) and region.contains(seg.region.hi), str(seg.curve)
        assert exponent_curve(prov.pair, prov.region).A == seg.curve.A


@pytest.mark.parametrize("depth,count", [(3, 4), (9, 11), (12, 23), (13, 30), (15, 52)])
def test_optimize_segment_counts(depth, count):
    assert len(optimize(generate_pairs(depth), WIDE).segments) == count


def test_optimize_point_at_discontinuity(depth12):
    # the bound jumps down to ivic-1992 where its region starts
    bound = optimize(depth12, WIDE)
    seg = segment_at(bound, F(11, 12))
    assert seg.curve.provenance.label == "ivic-1992"
    assert bound_E(bound, F(11, 12)) == F(1, 7)
    # a continuous boundary keeps the left segment
    headline = optimize(generate_pairs(3), Interval(F(17, 18), F(1)))
    assert segment_at(headline, F(21, 22)).curve.A == LinFrac(0, 2, 13, -11)


def test_optimize_rejects_interval_outside_domain():
    fam = generate_pairs(2)
    for lo, hi in ((F(0), F(1, 4)), (F(1, 2), F(2)), (F(2, 5), F(1))):
        with pytest.raises(ValueError):
            optimize(fam, Interval(lo, hi))


def test_optimize_rejects_candidate_of_other_form(monkeypatch):
    bad = BoundCurve(LinFrac(1, 1, 0, 1), Interval(F(1, 2), F(1)), Provenance("s+1"))
    monkeypatch.setattr(density, "baseline_curves", lambda: (bad,))
    with pytest.raises(ValueError):
        optimize(generate_pairs(2), Interval(F(17, 18), F(1)))


def test_optimize_improves_baselines(depth12):
    interval = Interval(F(21, 22), F(1))
    bound = optimize(depth12, interval)
    for sigma in fraction_grid(interval, 64):
        e = bound_E(bound, sigma)
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
    # the CSV table of ``optimize``, read back by column name
    res = CliRunner().invoke(cli, ["optimize", "--depth", "3", "--interval", "17/18,1",
                                   "--resolution", "4"])
    assert res.exit_code == 0
    rows = list(csv.DictReader(io.StringIO(res.stdout)))
    assert len(rows) == 5
    assert rows[0]["sigma"] == "17/18"
    assert rows[0]["A_num"] == "36" and rows[0]["A_den"] == "23"
    assert rows[0]["winner_kappa"] == "1/14"
    assert rows[-1]["sigma"] == "1"
    assert rows[-1]["E_decimal"] == "0"
    assert rows[-1]["region"] == "1"


def test_segments_along_matches_segment_at(depth12):
    # every boundary is on the grid: the jump down to ivic-1992 at 11/12
    # goes right, a continuous boundary stays left
    bound = optimize(depth12, Interval(F(1, 2), F(1)))
    grid = sorted({*fraction_grid(bound.interval, 97), *(s.region.lo for s in bound.segments)})
    assert F(11, 12) in grid
    xs, w = numerators(grid)
    assert [seg for _, seg in bound.segments_along(xs, w)] == [segment_at(bound, x) for x in grid]
    assert_lowest_at_matches_oracle(bound, grid)
    with pytest.raises(KeyError):
        list(bound.segments_along(*numerators([F(3, 4), F(1, 3)])))


def _oracle_lowest_at(segments, sigma):
    """``density._lowest_at`` as it was, evaluating E at every segment holding sigma."""
    hits = [seg for seg in segments if seg.region.contains(sigma)]
    if not hits:
        raise KeyError(f"sigma = {rat_str(sigma)} outside the optimized interval")
    return min(hits, key=lambda seg: seg.curve.eval_E(sigma))


def assert_lowest_at_matches_oracle(bound, sigmas):
    want = [_oracle_lowest_at(bound.segments, x) for x in sigmas]
    assert all(segment_at(bound, x) is seg for x, seg in zip(sigmas, want))
    along = bound.segments_along(*numerators(sigmas))
    assert all(got is seg for (_, got), seg in zip(along, want))


@pytest.mark.parametrize("depth", [12, 14])
@pytest.mark.parametrize("interval", [WIDE, Interval(F(1, 2), F(1))], ids=["13/15,1", "1/2,1"])
def test_lowest_at_matches_oracle_at_every_endpoint(depth, interval):
    bound = optimize(generate_pairs(depth), interval)
    ends = sorted({x for seg in bound.segments for x in (seg.region.lo, seg.region.hi)})
    assert_lowest_at_matches_oracle(bound, ends)


@pytest.mark.parametrize("left, right, winner", [
    (LinFrac.constant(F(8, 3)), LinFrac.constant(2), "right"),  # jump down
    (LinFrac.constant(2), LinFrac.constant(F(8, 3)), "left"),  # jump up
    (LinFrac.constant(2), LinFrac(0, 4, 4, -1), "left"),  # exact tie: 4/(4s-1) = 2 at 3/4
    (LinFrac(0, 4, 4, -1), LinFrac.constant(2), "left"),
])
def test_lowest_at_matches_oracle_at_a_shared_endpoint(left, right, winner):
    half, mid = Interval(F(1, 2), F(3, 4)), Interval(F(3, 4), F(1))
    segments = (Segment(half, BoundCurve(left, half, Provenance("left"))),
                Segment(mid, BoundCurve(right, mid, Provenance("right"))))
    bound = PiecewiseBound(Interval(F(1, 2), F(1)), segments)
    assert segment_at(bound, F(3, 4)).curve.provenance.label == winner
    assert_lowest_at_matches_oracle(bound, [F(1, 2), F(5, 8), F(3, 4), F(7, 8), F(1)])
    for outside in (F(1, 3), F(5, 4)):
        with pytest.raises(KeyError):
            _oracle_lowest_at(segments, outside)
        with pytest.raises(KeyError):
            segment_at(bound, outside)


def test_piecewise_json():
    fam = generate_pairs(3)
    bound = optimize(fam, Interval(F(17, 18), F(1)))
    obj = piecewise_to_json_obj(bound)
    assert obj["interval"] == {"lo": "17/18", "hi": "1"}
    assert obj["segments"][0]["A"]["text"] == "2/(13s-11)"
    assert obj["segments"][1]["lo"] == "21/22"
