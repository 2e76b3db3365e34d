import csv
import hashlib
import io
import math
import sys
from fractions import Fraction

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zdx import hecke
from zdx.cli import cli, main
from zdx.hecke import (
    ConvolutionWitness,
    DeligneReport,
    MollifierTable,
    TableLimitError,
    TauTable,
    compute_tau,
    convolution_values,
    deligne_check,
    hecke_recursion_failures,
    mollifier_from,
    multiplicativity_failures,
    verify_table,
)
from oracles import m_at, tau_at

LIMIT = 2000


@pytest.fixture(scope="module")
def table():
    return compute_tau(LIMIT)


@pytest.fixture(scope="module")
def moll(table):
    return mollifier_from(table)


def naive_tau(limit):
    """Independent oracle: multiply out (1 - q^n)^24 factor by factor."""
    series = [0] * limit
    series[0] = 1
    for n in range(1, limit):
        for _ in range(24):
            # series *= (1 - q^n), truncated
            for i in range(limit - 1, n - 1, -1):
                series[i] -= series[i - n]
    return [0] + series  # tau(k) = series[k-1], shifted by q


# The check loops as they read before they took the tuples directly: every
# read goes through the bounds-checked ``tau_at`` and ``m_at``.

def _oracle_mollifier(table):
    limit = table.limit
    spf = hecke._smallest_prime_factors(limit)
    m = [0] * (limit + 1)
    m[1] = 1
    for n in range(2, limit + 1):
        p = spf[n]
        rest, a = n, 0
        while rest % p == 0:
            rest //= p
            a += 1
        local = -tau_at(table, p) if a == 1 else p ** 11 if a == 2 else 0
        m[n] = m[rest] * local
    return MollifierTable(limit, tuple(m))


def _oracle_convolution(table, moll, upto):
    vals = [0] * (upto + 1)
    for d in range(1, upto + 1):
        for n in range(d, upto + 1, d):
            vals[n] += m_at(moll, d) * tau_at(table, n // d)
    return vals


def _truncated(table, moll, limit):
    """The tau and mollifier tables cut to n <= limit."""
    return (TauTable(limit, table.tau[:limit + 1]),
            MollifierTable(limit, moll.m[:limit + 1]))


def _oracle_multiplicativity(table):
    limit = table.limit
    return [
        (m, n)
        for m in range(2, math.isqrt(limit) + 1)
        for n in range(m + 1, limit // m + 1)
        if math.gcd(m, n) == 1 and tau_at(table, m * n) != tau_at(table, m) * tau_at(table, n)
    ]


def _oracle_recursion(table):
    limit = table.limit
    failures = []
    for p in range(2, limit + 1):
        if any(p % q == 0 for q in range(2, math.isqrt(p) + 1)):
            continue
        a = 1
        while p ** (a + 1) <= limit:
            nxt = tau_at(table, p) * tau_at(table, p ** a) - p ** 11 * tau_at(table, p ** (a - 1))
            if tau_at(table, p ** (a + 1)) != nxt:
                failures.append((p, a))
            a += 1
    return failures


def _trial_division_divisor_count(n):
    return sum(1 for k in range(1, n + 1) if n % k == 0)


def _oracle_deligne(table):
    best, argmax, violations = Fraction(0), 1, []
    for n in range(1, table.limit + 1):
        ratio = Fraction(tau_at(table, n) ** 2, _trial_division_divisor_count(n) ** 2 * n ** 11)
        if ratio > 1:
            violations.append(n)
        if ratio > best:
            best, argmax = ratio, n
    return DeligneReport(table.limit, best, argmax, tuple(violations))


@given(
    st.integers(1, 400),
    st.lists(st.tuples(st.integers(1, 400), st.integers(-(10 ** 30), 10 ** 30).filter(bool)),
             max_size=3),
)
@settings(max_examples=60, deadline=None)
def test_check_loops_match_their_oracles(table, limit, perturbations):
    tau = list(table.tau[: limit + 1])
    for n, delta in perturbations:
        tau[(n - 1) % limit + 1] += delta
    bent = TauTable(limit, tuple(tau))
    moll = mollifier_from(bent)
    assert moll == _oracle_mollifier(bent)
    assert convolution_values(bent, moll) == _oracle_convolution(bent, moll, limit)
    assert multiplicativity_failures(bent) == _oracle_multiplicativity(bent)
    assert hecke_recursion_failures(bent) == _oracle_recursion(bent)
    assert deligne_check(bent) == _oracle_deligne(bent)


def _constant(n, c):
    """The terms of the constant series c + c q + ... + c q^{n-1}."""
    return n, [(i, c) for i in range(n)]


@given(st.integers(1, 80).flatmap(lambda n: st.tuples(st.just(n), st.dictionaries(
    # a few terms anywhere in [0, n + 10), so the support may run past
    # n / 2 and past the truncation
    st.integers(0, n + 9), st.integers(-(10 ** 12), 10 ** 12), max_size=12,
).map(lambda terms: sorted(terms.items())))))
@example((1, [(0, -7)]))  # n = 1, a negative constant term
# A constant series +-M of length n meets the Cauchy-Schwarz bound of the
# block width at c_{n-1} = n M^2: 2 n M^2 just below 10^d (at d = 2, 2, 9)
# leaves no digit to spare, and 2 n M^2 = 10^d (at d = 2, 4, 9) needs d + 1.
@example(_constant(1, 7))
@example(_constant(3, 4))
@example(_constant(3, -4))
@example(_constant(5, 9999))
@example(_constant(5, -9999))
@example(_constant(2, 5))
@example(_constant(2, -5))
@example(_constant(8, 25))
@example(_constant(8, -25))
@example(_constant(5, 10 ** 4))
@example(_constant(5, -(10 ** 4)))
@settings(max_examples=80, deadline=None)
def test_sparse_square_matches_packed_square(case):
    n, terms = case
    f = [dict(terms).get(i, 0) for i in range(n)]
    expected = [sum(f[i] * f[k - i] for i in range(k + 1)) for k in range(n)]
    assert hecke._sparse_square(terms, n) == hecke._series_square(f, n) == expected


def test_tables_reject_a_wrong_length():
    with pytest.raises(ValueError, match="has 10 entries"):
        TauTable(10, (0,) * 10)
    with pytest.raises(ValueError, match="has 12 entries"):
        MollifierTable(10, (0,) * 12)


def test_tau_against_naive_oracle(table):
    small = 64
    oracle = naive_tau(small)
    for n in range(1, small + 1):
        assert tau_at(table, n) == oracle[n]


@pytest.mark.parametrize("limit", [*range(1, 41), 400])
def test_tau_kernel_against_naive_oracle(limit):
    # 1..40 crosses the first Jacobi exponents (0, 1, 3, 6, ..., 36) and
    # the limits where a packing width grows by a digit (``WIDTH_STEPS``):
    # d1 at 2, 3, 5, 10, 22 and d2 at 2, 3, 6, 10, 12, 17, 21, 35
    assert list(compute_tau(limit).tau) == naive_tau(limit)


# The limits up to 20000 where compute_tau's block widths change: d1, from
# 2 sum eta6_i^2 < 10^d1, or d2, from 2 limit max|eta12_i|^2 < 10^d2.
WIDTH_STEPS = (2, 3, 5, 6, 10, 12, 17, 21, 22, 35, 44, 49, 64, 94, 96, 127, 192,
               203, 289, 402, 430, 633, 840, 921, 1315, 1920, 1990, 2604, 3547,
               4267, 5187, 7852, 9219, 10986, 16066, 19858)


@pytest.fixture(scope="module")
def table_20000():
    return compute_tau(20000)


def _widths(monkeypatch, limit):
    """compute_tau(limit) and the block widths of its two packed squares."""
    widths = []
    square = hecke._packed_square

    def spy(packed, h_in, d, n):
        widths.append(d)
        return square(packed, h_in, d, n)

    monkeypatch.setattr(hecke, "_packed_square", spy)
    table = compute_tau(limit)
    monkeypatch.undo()
    return table, tuple(widths)


def test_width_steps_are_every_change_to_20000():
    eta6 = hecke._sparse_square(hecke._eta_cubed(20000), 20000)
    eta12 = hecke._series_square(eta6, 20000)
    steps, last, squares, top = [], (1, 1), 0, 0
    for limit in range(1, 20001):
        squares += eta6[limit - 1] ** 2
        top = max(top, abs(eta12[limit - 1]))
        widths = (len(str(2 * squares)), len(str(2 * limit * top * top)))
        assert widths[1] >= widths[0]  # so d2 is the rule's, never d1's
        if widths != last:
            steps.append(limit)
        last = widths
    assert tuple(steps) == WIDTH_STEPS


@pytest.mark.parametrize("limit", sorted({s for step in WIDTH_STEPS for s in (step - 1, step)}))
def test_tau_at_each_width_step(monkeypatch, table_20000, limit):
    table, widths = _widths(monkeypatch, limit)
    assert table.tau == table_20000.tau[: limit + 1]
    if limit in WIDTH_STEPS:
        assert widths != _widths(monkeypatch, limit - 1)[1]


@given(st.integers(1, LIMIT))
@settings(max_examples=40, deadline=None)
def test_tau_tables_are_prefixes(table, limit):
    assert compute_tau(limit).tau == table.tau[: limit + 1]


def test_hecke_verify_20000_output_pinned(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["zdx", "hecke-verify", "--limit", "20000"])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    assert digest == "85faa71c3348bb65d054f5fc6ae74d8caef746a016f0e2e61fb33286280ce2af"


def test_tau_classical_values(table):
    assert tau_at(table, 1) == 1
    assert [tau_at(table, n) for n in range(2, 6)] == [-24, 252, -1472, 4830]
    assert tau_at(table, 6) == -6048 == tau_at(table, 2) * tau_at(table, 3)
    assert tau_at(table, 4) == tau_at(table, 2) ** 2 - 2 ** 11


def test_tau_limits():
    with pytest.raises(ValueError):
        compute_tau(0)
    with pytest.raises(TableLimitError):
        compute_tau(10 ** 7)
    with pytest.raises(IndexError):
        tau_at(compute_tau(10), 11)


def test_multiplicativity_exhaustive(table):
    assert multiplicativity_failures(table) == []


def test_hecke_recursion_exhaustive(table):
    assert hecke_recursion_failures(table) == []


def test_mollifier_local_values(table, moll):
    assert m_at(moll, 1) == 1
    for p in (2, 3, 5, 7, 11, 13):
        assert m_at(moll, p) == -tau_at(table, p)
        assert m_at(moll, p * p) == p ** 11
        if p ** 3 <= LIMIT:
            assert m_at(moll, p ** 3) == 0
    # multiplicative: m(12) = m(4) m(3)
    assert m_at(moll, 12) == m_at(moll, 4) * m_at(moll, 3)


def test_mollifier_supported_on_cubefree(moll):
    def cubefree(n):
        p = 2
        while p * p * p <= n:
            if n % (p * p * p) == 0:
                return False
            p += 1
        return True

    for n in range(1, LIMIT + 1):
        assert (m_at(moll, n) == 0) == (not cubefree(n)), n


def test_convolution_identity_no_failures(table, moll):
    vals = convolution_values(table, moll)
    assert vals[1] == 1 and not any(vals[2:])
    assert verify_table(LIMIT).convolution_failures == []


def test_convolution_rejects_a_short_mollifier():
    with pytest.raises(ValueError, match="mollifier limit"):
        convolution_values(compute_tau(100), mollifier_from(compute_tau(50)))


@pytest.mark.parametrize("n, value", [(1, 2), (8, 1), (12, 1), (14, -5), (54, 3), (299, 1)])
def test_convolution_rejects_a_non_multiplicative_mollifier(table, moll, n, value):
    # a product of local factors equals the sum over d k = n only for the
    # multiplicative m that vanishes on cubes; any other m is refused
    tau, m = _truncated(table, moll, 300)
    entries = list(m.m)
    entries[n] += value
    if n > 1:  # a second defect after the first: the message names the first
        entries[n + 1] += 1
    with pytest.raises(ValueError, match=f"not multiplicative .* at n = {n}$"):
        convolution_values(tau, MollifierTable(300, tuple(entries)))


def test_convolution_of_another_multiplicative_mollifier(table):
    # any local values m(p), m(p^2), with m(p^a) = 0 for a >= 3: the Euler
    # product still gives the sum over d k = n
    spf = hecke._smallest_prime_factors(300)
    a, rest = hecke._prime_powers(spf)
    m = [0, 1]
    for n in range(2, 301):
        m.append(m[rest[n]] * ((-1) ** a[n] * (spf[n] + a[n]) if a[n] <= 2 else 0))
    tau, moll = TauTable(300, table.tau[:301]), MollifierTable(300, tuple(m))
    vals = convolution_values(tau, moll)
    assert vals == _oracle_convolution(tau, moll, 300)
    assert vals[2] == m[2] + tau_at(table, 2) == -27


def test_multiplicativity_defect_beyond_the_root(table):
    # tau(2 * 997) is checked only as the pair (2, 997), whose larger member
    # is above sqrt(2000): the one pass fails there and the pairs name it
    tau = list(table.tau)
    tau[2 * 997] += 1
    bent = TauTable(LIMIT, tuple(tau))
    assert multiplicativity_failures(bent) == _oracle_multiplicativity(bent) == [(2, 997)]


@pytest.mark.parametrize("tau1", [0, 2, -2])
@pytest.mark.parametrize("violation", [None, 6, 1999])
def test_deligne_with_a_bent_unit(table, tau1, violation):
    # tau(1) sets the first ratio; a running maximum above 1, or one of 0
    # that any nonzero entry replaces, still gives the oracle's report
    tau = list(table.tau[:2001])
    tau[1] = tau1
    if violation:
        tau[violation] *= 10 ** 6
    bent = TauTable(LIMIT, tuple(tau))
    assert deligne_check(bent) == _oracle_deligne(bent)
    expected = ((1,) if tau1 else ()) + ((violation,) if violation else ())
    assert deligne_check(bent).violations == expected


@pytest.mark.parametrize("offset", [0, 1])
@pytest.mark.parametrize("sign", [1, -1])
def test_deligne_at_the_edge_of_the_bound(table, sign, offset):
    # tau(n) = +-floor(d(n) n^5.5), on the bound at squares and just inside it
    # elsewhere, or one more, just past it: the float screen must pass both
    # on to the exact compare, alone and among the table's true values
    d = divisor_counts(LIMIT)
    edge = [0, *(sign * (math.isqrt(d[n] ** 2 * n ** 11) + offset) for n in range(1, LIMIT + 1))]
    mixed = [e if n % 3 == 1 else t for n, (t, e) in enumerate(zip(table.tau, edge))]
    for tau in edge, mixed:
        bent = TauTable(LIMIT, tuple(tau))
        assert deligne_check(bent) == _oracle_deligne(bent)
    assert deligne_check(TauTable(LIMIT, tuple(edge))).violations == (
        tuple(range(1, LIMIT + 1)) if offset else ())


def test_convolution_unit_and_spot_values(table, moll):
    vals = convolution_values(*_truncated(table, moll, 12))
    assert vals[1] == 1
    # n = 4: m(1) tau(4) + m(2) tau(2) + m(4) tau(1) = -1472 + 24*(-24) + 2048
    assert (m_at(moll, 1) * tau_at(table, 4) + m_at(moll, 2) * tau_at(table, 2)
            + m_at(moll, 4) * tau_at(table, 1)) == 0
    assert vals[4] == 0
    assert vals[12] == 0


def test_deligne_bound_holds(table):
    rep = deligne_check(table)
    assert rep.ok
    assert rep.max_ratio == Fraction(1)  # equality at n = 1
    assert rep.argmax == 1
    # spot check n = 2: 576 <= 4 * 2048
    assert tau_at(table, 2) ** 2 == 576 <= 4 * 2 ** 11


def divisor_counts(limit):
    """d(n) for n = 0..limit from the kernel ``deligne_check`` reads."""
    return hecke._divisor_counts(*hecke._prime_powers(hecke._smallest_prime_factors(limit)))


def test_divisor_counts():
    d = divisor_counts(12)
    assert d[1:] == [1, 2, 2, 3, 2, 4, 2, 4, 3, 4, 2, 6]
    assert divisor_counts(0) == [0]
    expected = [0] + [_trial_division_divisor_count(n) for n in range(1, 301)]
    for limit in range(301):
        assert divisor_counts(limit) == expected[:limit + 1], limit


def test_smallest_prime_factors_against_trial_division():
    def spf(n):
        return next((p for p in range(2, math.isqrt(n) + 1) if n % p == 0), n)

    expected = [0, 1] + [spf(n) for n in range(2, 3001)]
    for limit in [*range(301), 3000]:
        assert hecke._smallest_prime_factors(limit) == expected[:limit + 1], limit


def test_prime_powers_against_repeated_division():
    def split(n):
        p = next((p for p in range(2, math.isqrt(n) + 1) if n % p == 0), n)
        a = 0
        while n % p == 0:
            n, a = n // p, a + 1
        return a, n

    expected = [(0, 0), (0, 1)] + [split(n) for n in range(2, 3001)]
    for limit in [*range(301), 3000]:
        a, rest = hecke._prime_powers(hecke._smallest_prime_factors(limit))
        assert list(zip(a, rest)) == expected[:limit + 1], limit


def test_verify_table_sieves_once(monkeypatch):
    sieve, limits = hecke._smallest_prime_factors, []

    def counted(limit):
        limits.append(limit)
        return sieve(limit)

    monkeypatch.setattr(hecke, "_smallest_prime_factors", counted)
    assert verify_table(300).ok
    # the sieve to 300 recurses to sieve its primes up to sqrt(300)
    assert limits.count(300) == 1


@pytest.mark.parametrize("bent", [False, True], ids=["true", "perturbed"])
def test_convolution_at_split_boundaries(table, bent):
    # tables of size upto at and next to a square s^2, where a prime's m(p^2)
    # slice first fits, each cut from one table
    roots = (1, 2, 3, 5, 12, 31)
    limit = (roots[-1] + 1) ** 2 + 5
    tau = list(table.tau[:limit + 1])
    if bent:
        for n, delta in ((1, 3), (2, -1), (7, 5), (36, 10 ** 25), (1000, -2)):
            tau[n] += delta
    small = TauTable(limit, tuple(tau))
    moll = mollifier_from(small)
    for s in roots:
        # s = 1 gives upto = 0 too, with no terms
        for upto in (1, 2, 3, s * s - 1, s * s, s * s + 1, s * s + 2 * s, (s + 1) ** 2):
            assert convolution_values(*_truncated(small, moll, upto)) == \
                _oracle_convolution(small, moll, upto), (s, upto)


def test_csv_text_matches_csv_writer(monkeypatch, table):
    tau = list(table.tau[:301])
    tau[7] += 1
    tau[300] = -(10 ** 40)
    monkeypatch.setattr(hecke, "compute_tau", lambda limit: hecke.TauTable(limit, tuple(tau)))
    rep = verify_table(300)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["n", "tau", "m", "convolution_value"])
    writer.writerows(zip(range(1, 301), rep.table.tau[1:], rep.mollifier.m[1:],
                         rep.convolution[1:]))
    res = CliRunner().invoke(cli, ["hecke-verify", "--limit", "300"])
    assert res.stdout == buf.getvalue()


def test_verify_table_report(table, moll):
    rep = verify_table(300)
    assert rep.ok
    assert rep.table.tau == table.tau[:301] and rep.mollifier.m == moll.m[:301]
    assert rep.convolution == [0, 1] + [0] * 299
    assert rep.convolution_failures == rep.recursion_failures == []
    assert rep.multiplicativity_failures == [] and rep.deligne.argmax == 1


def test_verify_table_names_witnesses(monkeypatch, table):
    tau = list(table.tau[:301])
    tau[7] += 1  # m is built from the table, so the damage shows first at n = 14
    monkeypatch.setattr(hecke, "compute_tau", lambda limit: hecke.TauTable(limit, tuple(tau)))
    rep = verify_table(300)
    assert not rep.ok
    assert rep.convolution_failures[0] == ConvolutionWitness(14, 24, 0)
    assert rep.convolution[14] == 24
    assert rep.recursion_failures[0] == (7, 1)
    assert rep.multiplicativity_failures[0] == (2, 7)
