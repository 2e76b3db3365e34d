import hashlib
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zdx import hecke
from zdx.cli import main
from zdx.hecke import (
    ConvolutionWitness,
    DxValue,
    TableLimitError,
    compute_tau,
    convolution_identity_check,
    convolution_values,
    d_x,
    deligne_check,
    divisor_counts,
    hecke_recursion_failures,
    mollifier_from,
    multiplicativity_failures,
    verify_table,
)

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


def test_tau_against_naive_oracle(table):
    small = 64
    oracle = naive_tau(small)
    for n in range(1, small + 1):
        assert table[n] == oracle[n]


@pytest.mark.parametrize("limit", [*range(1, 41), 400])
def test_tau_kernel_against_naive_oracle(limit):
    # 1..40 crosses the first Jacobi exponents (0, 1, 3, 6, ..., 36) and
    # the sizes where the packing width grows by a digit
    assert list(compute_tau(limit).tau) == naive_tau(limit)


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
    assert table[1] == 1
    assert [table[n] for n in range(2, 6)] == [-24, 252, -1472, 4830]
    assert table[6] == -6048 == table[2] * table[3]
    assert table[4] == table[2] ** 2 - 2 ** 11


def test_tau_limits():
    with pytest.raises(ValueError):
        compute_tau(0)
    with pytest.raises(TableLimitError):
        compute_tau(10 ** 7)
    with pytest.raises(IndexError):
        compute_tau(10)[11]


def test_multiplicativity_exhaustive(table):
    assert multiplicativity_failures(table) == []


def test_hecke_recursion_exhaustive(table):
    assert hecke_recursion_failures(table) == []


def test_mollifier_local_values(table, moll):
    assert moll[1] == 1
    for p in (2, 3, 5, 7, 11, 13):
        assert moll[p] == -table[p]
        assert moll[p * p] == p ** 11
        if p ** 3 <= LIMIT:
            assert moll[p ** 3] == 0
    # multiplicative: m(12) = m(4) m(3)
    assert moll[12] == moll[4] * moll[3]


def test_mollifier_supported_on_cubefree(moll):
    def cubefree(n):
        p = 2
        while p * p * p <= n:
            if n % (p * p * p) == 0:
                return False
            p += 1
        return True

    for n in range(1, LIMIT + 1):
        assert (moll[n] == 0) == (not cubefree(n)), n


def test_convolution_identity_no_failures(table, moll):
    assert convolution_identity_check(table, LIMIT, moll) == []


def test_convolution_unit_and_spot_values(table, moll):
    vals = convolution_values(table, moll, 12)
    assert vals[1] == 1
    # n = 4: m(1) tau(4) + m(2) tau(2) + m(4) tau(1) = -1472 + 24*(-24) + 2048
    assert moll[1] * table[4] + moll[2] * table[2] + moll[4] * table[1] == 0
    assert vals[4] == 0
    assert vals[12] == 0


def test_dx_full_inverse_below_x(table, moll):
    for n in range(2, 40):
        assert d_x(n, 40, table, moll).value == 0
    assert d_x(1, 10, table, moll).value == 1


def test_dx_prime_above_x(table, moll):
    # only d = 1 contributes
    assert d_x(101, 10, table, moll) == DxValue(101, 10, table[101])


def test_dx_two_term_cancellation(table, moll):
    # n = 2p, p prime > X >= 2: contributions of d = 1 and d = 2 cancel
    for p in (101, 499, 997):
        assert d_x(2 * p, 2, table, moll).value == 0


def test_deligne_bound_holds(table):
    rep = deligne_check(table)
    assert rep.ok
    assert rep.max_ratio == Fraction(1)  # equality at n = 1
    assert rep.argmax == 1
    # spot check n = 2: 576 <= 4 * 2048
    assert table[2] ** 2 == 576 <= 4 * 2 ** 11


def test_divisor_counts():
    d = divisor_counts(12)
    assert d[1:] == [1, 2, 2, 3, 2, 4, 2, 4, 3, 4, 2, 6]


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
