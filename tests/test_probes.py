import math

import numpy as np
import pytest

from zdx.probes import (
    DimensionMismatch,
    VectorSystem,
    hm_inequality_check,
    hm_random_system,
    hm_random_trials,
    lanczos_gamma,
    mellin_probe,
    zeta_em,
    zeta_growth_scan,
)


# -- gamma kernel --------------------------------------------------------------

def test_lanczos_gamma_known_values():
    assert abs(lanczos_gamma(5) - 24) < 1e-10
    assert abs(lanczos_gamma(0.5) - math.sqrt(math.pi)) < 1e-13
    # reflection path
    assert abs(lanczos_gamma(-0.5) + 2 * math.sqrt(math.pi)) < 1e-12
    # |Gamma(1 + i)| = sqrt(pi / sinh(pi))
    assert abs(abs(lanczos_gamma(1j + 1)) - math.sqrt(math.pi / math.sinh(math.pi))) < 1e-12


# -- bilinear inequality ---------------------------------------------------------

def test_hm_reduces_to_cauchy_schwarz():
    rng = np.random.default_rng(7)
    xi = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    phi = rng.standard_normal((1, 16)) + 1j * rng.standard_normal((1, 16))
    res = hm_inequality_check(VectorSystem(xi, phi))
    # R = 1: |(xi, phi)| <= ||xi|| ||phi||
    assert res.lhs <= res.rhs + 1e-12
    assert abs(res.rhs - np.linalg.norm(xi) * np.linalg.norm(phi)) < 1e-9


def test_hm_orthonormal_bessel_type():
    rng = np.random.default_rng(11)
    xi = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    phis = np.eye(4, 8, dtype=np.complex128)
    res = hm_inequality_check(VectorSystem(xi, phis))
    norm = np.linalg.norm(xi)
    assert abs(res.rhs - 2 * norm) < 1e-12  # ||xi|| * sqrt(R), R = 4
    assert res.lhs <= 2 * norm + 1e-12


def test_hm_inner_product_conjugates_second_argument():
    xi = np.array([1 + 1j, 0])
    phis = np.array([[1 + 1j, 0]])
    res = hm_inequality_check(VectorSystem(xi, phis))
    # (xi, phi) = (1+i)(1-i) = 2, a real value; norms are sqrt(2) each
    assert abs(res.lhs - 2) < 1e-14
    assert abs(res.rhs - 2) < 1e-14


def test_hm_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        VectorSystem(np.zeros(3), np.zeros((2, 4)))
    with pytest.raises(DimensionMismatch):
        VectorSystem(np.zeros(3), np.zeros((0, 3)))


def test_hm_seeded_batch_deterministic():
    a = hm_random_trials(200, seed=99)
    b = hm_random_trials(200, seed=99)
    assert a == b
    assert a.ok


def test_hm_random_system_caps():
    for i in range(50):
        sys_i = hm_random_system(1000 + i, dim_cap=64, r_cap=16)
        assert 1 <= sys_i.xi.shape[0] <= 64
        assert 1 <= sys_i.phis.shape[0] <= 16


# -- gamma-kernel quadrature ------------------------------------------------------

@pytest.mark.parametrize("x", [0.5, 1.0, 2.0])
def test_mellin_probe_hits_exponential(x):
    res = mellin_probe(x, halfwidth=40.0, steps=4000)
    assert res.abs_error < 1e-6
    assert res.imag_residual < 1e-8


def test_mellin_simpson_convergence():
    # doubling the panel count cuts the error by at least 4x while the
    # quadrature error dominates the truncation/precision floors
    for x in (0.5, 1.0, 2.0, 4.0):
        e20 = mellin_probe(x, steps=20).abs_error
        e40 = mellin_probe(x, steps=40).abs_error
        e80 = mellin_probe(x, steps=80).abs_error
        assert e20 >= 4 * e40
        assert e40 >= 4 * e80


def test_mellin_domain_errors():
    with pytest.raises(ValueError):
        mellin_probe(-1.0)
    with pytest.raises(ValueError):
        mellin_probe(1.0, line=0.0)
    with pytest.raises(ValueError):
        mellin_probe(1.0, steps=0)


# -- zeta scan ----------------------------------------------------------------------

def test_zeta_em_real_point():
    assert abs(zeta_em(complex(0.75, 0)) - (-3.4412853869455)) < 1e-9


def test_zeta_scan_shape_and_t0():
    rows = zeta_growth_scan(5 / 7, 50.0, 6, 1 / 14)
    assert len(rows) == 6
    t0, z0, ratio0 = rows[0]
    assert t0 == 0.0
    assert math.isfinite(z0) and z0 > 0
    assert ratio0 == z0  # (1 + 0)^kappa = 1
    assert rows[-1][0] == 50.0


def test_zeta_scan_domain():
    with pytest.raises(ValueError):
        zeta_growth_scan(0.5, 10, 5, 0.1)  # sigma0 on the critical line
    with pytest.raises(ValueError):
        zeta_growth_scan(0.75, 20000, 5, 0.1)
