import math

import numpy as np
import pytest

from zdx import probes
from zdx.probes import (
    DimensionMismatch,
    HMResult,
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


def test_hm_trials_report_each_trial():
    rep = hm_random_trials(50, seed=3)
    assert len(rep.rows) == rep.trials == 50
    for i in sorted({0, rep.worst_trial, 49}):
        system = hm_random_system(3 + i)
        dim, r, lhs, rhs, _ = rep.rows[i]
        assert (dim, r) == (system.xi.shape[0], system.phis.shape[0])
        assert HMResult(lhs, rhs) == hm_inequality_check(system)
    slacks = [row[4] for row in rep.rows]
    assert rep.max_rel_slack == max(slacks) == slacks[rep.worst_trial]


def _hm_random_system_oracle(seed: int, dim_cap: int = 64, r_cap: int = 16) -> VectorSystem:
    """The four-draw ``hm_random_system`` that ``hm_random_trials`` must match."""
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, dim_cap + 1))
    r = int(rng.integers(1, r_cap + 1))
    xi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    phis = rng.standard_normal((r, dim)) + 1j * rng.standard_normal((r, dim))
    return VectorSystem(xi, phis)


def _hm_inequality_check_oracle(system: VectorSystem) -> HMResult:
    """The ``hm_inequality_check`` that ``hm_random_trials`` must match."""
    inner = system.phis.conj() @ system.xi  # (xi, phi_r) entries
    lhs = float(np.abs(inner).sum())
    gram = system.phis @ system.phis.conj().T
    rhs = float(np.linalg.norm(system.xi) * math.sqrt(np.abs(gram).sum()))
    return HMResult(lhs, rhs)


@pytest.mark.parametrize("dim_cap, r_cap, trials", [
    (64, 16, 300), (1, 1, 50), (1, 16, 100), (64, 1, 100), (9, 3, 200), (1024, 1024, 3),
])
@pytest.mark.parametrize("seed", [0, 7, 2**32 - 2, 2**32, 2**64 + 12345])
def test_hm_trials_match_four_draw_oracle_bit_for_bit(dim_cap, r_cap, trials, seed):
    rep = hm_random_trials(trials, seed, dim_cap, r_cap)
    for i, (dim, r, lhs, rhs, _) in enumerate(rep.rows):
        system = _hm_random_system_oracle(seed + i, dim_cap, r_cap)
        want = _hm_inequality_check_oracle(system)
        assert (dim, r) == system.phis.shape[::-1], (seed, i)
        assert (lhs, rhs) == (want.lhs, want.rhs), (seed, i)
        if i < 3:  # the public wrappers draw and measure the same system
            drawn = hm_random_system(seed + i, dim_cap, r_cap)
            assert drawn.xi.tobytes() == system.xi.tobytes()
            assert drawn.phis.tobytes() == system.phis.tobytes()
            assert hm_inequality_check(drawn) == want


def _hm_draw_sum_oracle(rng: np.random.Generator, dim_cap: int, r_cap: int):
    """The one-draw ``_hm_draw`` as ``re + 1j * im``, which its in-place fill must match."""
    dim = int(rng.integers(1, dim_cap + 1))
    r = int(rng.integers(1, r_cap + 1))
    z = rng.standard_normal(2 * dim * (r + 1)).reshape(2 * (r + 1), dim)
    return z[0] + 1j * z[1], z[2:r + 2] + 1j * z[r + 2:]


@pytest.mark.parametrize("dim_cap, r_cap, trials", [
    (64, 16, 500), (1, 1, 50), (9, 3, 200), (1024, 1024, 3),
])
@pytest.mark.parametrize("seed", [1, 7, 123456, 2**32])
def test_hm_draw_matches_sum_draw_bit_for_bit(dim_cap, r_cap, trials, seed):
    for i in range(trials):
        xi, phis = probes._hm_draw(np.random.default_rng(seed + i), dim_cap, r_cap)
        want_xi, want_phis = _hm_draw_sum_oracle(np.random.default_rng(seed + i), dim_cap, r_cap)
        for got, want in ((xi, want_xi), (phis, want_phis)):
            assert got.shape == want.shape and got.dtype == want.dtype, (seed, i)
            assert got.flags.c_contiguous and want.flags.c_contiguous, (seed, i)
            assert got.tobytes() == want.tobytes(), (seed, i)
        assert probes._hm_sides(xi, phis) == probes._hm_sides(want_xi, want_phis), (seed, i)


SEED_WORD_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**96 + 7]


@pytest.mark.parametrize("first, count", [
    *((s, 1) for s in SEED_WORD_SEEDS),
    (0, 4096), (2**32 - 5, 5), (2**32, 6), (2**64 - 5, 5), (2**64, 6),
    (2**128 - 2, 2), (2**128, 3),  # four and five entropy words, past the pool
])
def test_seed_words_match_seed_sequence(first, count):
    words = probes._seed_words(first, count)
    assert words.shape == (count, 4) and words.dtype == np.uint64
    for j, s in enumerate(range(first, first + count)):
        assert words[j].tolist() == np.random.SeedSequence(s).generate_state(4, np.uint64).tolist()


@pytest.mark.parametrize("first, count", [
    *((s, 1) for s in SEED_WORD_SEEDS),
    (2**32 - 5, 11),  # one and two entropy words
    (2**64 - 5, 11),  # two and three
    (2**128 - 2, 5),  # four and five
])
def test_seeded_rngs_match_default_rng(first, count):
    rngs = list(probes._seeded_rngs(first, count))
    assert len(rngs) == count
    for s, rng in zip(range(first, first + count), rngs):
        assert rng.bit_generator.state == np.random.default_rng(s).bit_generator.state, s


def test_seeded_rngs_across_blocks(monkeypatch):
    monkeypatch.setattr(probes, "_SEED_BLOCK", 4)
    first = 2**32 - 6  # blocks of 4, 2 (cut at 2**32), 4 and 1 seeds
    rngs = list(probes._seeded_rngs(first, 11))
    for s, rng in zip(range(first, first + 11), rngs, strict=True):
        assert rng.bit_generator.state == np.random.default_rng(s).bit_generator.state, s
    rep = hm_random_trials(11, first)
    for i, (dim, r, lhs, rhs, _) in enumerate(rep.rows):
        system = hm_random_system(first + i)
        res = hm_inequality_check(system)
        assert (dim, r, lhs, rhs) == (*system.phis.shape[::-1], res.lhs, res.rhs)


@pytest.mark.parametrize("bad_row", [0, 4095, 4096, 4999])
def test_seeded_rngs_refuse_wrong_words(monkeypatch, bad_row):
    """A block whose first or last seed disagrees with SeedSequence raises."""
    seed_words = probes._seed_words

    def corrupt(first, count):
        words = seed_words(first, count)
        if first <= 1 + bad_row < first + count:
            words[1 + bad_row - first, 2] ^= np.uint64(1)
        return words

    monkeypatch.setattr(probes, "_seed_words", corrupt)
    with pytest.raises(RuntimeError, match=f"seed words of {1 + bad_row} "):
        hm_random_trials(5000, seed=1, dim_cap=1, r_cap=1)


def test_hm_trials_reject_negative_seed():
    with pytest.raises(ValueError):
        hm_random_trials(3, seed=-1)


def test_hm_rows_carry_results():
    rep = hm_random_trials(40, seed=5)
    assert len(rep.rows) == 40
    for i, (dim, r, lhs, rhs, rel) in enumerate(rep.rows):
        system = hm_random_system(5 + i)
        res = hm_inequality_check(system)
        assert (dim, r, lhs, rhs, rel) == (*system.phis.shape[::-1], res.lhs, res.rhs,
                                           res.rel_slack)
    assert rep.max_rel_slack == rep.rows[rep.worst_trial][4]


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


def test_mellin_points_share_one_gamma_grid():
    probes._gamma_grid.cache_clear()
    for x in (0.5, 1.0, 2.0):
        mellin_probe(x, steps=50)
    assert probes._gamma_grid.cache_info()[:2] == (2, 1)  # (hits, misses)
    mellin_probe(1.0, line=3.0, steps=50)  # another grid replaces it
    assert probes._gamma_grid.cache_info().currsize == 1


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
