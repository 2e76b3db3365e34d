import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zdx import Inadmissible, probes
from zdx.probes import (
    MAX_TRIALS,
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
from oracles import rel_slack


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


def _hm_random_system_oracle(seed: int, dim_cap: int, r_cap: int) -> VectorSystem:
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


def _set_caps(monkeypatch, dim_cap, r_cap):
    """Draw with other caps than the fixed 64 and 16, for the layout's edge shapes."""
    assert (probes.HM_DIM_CAP, probes.HM_R_CAP) == (64, 16)
    monkeypatch.setattr(probes, "HM_DIM_CAP", dim_cap)
    monkeypatch.setattr(probes, "HM_R_CAP", r_cap)


@pytest.mark.parametrize("dim_cap, r_cap, trials", [
    (64, 16, 300), (1, 1, 50), (1, 16, 100), (64, 1, 100), (9, 3, 200), (1024, 1024, 3),
])
@pytest.mark.parametrize("seed", [0, 7, 2**32 - 2, 2**32, 2**64 + 12345])
def test_hm_trials_match_four_draw_oracle_bit_for_bit(monkeypatch, dim_cap, r_cap, trials, seed):
    _set_caps(monkeypatch, dim_cap, r_cap)
    rep = hm_random_trials(trials, seed)
    for i, (dim, r, lhs, rhs, _) in enumerate(rep.rows):
        system = _hm_random_system_oracle(seed + i, dim_cap, r_cap)
        want = _hm_inequality_check_oracle(system)
        assert (dim, r) == system.phis.shape[::-1], (seed, i)
        assert (lhs, rhs) == (want.lhs, want.rhs), (seed, i)
        if i < 3:  # the public wrappers draw and measure the same system
            drawn = hm_random_system(seed + i)
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
def test_hm_draw_matches_sum_draw_bit_for_bit(monkeypatch, dim_cap, r_cap, trials, seed):
    """Each shape's block draw holds every member's one-draw ``re + 1j * im``,
    and the stacked pass gives each member the sides it gets alone."""
    _set_caps(monkeypatch, dim_cap, r_cap)
    groups = {}
    for i in range(trials):
        bit_generator = np.random.default_rng(seed + i).bit_generator
        groups.setdefault(probes._hm_shape(bit_generator), []).append((i, bit_generator))
    for (dim, r), members in groups.items():
        xi, phis = probes._hm_systems([bit_generator for _, bit_generator in members], dim, r)
        assert xi.shape == (len(members), dim) and phis.shape == (len(members), r, dim)
        lhs, rhs = probes._hm_sides(xi, phis)
        for k, (i, _) in enumerate(members):
            want_xi, want_phis = _hm_draw_sum_oracle(np.random.default_rng(seed + i),
                                                     dim_cap, r_cap)
            for got, want in ((xi[k], want_xi), (phis[k], want_phis)):
                assert got.shape == want.shape and got.dtype == want.dtype, (seed, i)
                assert got.flags.c_contiguous and want.flags.c_contiguous, (seed, i)
                assert got.tobytes() == want.tobytes(), (seed, i)
            alone = probes._hm_sides(want_xi[None], want_phis[None])
            assert (lhs[k], rhs[k]) == (alone[0][0], alone[1][0]), (seed, i)


#: Caps on both sides of the decode's edges: no draw (1), powers of two,
#: which never redraw, a cap whose redraw threshold is 1 (3), one that redraws
#: about half of its draws (2**31 + 1), and the largest, 2**32.
DECODE_CAPS = [1, 2, 3, 9, 16, 64, 1024, 2**31 + 1, 2**32]


@settings(max_examples=400, deadline=None)
@given(seed=st.integers(0, 2**70), dim_cap=st.sampled_from(DECODE_CAPS),
       r_cap=st.sampled_from(DECODE_CAPS))
def test_shape_decode_matches_generator_integers(seed, dim_cap, r_cap):
    """The raw-word decode gives the two ``Generator.integers`` draws, and
    the normals drawn after it are those drawn after them."""
    with pytest.MonkeyPatch.context() as mp:
        _set_caps(mp, dim_cap, r_cap)
        bit_generator = np.random.PCG64(seed)
        shape = probes._hm_shape(bit_generator)
    rng = np.random.default_rng(seed)
    assert shape == (int(rng.integers(1, dim_cap + 1)), int(rng.integers(1, r_cap + 1)))
    after = np.random.Generator(bit_generator).standard_normal(5)
    assert after.tobytes() == rng.standard_normal(5).tobytes()


def _mutant_shape(bit_generator):
    """``_hm_shape`` with an off-by-one threshold: 2**32 mod (cap - 1), NumPy's
    range in place of the cap.  It agrees with NumPy except where a draw
    falls in between, about half of the draws at a cap of 2**31 + 1."""
    shape, half = [], None
    for cap in probes.HM_DIM_CAP, probes.HM_R_CAP:
        m = 0
        if cap > 1:
            threshold = (1 << 32) % (cap - 1)
            while True:
                if half is None:
                    word = bit_generator.random_raw()
                    u, half = word & 0xFFFFFFFF, word >> 32
                else:
                    u, half = half, None
                m = u * cap
                if m & 0xFFFFFFFF >= threshold:
                    break
        shape.append(1 + (m >> 32))
    return shape[0], shape[1]


def _agrees(shape, seed):
    rng = np.random.default_rng(seed)
    want = int(rng.integers(1, probes.HM_DIM_CAP + 1)), int(rng.integers(1, probes.HM_R_CAP + 1))
    return shape(np.random.PCG64(seed)) == want


def test_off_by_one_threshold_trips_the_chunk_guard(monkeypatch):
    """The guard checks the first trial of every chunk, and only those."""
    _set_caps(monkeypatch, 2**31 + 1, 1)
    monkeypatch.setattr(probes, "_HM_CHUNK", 2)
    # the guard runs before any system is drawn; none of this size is drawn here
    monkeypatch.setattr(probes, "_hm_systems",
                        lambda bit_generators, dim, r: (np.ones((len(bit_generators), 1)),
                                                        np.ones((len(bit_generators), 1, 1))))
    seed = next(s for s in range(1000) if _agrees(_mutant_shape, s)
                and not _agrees(_mutant_shape, s + 1) and not _agrees(_mutant_shape, s + 2))
    assert all(_agrees(probes._hm_shape, s) for s in range(seed, seed + 4))
    assert hm_random_trials(4, seed).ok
    monkeypatch.setattr(probes, "_hm_shape", _mutant_shape)
    # trial 1 is wrong but unchecked; trial 2 starts the second chunk
    with pytest.raises(RuntimeError, match=f"seed {seed + 2} differs"):
        hm_random_trials(4, seed)
    with pytest.raises(RuntimeError, match=f"seed {seed + 1} differs"):
        hm_random_system(seed + 1)


def test_trials_over_budget_are_refused_before_seeding(monkeypatch):
    def no_seeding(seed, count):
        raise AssertionError("seeded a batch over the budget")

    monkeypatch.setattr(probes, "_seeded_rngs", no_seeding)
    with pytest.raises(Inadmissible, match=f"exceeds the harness budget of {MAX_TRIALS}"):
        hm_random_trials(MAX_TRIALS + 1, seed=1)


@pytest.mark.parametrize("chunk", [3, 7])
@pytest.mark.parametrize("seed, trials", [(2**32 - 10, 25), (2**32 - 3, 7), (2**64 - 8, 16)])
def test_hm_chunks_match_one_pass(monkeypatch, chunk, seed, trials):
    """Rows do not depend on how many trials are in flight, also where a
    chunk and the seeds' entropy words change at different trials."""
    whole = hm_random_trials(trials, seed)
    monkeypatch.setattr(probes, "_HM_CHUNK", chunk)
    assert hm_random_trials(trials, seed) == whole
    monkeypatch.setattr(probes, "_SEED_BLOCK", 4)
    assert hm_random_trials(trials, seed) == whole


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
    bit_generators = list(probes._seeded_rngs(first, count))
    assert len(bit_generators) == count
    for s, bit_generator in zip(range(first, first + count), bit_generators):
        assert bit_generator.state == np.random.default_rng(s).bit_generator.state, s


def test_seeded_rngs_across_blocks(monkeypatch):
    monkeypatch.setattr(probes, "_SEED_BLOCK", 4)
    first = 2**32 - 6  # blocks of 4, 2 (cut at 2**32), 4 and 1 seeds
    bit_generators = list(probes._seeded_rngs(first, 11))
    for s, bit_generator in zip(range(first, first + 11), bit_generators, strict=True):
        assert bit_generator.state == np.random.default_rng(s).bit_generator.state, s
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
        hm_random_trials(5000, seed=1)


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
                                           rel_slack(res))
    assert rep.max_rel_slack == rep.rows[rep.worst_trial][4]


def test_hm_random_system_caps():
    for i in range(50):
        sys_i = hm_random_system(1000 + i)
        assert 1 <= sys_i.xi.shape[0] <= 64
        assert 1 <= sys_i.phis.shape[0] <= 16


# -- gamma-kernel quadrature ------------------------------------------------------

@pytest.mark.parametrize("x", [0.5, 1.0, 2.0])
def test_mellin_probe_hits_exponential(x):
    res = mellin_probe(x)
    assert res.abs_error < 1e-6
    assert res.imag_residual < 1e-8


def test_mellin_points_share_one_gamma_grid():
    probes._gamma_grid.cache_clear()
    for x in (0.5, 1.0, 2.0):
        mellin_probe(x)
    assert probes._gamma_grid.cache_info()[:2] == (2, 1)  # (hits, misses)
    assert len(probes._gamma_grid()) == 2 * probes.MELLIN_STEPS + 1


def test_mellin_domain_errors():
    for x in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            mellin_probe(x)


# -- zeta scan ----------------------------------------------------------------------

def test_zeta_em_real_point():
    assert abs(zeta_em(complex(0.75, 0)) - (-3.4412853869455)) < 1e-9


def _zeta_em_numpy(s: complex) -> complex:
    """The numpy ``zeta_em`` that the pure-Python one must match bit for bit."""
    m = int(math.ceil(abs(s.imag))) + 50
    n = np.arange(1, m + 1, dtype=np.float64)
    head = np.exp(-s * np.log(n)).sum()
    tail = m ** (1 - s) / (s - 1) - 0.5 * m ** (-s)
    corr1 = s * m ** (-s - 1) / 12.0
    corr2 = -s * (s + 1) * (s + 2) * m ** (-s - 3) / 720.0
    return complex(head + tail + corr1 + corr2)


# t = 0, 14, 15 and 1000 take m = 50, 64, 65 and 1050 terms, on both sides
# of the 64-term (128-double) block of the pairwise sum
@settings(max_examples=200, deadline=None)
@given(sigma=st.floats(0.5, 1.0, exclude_min=True, exclude_max=True),
       t=st.floats(0.0, 1000.0))
@example(sigma=5 / 7, t=0.0)
@example(sigma=5 / 7, t=14.0)
@example(sigma=5 / 7, t=15.0)
@example(sigma=5 / 7, t=1000.0)
@example(sigma=0.75, t=14.5)
# past the scan's log table, which ends at m = 1050
@example(sigma=0.8, t=1000.5)
@example(sigma=0.8, t=2345.25)
@example(sigma=0.8, t=-1500.0)
def test_zeta_em_matches_numpy_formula_bit_for_bit(sigma, t):
    got, want = zeta_em(complex(sigma, t)), _zeta_em_numpy(complex(sigma, t))
    assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())


def test_zeta_scan_shape_and_t0():
    rows = zeta_growth_scan(5 / 7, 1 / 14)
    assert [t for t, _, _ in rows] == [1000.0 * j / 100 for j in range(101)]
    t0, z0, ratio0 = rows[0]
    assert t0 == 0.0
    assert math.isfinite(z0) and z0 > 0
    assert ratio0 == z0  # (1 + 0)^kappa = 1
    assert rows[-1][0] == 1000.0


def test_zeta_scan_domain():
    with pytest.raises(ValueError):
        zeta_growth_scan(0.5, 0.1)  # sigma0 on the critical line
    with pytest.raises(ValueError):
        zeta_growth_scan(1.0, 0.1)
