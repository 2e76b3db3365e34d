"""Floating-point desk checks for the analytic ingredients.

These verify inequalities with slack, not exact identities, so doubles
are appropriate here, gated by fixed tolerances that a NaN fails.
Everything is seeded and deterministic; the zeta scan is report-only and
never gates anything.
numpy is imported by the harness and zeta functions that use it, so the
gamma-kernel probe runs without it.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache
from typing import TYPE_CHECKING

from . import Inadmissible, Record

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "DimensionMismatch",
    "VectorSystem",
    "HMResult",
    "HM_REL_TOLERANCE",
    "MAX_DIM",
    "MAX_R",
    "MAX_STEPS",
    "MELLIN_ABS_TOL",
    "MELLIN_IMAG_TOL",
    "ProbeReport",
    "hm_inequality_check",
    "hm_random_system",
    "hm_random_trials",
    "lanczos_gamma",
    "MellinResult",
    "mellin_probe",
    "zeta_em",
    "zeta_growth_scan",
]


class DimensionMismatch(ValueError):
    """Vector system with inconsistent dimensions."""


# ---------------------------------------------------------------------------
# Bilinear large-values inequality
# ---------------------------------------------------------------------------

class VectorSystem:
    """A target vector xi and R test vectors phi_1..phi_R of equal length."""

    def __init__(self, xi: np.ndarray, phis: np.ndarray) -> None:
        import numpy as np

        self.xi = np.asarray(xi, dtype=np.complex128)
        self.phis = np.asarray(phis, dtype=np.complex128)  # shape (R, dim)
        if self.xi.ndim != 1 or self.phis.ndim != 2:
            raise DimensionMismatch("xi must be a vector and phis a matrix")
        if self.phis.shape[0] < 1:
            raise DimensionMismatch("need at least one test vector")
        if self.phis.shape[1] != self.xi.shape[0]:
            raise DimensionMismatch(
                f"xi has dim {self.xi.shape[0]} but phis have dim {self.phis.shape[1]}"
            )


class HMResult(Record):
    lhs: float
    rhs: float

    @property
    def rel_slack(self) -> float:
        return _rel_slack(self.lhs, self.rhs)


def _rel_slack(lhs: float, rhs: float) -> float:
    return (lhs - rhs) / rhs if rhs else math.inf


def _hm_sides(xi: np.ndarray, phis: np.ndarray) -> tuple[float, float]:
    """(lhs, rhs) of the inequality; ``hm_inequality_check`` without the
    system and result objects.  ``np.add.reduce(a, None)`` is the reduction
    ``a.sum()`` makes, without the method's dispatch."""
    import numpy as np

    conj = phis.conj()
    lhs = float(np.add.reduce(np.abs(conj @ xi), None))  # (xi, phi_r) entries
    re, im = xi.real, xi.imag  # ||xi||^2 by the two dots np.linalg.norm takes
    gram = np.add.reduce(np.abs(phis @ conj.T), None)
    rhs = math.sqrt(re.dot(re) + im.dot(im)) * math.sqrt(gram)
    return lhs, rhs


def hm_inequality_check(system: VectorSystem) -> HMResult:
    """sum_r |(xi, phi_r)| against ||xi|| (sum_{r,s} |(phi_r, phi_s)|)^(1/2).

    The inner product conjugates its second argument; the slack must be
    <= 0 up to floating tolerance.
    """
    return HMResult(*_hm_sides(system.xi, system.phis))


def _hm_draw(
    rng: np.random.Generator, dim_cap: int, r_cap: int
) -> tuple[np.ndarray, np.ndarray]:
    """(xi, phis) of a random system: the dimensions, then one normal draw.

    The draw is laid out as the real and imaginary parts of xi, then those
    of phis, which is the stream of four consecutive draws of those sizes.
    The parts are copied into place, the same values as ``re + 1j * im``
    without its temporaries.
    """
    import numpy as np

    dim = int(rng.integers(1, dim_cap + 1))
    r = int(rng.integers(1, r_cap + 1))
    z = rng.standard_normal((2 * (r + 1), dim))
    xi, phis = np.empty(dim, complex), np.empty((r, dim), complex)
    xi.real, xi.imag = z[0], z[1]
    phis.real, phis.imag = z[2:r + 2], z[r + 2:]
    return xi, phis


def hm_random_system(seed: int, dim_cap: int = 64, r_cap: int = 16) -> VectorSystem:
    """Complex Gaussian system with dimensions drawn from the seeded rng."""
    import numpy as np

    return VectorSystem(*_hm_draw(np.random.default_rng(seed), dim_cap, r_cap))


#: Budgets on the caps of ``hm_random_trials``.  A trial builds an r x dim
#: complex matrix and its r x r Gram product, so its cost grows superlinearly:
#: the largest trial under these caps (dim = r = 1024) takes about 0.3 s and
#: 86 MB peak RSS (2-vCPU Xeon, CPython 3.11.7, numpy 2.4).
MAX_DIM = 1024
MAX_R = 1024

#: Largest relative slack (lhs - rhs) / rhs of a passing ``ProbeReport``.
HM_REL_TOLERANCE = 1e-10


class ProbeReport(Record):
    """A seeded batch; ``rows[i]`` is trial i's (dim, r, lhs, rhs, rel_slack).
    ``worst_trial`` is the first of largest slack, or the first NaN."""

    trials: int
    seed: int
    max_rel_slack: float
    worst_trial: int
    rows: tuple[tuple[int, int, float, float, float], ...]

    @property
    def ok(self) -> bool:
        return self.max_rel_slack <= HM_REL_TOLERANCE


# The constants of NumPy's SeedSequence hash (numpy/random/bit_generator.pyx).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4

#: Seeds hashed per vectorized pass of ``_seeded_rngs``; bounds its memory.
_SEED_BLOCK = 4096


def _seed_words(first: int, count: int) -> np.ndarray:
    """Row j is ``SeedSequence(first + j).generate_state(4, np.uint64)``,
    for seeds that share ``s >> 32``.

    That is the state ``default_rng`` seeds PCG64 with.  The seeds have the
    same number of 32-bit entropy words and differ only in the lowest, so
    each word is one uint32 column and NumPy's hash runs on the columns.
    Its multipliers depend only on how many words it has hashed, not on the
    data, so they are carried along as Python ints.
    """
    import numpy as np

    low = first & _MASK32
    entropy = [np.arange(low, low + count, dtype=np.uint64).astype(np.uint32)]
    high = first >> 32
    while high:
        entropy.append(np.full(count, high & _MASK32, np.uint32))
        high >>= 32
    # a pool word past the entropy hashes a zero
    entropy += [np.zeros(count, np.uint32)] * (_POOL_SIZE - len(entropy))
    const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * _MULT_A & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(16))

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        value = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
        return value ^ (value >> np.uint32(16))

    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    # generate_state(4, np.uint64): eight 32-bit words cycling over the pool
    state = np.empty((count, 2 * _POOL_SIZE), np.uint32)
    const = _INIT_B
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ np.uint32(const)
        const = const * _MULT_B & _MASK32
        value = value * np.uint32(const)
        state[:, i] = value ^ (value >> np.uint32(16))
    return state.astype("<u4", copy=False).view("<u8").astype(np.uint64)


def _seeded_rngs(seed: int, count: int):
    """``np.random.default_rng(s)`` for s = seed ... seed + count - 1, in order.

    The seed words come from ``_seed_words`` in blocks of at most
    ``_SEED_BLOCK`` seeds, cut where the seeds gain an entropy word, and
    reach PCG64 through NumPy's ``ISeedSequence`` interface, so PCG64 seeds
    itself from them as ``default_rng`` does.  The first and last seed of
    each block are checked against ``np.random.SeedSequence``.
    """
    import numpy as np
    from numpy.random import PCG64, Generator, SeedSequence
    from numpy.random.bit_generator import ISeedSequence

    class Words(ISeedSequence):
        """A seed sequence whose ``generate_state(4, np.uint64)`` is known."""

        def __init__(self, words: np.ndarray) -> None:
            self.words = words

        def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
            return self.words

    first, stop = seed, seed + count
    while first < stop:
        end = min(stop, first + _SEED_BLOCK, ((first >> 32) + 1) << 32)
        words = _seed_words(first, end - first)
        for s, row in ((first, words[0]), (end - 1, words[-1])):
            if not np.array_equal(row, SeedSequence(s).generate_state(4, np.uint64)):
                raise RuntimeError(f"the seed words of {s} differ from numpy's SeedSequence")
        for row in words:
            yield Generator(PCG64(Words(row)))
        first = end


def hm_random_trials(
    trials: int,
    seed: int,
    dim_cap: int = 64,
    r_cap: int = 16,
) -> ProbeReport:
    """Seeded batch of random systems; per-trial seed is seed + index.

    Trial i is ``hm_inequality_check(hm_random_system(seed + i, dim_cap,
    r_cap))``, bit for bit, so any trial replays alone from seed + i.  The
    loop seeds each trial's generator from words hashed for a block of
    seeds at once (``_seeded_rngs``) and calls the kernels behind those two
    functions directly, keeping each trial as a plain row without building
    the system and result objects.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    for name, cap, budget in (("dim", dim_cap, MAX_DIM), ("r", r_cap, MAX_R)):
        if cap > budget:
            raise Inadmissible(f"{name} cap {cap} exceeds the probe budget of {budget}")
    if seed < 0:  # as SeedSequence rejects it; the seed words assume s >= 0
        raise ValueError(f"seed must be >= 0, got {seed}")
    rows = []
    for rng in _seeded_rngs(seed, trials):
        xi, phis = _hm_draw(rng, dim_cap, r_cap)
        lhs, rhs = _hm_sides(xi, phis)
        rows.append((len(xi), len(phis), lhs, rhs, _rel_slack(lhs, rhs)))
    # max alone would pass over a NaN after the first row
    worst = max(range(trials), key=lambda i: (math.isnan(rows[i][4]), rows[i][4]))
    return ProbeReport(trials, seed, rows[worst][4], worst, tuple(rows))


# ---------------------------------------------------------------------------
# Gamma-kernel integral representation of exp(-x)
# ---------------------------------------------------------------------------

_LANCZOS_G = 7.0
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)
_LANCZOS_TERMS = tuple(enumerate(_LANCZOS_C[1:], start=1))  # (i, c_i) for i >= 1


def lanczos_gamma(z: complex) -> complex:
    """Gamma(z) by the Lanczos approximation (g = 7, 9 terms)."""
    z = complex(z)
    if z.real < 0.5:
        return math.pi / (cmath.sin(math.pi * z) * lanczos_gamma(1 - z))
    z -= 1
    acc = _LANCZOS_C[0]
    for i, c in _LANCZOS_TERMS:
        acc += c / (z + i)
    t = z + _LANCZOS_G + 0.5
    return math.sqrt(2 * math.pi) * t ** (z + 0.5) * cmath.exp(-t) * acc


class MellinResult(Record):
    x: float
    value: float
    imag_residual: float
    target: float

    @property
    def abs_error(self) -> float:
        return abs(self.value - self.target)

    @property
    def ok(self) -> bool:
        return self.abs_error <= MELLIN_ABS_TOL and self.imag_residual <= MELLIN_IMAG_TOL


#: Budget on ``mellin_probe``'s ``steps``.  The probe keeps the 2*steps + 1
#: gamma values of its last (line, halfwidth, steps) for the next ``x``, so
#: its memory grows with ``steps`` as well as its time: at this cap the
#: default ``mellin-probe`` (three points) takes about 1.1 s and 34 MB peak
#: RSS, against 0.15 s and 19 MB at the default 4000 (2-vCPU Xeon, CPython
#: 3.11.7).
MAX_STEPS = 100_000

#: Largest ``abs_error`` and ``imag_residual`` of a passing ``MellinResult``.
MELLIN_ABS_TOL = 1e-6
MELLIN_IMAG_TOL = 1e-8


def _simpson_nodes(halfwidth: float, steps: int):
    """The 2*steps + 1 nodes v of ``mellin_probe``'s quadrature, in order."""
    h = halfwidth / steps  # half of a panel
    yield -halfwidth
    for j in range(1, 2 * steps):
        yield -halfwidth + j * h
    yield halfwidth


@lru_cache(maxsize=1)
def _gamma_grid(line: float, halfwidth: float, steps: int) -> tuple[complex, ...]:
    """Gamma(line + iv) at every node v of ``_simpson_nodes``."""
    return tuple(lanczos_gamma(complex(line, v)) for v in _simpson_nodes(halfwidth, steps))


def mellin_probe(
    x: float, line: float = 2.0, halfwidth: float = 40.0, steps: int = 4000
) -> MellinResult:
    """(2 pi)^-1 integral of Gamma(line + iv) x^(-line - iv) over |v| <= halfwidth.

    Composite Simpson with ``steps`` panels on 2*steps + 1 nodes; the real
    part approximates exp(-x) and the imaginary part is a symmetry residual
    reported for sanity.  The gamma values at the nodes depend only on
    (line, halfwidth, steps) and are computed once for consecutive calls
    that share them, such as the points of one ``mellin-probe``.  ``x``,
    ``line`` and ``halfwidth`` must be finite and positive and ``steps`` at
    most ``MAX_STEPS``, checked before any evaluation (Inadmissible
    otherwise).
    """
    for name, v in (("x", x), ("line", line), ("halfwidth", halfwidth)):
        if not 0 < v < math.inf:
            raise Inadmissible(f"{name} = {v!r} is not a finite positive number")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if steps > MAX_STEPS:
        raise Inadmissible(f"steps {steps} exceeds the probe budget of {MAX_STEPS}")
    log_x = math.log(x)
    gammas = _gamma_grid(line, halfwidth, steps)
    nodes = _simpson_nodes(halfwidth, steps)
    terms = [g * cmath.exp(-complex(line, v) * log_x) for g, v in zip(gammas, nodes)]
    total = terms[0] + terms[-1]
    for j in range(1, 2 * steps):
        total += terms[j] * (4 if j % 2 else 2)
    integral = total * (halfwidth / steps / 3)
    value = integral / (2 * math.pi)
    return MellinResult(x, value.real, abs(value.imag), math.exp(-x))


# ---------------------------------------------------------------------------
# Zeta growth diagnostic (report-only)
# ---------------------------------------------------------------------------

def zeta_em(s: complex) -> complex:
    """Euler-Maclaurin zeta with cutoff ceil(|Im s|) + 50 and two
    Bernoulli corrections.  Desk accuracy, not rigorous."""
    import numpy as np

    s = complex(s)
    m = int(math.ceil(abs(s.imag))) + 50
    n = np.arange(1, m + 1, dtype=np.float64)
    head = np.exp(-s * np.log(n)).sum()
    tail = m ** (1 - s) / (s - 1) - 0.5 * m ** (-s)
    corr1 = s * m ** (-s - 1) / 12.0
    corr2 = -s * (s + 1) * (s + 2) * m ** (-s - 3) / 720.0
    return head + tail + corr1 + corr2


def zeta_growth_scan(
    sigma0: float, t_max: float, samples: int, kappa: float
) -> list[tuple[float, float, float]]:
    """Rows (t, |zeta(sigma0 + it)|, |zeta| / (1 + t)^kappa) on [0, t_max].

    Diagnostic only: the ratio column is emitted for eyeballing growth,
    never asserted.  ``sigma0`` must lie in (1/2, 1) and ``t_max`` in
    [0, 10000], a budget on the Euler-Maclaurin cutoff (Inadmissible
    otherwise).
    """
    if not 0.5 < sigma0 < 1.0:
        raise Inadmissible(f"sigma0 = {sigma0!r} is not strictly inside (1/2, 1)")
    if not 0 <= t_max <= 10_000:
        raise Inadmissible(f"t_max = {t_max!r} is not in [0, 10000]")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rows = []
    for j in range(samples):
        t = t_max * j / (samples - 1) if samples > 1 else 0.0
        z = abs(zeta_em(complex(sigma0, t)))
        rows.append((t, z, z / (1 + t) ** kappa))
    return rows
