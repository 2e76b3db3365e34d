"""Floating-point desk checks for the analytic ingredients.

These verify inequalities with slack, not exact identities, so doubles
are appropriate here, gated by fixed tolerances that a NaN fails.
Everything is seeded and deterministic; the zeta scan is report-only and
never gates anything.

Each probe computes only what depends on its input.  Only the large-values
harness imports numpy, where it does the work: the batch seeds every
trial's PCG64 from NumPy's seed hash, computed for a block of seeds at
once, decodes the trial's shape from the bit generator's raw words as
``Generator.integers`` draws it, and evaluates each shape's systems in one
stacked pass.  The first and last seed of every block are checked against
``SeedSequence``, and the first shape of every chunk against
``Generator.integers``.  The gamma-kernel probe reads its gamma values and
line points, and the zeta scan its logs, from tables built once per
process.  Both are pure Python; the scan sums its terms in NumPy's pairwise
order, so its digits are those of ``np.exp(-s * np.log(n)).sum()``.
Timings: ``BENCH_27.json``.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache, reduce
from itertools import cycle, islice
from operator import add
from typing import TYPE_CHECKING

from . import Inadmissible, Record

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "DimensionMismatch",
    "VectorSystem",
    "HMResult",
    "HM_DIM_CAP",
    "HM_R_CAP",
    "HM_REL_TOLERANCE",
    "MELLIN_ABS_TOL",
    "MELLIN_HALFWIDTH",
    "MELLIN_IMAG_TOL",
    "MELLIN_LINE",
    "MELLIN_STEPS",
    "MAX_TRIALS",
    "ProbeReport",
    "hm_inequality_check",
    "hm_random_system",
    "hm_random_trials",
    "lanczos_gamma",
    "MellinResult",
    "mellin_probe",
    "zeta_em",
    "zeta_growth_scan",
    "ZETA_SAMPLES",
    "ZETA_T_MAX",
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


def _rel_slack(lhs: float, rhs: float) -> float:
    return (lhs - rhs) / rhs if rhs else math.inf


def _hm_sides(xi: np.ndarray, phis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lhs, rhs) arrays of the inequality for a stack of systems, xi of
    shape (n, dim) and phis of shape (n, r, dim).

    Each step is one stacked call, and every slice gets the BLAS call
    (gemv, dot, gemm or none) that the same step on one system gets: the
    inner products and the Gram matrix are ``np.matmul``s, ||xi||^2 is the
    two strided dots of the real and imaginary parts that
    ``np.linalg.norm`` takes, and each sum is ``np.add.reduce`` over the
    system's own axes, the pairwise order of ``a.sum()``.
    """
    import numpy as np

    conj = phis.conj()
    lhs = np.add.reduce(np.abs(np.matmul(conj, xi[:, :, None])), (1, 2))
    gram = np.add.reduce(np.abs(np.matmul(phis, conj.swapaxes(1, 2))), (1, 2))
    re, im = xi.real[:, None], xi.imag[:, None]
    norm2 = np.matmul(re, re.swapaxes(1, 2)) + np.matmul(im, im.swapaxes(1, 2))
    return lhs, np.sqrt(norm2[:, 0, 0]) * np.sqrt(gram)


def hm_inequality_check(system: VectorSystem) -> HMResult:
    """sum_r |(xi, phi_r)| against ||xi|| (sum_{r,s} |(phi_r, phi_s)|)^(1/2).

    The inner product conjugates its second argument; the slack must be
    <= 0 up to floating tolerance.
    """
    lhs, rhs = _hm_sides(system.xi[None], system.phis[None])
    return HMResult(float(lhs[0]), float(rhs[0]))


#: Caps on a random system's vector dimension and number of test vectors.
HM_DIM_CAP = 64
HM_R_CAP = 16


def _hm_shape(bit_generator) -> tuple[int, int]:
    """(dim, r) of a random system: the first two draws of its generator.

    Each is ``Generator.integers(1, cap + 1)``, decoded from the raw words as
    NumPy draws a number below a cap of at most 2**32 (Lemire's method).  A
    draw reads the low half of a new ``random_raw()`` word, or the high half
    that the draw before it left; with m = u * cap it is drawn again while
    m mod 2**32 < 2**32 mod cap, and it yields 1 + (m >> 32).  A cap of 1
    draws nothing.  The normals drawn next read whole words, so a half left
    over is dropped, as NumPy's buffered half is never read.
    """
    shape, half = [], None
    for cap in HM_DIM_CAP, HM_R_CAP:
        m = 0
        if cap > 1:
            threshold = (1 << 32) % cap
            while True:
                if half is None:
                    word = bit_generator.random_raw()
                    u, half = word & _MASK32, word >> 32
                else:
                    u, half = half, None
                m = u * cap
                if m & _MASK32 >= threshold:
                    break
        shape.append(1 + (m >> 32))
    return shape[0], shape[1]


def _checked_shape(bit_generator, seed: int) -> tuple[int, int]:
    """``_hm_shape(bit_generator)``, checked against the two
    ``Generator.integers`` draws it decodes, made on a copy of the bit
    generator: the shapes, and the states the draws leave, must agree."""
    from numpy.random import PCG64, Generator

    copy = PCG64(0)
    copy.state = bit_generator.state
    rng = Generator(copy)
    want = int(rng.integers(1, HM_DIM_CAP + 1)), int(rng.integers(1, HM_R_CAP + 1))
    shape = _hm_shape(bit_generator)
    if shape != want or bit_generator.state["state"] != copy.state["state"]:
        raise RuntimeError(f"the shape decoded for seed {seed} differs from numpy's "
                           "Generator.integers")
    return shape


def _hm_systems(bit_generators, dim: int, r: int) -> tuple[np.ndarray, np.ndarray]:
    """(xi, phis) stacks of the systems of shape (dim, r) whose generators
    have drawn that shape, one system per bit generator.

    Each system is one normal draw of its stream, laid out as the real and
    imaginary parts of xi, then those of phis, which is the stream of four
    consecutive draws of those sizes.  The draw goes straight into the
    system's slice of one block, and the parts are copied into place, the
    same values as ``re + 1j * im`` without its temporaries.
    """
    import numpy as np
    from numpy.random import Generator

    block = np.empty((len(bit_generators), 2 * (r + 1), dim))
    for bit_generator, z in zip(bit_generators, block):
        Generator(bit_generator).standard_normal(out=z)
    xi = np.empty((len(block), dim), complex)
    phis = np.empty((len(block), r, dim), complex)
    xi.real, xi.imag = block[:, 0], block[:, 1]
    phis.real, phis.imag = block[:, 2:r + 2], block[:, r + 2:]
    return xi, phis


def hm_random_system(seed: int) -> VectorSystem:
    """Complex Gaussian system with dimensions drawn from the seeded rng,
    the bit generator of ``np.random.default_rng(seed)``."""
    from numpy.random import PCG64

    bit_generator = PCG64(seed)
    xi, phis = _hm_systems([bit_generator], *_checked_shape(bit_generator, seed))
    return VectorSystem(xi[0], phis[0])


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
    """The bit generator of ``np.random.default_rng(s)`` for s = seed ...
    seed + count - 1, in order.

    The seed words come from ``_seed_words`` in blocks of at most
    ``_SEED_BLOCK`` seeds, cut where the seeds gain an entropy word, and
    reach PCG64 through NumPy's ``ISeedSequence`` interface, so PCG64 seeds
    itself from them as ``default_rng`` does.  The first and last seed of
    each block are checked against ``np.random.SeedSequence``.
    """
    import numpy as np
    from numpy.random import PCG64, SeedSequence
    from numpy.random.bit_generator import ISeedSequence

    class Words(ISeedSequence):
        """The seed sequence of every generator: its ``generate_state(4,
        np.uint64)`` is the row set just before that generator is made."""

        row: np.ndarray

        def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
            return self.row

    seed_seq = Words()
    first, stop = seed, seed + count
    while first < stop:
        end = min(stop, first + _SEED_BLOCK, ((first >> 32) + 1) << 32)
        words = _seed_words(first, end - first)
        for s, row in ((first, words[0]), (end - 1, words[-1])):
            if not np.array_equal(row, SeedSequence(s).generate_state(4, np.uint64)):
                raise RuntimeError(f"the seed words of {s} differ from numpy's SeedSequence")
        for row in words:
            seed_seq.row = row
            yield PCG64(seed_seq)
        first = end


#: Trials seeded and held at once by ``hm_random_trials``.  It bounds the bit
#: generators in flight, about 0.4 kB each.
_HM_CHUNK = 16384

#: Largest batch of ``hm_random_trials``.  Every row is kept, and the CLI
#: writes their CSV in blocks of 4,096 rows: at this cap ``hm-test`` takes
#: 2.3-2.8 s at 65 MB peak RSS (``BENCH_29.json``, "budgets").
MAX_TRIALS = 100_000


def hm_random_trials(trials: int, seed: int) -> ProbeReport:
    """Seeded batch of random systems; per-trial seed is seed + index.

    Trial i is ``hm_inequality_check(hm_random_system(seed + i))``, bit for
    bit, so any trial replays alone from seed + i.  The batch seeds each
    trial's bit generator from words hashed for a block of seeds at once
    (``_seeded_rngs``) and decodes the trial's shape from its raw words
    (``_hm_shape``); the first trial of each chunk is checked against
    ``Generator.integers`` (``_checked_shape``).  Then it groups the trials
    by shape, draws each group's systems into one block and evaluates them
    in one stacked pass of ``_hm_sides``; each trial is kept as a plain row
    without building the system and result objects.  At most ``_HM_CHUNK``
    trials are in flight.  More than ``MAX_TRIALS`` trials raise
    Inadmissible before numpy is loaded.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if trials > MAX_TRIALS:
        raise Inadmissible(f"trials {trials} exceeds the harness budget of {MAX_TRIALS}")
    if seed < 0:  # as SeedSequence rejects it; the seed words assume s >= 0
        raise ValueError(f"seed must be >= 0, got {seed}")
    import numpy as np

    rows = []
    seeded = _seeded_rngs(seed, trials)
    for first in range(0, trials, _HM_CHUNK):
        bit_generators = list(islice(seeded, min(_HM_CHUNK, trials - first)))
        shapes = [_checked_shape(bit_generators[0], seed + first)]
        shapes += map(_hm_shape, bit_generators[1:])
        groups = {}
        for j, shape in enumerate(shapes):
            groups.setdefault(shape, []).append(j)
        lhs, rhs = np.empty(len(shapes)), np.empty(len(shapes))
        for (dim, r), members in groups.items():
            systems = _hm_systems([bit_generators[j] for j in members], dim, r)
            lhs[members], rhs[members] = _hm_sides(*systems)
        for (dim, r), left, right in zip(shapes, lhs.tolist(), rhs.tolist()):
            rows.append((dim, r, left, right, _rel_slack(left, right)))
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


#: Largest ``abs_error`` and ``imag_residual`` of a passing ``MellinResult``.
MELLIN_ABS_TOL = 1e-6
MELLIN_IMAG_TOL = 1e-8

#: ``mellin_probe``'s quadrature: the line Re s = 2, |Im s| <= 40, 4000
#: Simpson panels on 8001 nodes.
MELLIN_LINE = 2.0
MELLIN_HALFWIDTH = 40.0
MELLIN_STEPS = 4000


@lru_cache(maxsize=1)
def _line_points() -> tuple[complex, ...]:
    """-(MELLIN_LINE + iv) at the 2*MELLIN_STEPS + 1 nodes v of
    ``mellin_probe``'s quadrature, in order."""
    h = MELLIN_HALFWIDTH / MELLIN_STEPS  # half of a panel
    inner = (-MELLIN_HALFWIDTH + j * h for j in range(1, 2 * MELLIN_STEPS))
    return tuple(-complex(MELLIN_LINE, v) for v in (-MELLIN_HALFWIDTH, *inner, MELLIN_HALFWIDTH))


@lru_cache(maxsize=1)
def _gamma_grid() -> tuple[complex, ...]:
    """Gamma(MELLIN_LINE + iv) at every node v of ``_line_points``."""
    return tuple(lanczos_gamma(-s) for s in _line_points())


def mellin_probe(x: float) -> MellinResult:
    """(2 pi)^-1 integral of Gamma(2 + iv) x^(-2 - iv) over |v| <= 40.

    Composite Simpson with ``MELLIN_STEPS`` panels on the line
    ``MELLIN_LINE``, out to ``MELLIN_HALFWIDTH``; the real part approximates
    exp(-x) and the imaginary part is a symmetry residual reported for
    sanity.  The gamma values and the negated line points at the nodes are
    computed once per process and shared by every call, so a term costs
    one multiply, one ``exp`` and one multiply.  ``x`` must be finite and
    positive, checked before any evaluation, and the quadrature must stay
    in the float range (Inadmissible otherwise): with finite gamma values,
    a term or a sum that is not finite can only have overflowed, so only a
    non-finite gamma value yields a NaN.
    """
    if not 0 < x < math.inf:
        raise Inadmissible(f"x = {x!r} is not a finite positive number")
    overflow = f"the probe at x = {x!r} overflows the floating-point range"
    log_x = math.log(x)
    gammas = _gamma_grid()
    try:
        terms = [g * cmath.exp(minus_s * log_x) for g, minus_s in zip(gammas, _line_points())]
    except OverflowError:
        raise Inadmissible(overflow) from None
    total = terms[0] + terms[-1]
    for term, weight in zip(terms[1:-1], cycle((4, 2))):
        total += term * weight
    if not cmath.isfinite(total) and all(map(cmath.isfinite, gammas)):
        raise Inadmissible(overflow)
    integral = total * (MELLIN_HALFWIDTH / MELLIN_STEPS / 3)
    value = integral / (2 * math.pi)
    return MellinResult(x, value.real, abs(value.imag), math.exp(-x))


# ---------------------------------------------------------------------------
# Zeta growth diagnostic (report-only)
# ---------------------------------------------------------------------------

def _pairwise_sum(z: list[complex]) -> complex:
    """The sum of z, at least four terms, in NumPy's pairwise order for
    complex128 (``CDOUBLE_pairwise_sum``, blocks of 128 doubles).

    Up to 64 terms are summed in four lanes, each a left fold of every
    fourth term, joined as (0 + 1) + (2 + 3), and the terms past the last
    full round of four are added in order.  More terms split after the
    largest multiple of four up to half of them.  ``reduce`` with ``add``
    folds left to right; ``sum`` on floats is compensated from CPython 3.12.
    """
    m = len(z)
    if m > 64:
        mid = (m - m % 8) // 2
        return _pairwise_sum(z[:mid]) + _pairwise_sum(z[mid:])
    stop = m - m % 4
    lane = [reduce(add, z[k:stop:4]) for k in range(4)]
    return reduce(add, z[stop:], (lane[0] + lane[1]) + (lane[2] + lane[3]))


#: ``zeta_growth_scan``'s grid: t = ZETA_T_MAX * j / (ZETA_SAMPLES - 1).
ZETA_T_MAX = 1000.0
ZETA_SAMPLES = 101


def _zeta_cutoff(t: float) -> int:
    """``zeta_em``'s number of head terms at Im s = t."""
    return math.ceil(abs(t)) + 50


@lru_cache(maxsize=1)
def _zeta_logs() -> tuple[complex, ...]:
    """complex(log n) for every head term of a ``zeta_growth_scan``."""
    return tuple(complex(math.log(n)) for n in range(1, _zeta_cutoff(ZETA_T_MAX) + 1))


def zeta_em(s: complex) -> complex:
    """Euler-Maclaurin zeta with cutoff ceil(|Im s|) + 50 and two
    Bernoulli corrections.  Desk accuracy, not rigorous.

    The head sum_{n <= m} n^(-s) takes exp(-s log n) term by term, with
    log n as a complex for NumPy's complex-by-complex product, and sums the
    terms in NumPy's pairwise order: the value of
    ``np.exp(-s * np.log(n)).sum()`` without loading numpy.  The logs come
    from a table built once per process for the scan's terms; a larger m
    computes the logs past it.
    """
    s = complex(s)
    m = _zeta_cutoff(s.imag)
    logs = _zeta_logs()[:m]
    logs += tuple(complex(math.log(n)) for n in range(len(logs) + 1, m + 1))
    minus_s = -s
    head = _pairwise_sum([cmath.exp(minus_s * log_n) for log_n in logs])
    tail = m ** (1 - s) / (s - 1) - 0.5 * m ** (-s)
    corr1 = s * m ** (-s - 1) / 12.0
    corr2 = -s * (s + 1) * (s + 2) * m ** (-s - 3) / 720.0
    return head + tail + corr1 + corr2


def zeta_growth_scan(sigma0: float, kappa: float) -> list[tuple[float, float, float]]:
    """Rows (t, |zeta(sigma0 + it)|, |zeta| / (1 + t)^kappa) for t in [0, 1000].

    The ``ZETA_SAMPLES`` points t are evenly spaced from 0 to ``ZETA_T_MAX``.
    Diagnostic only: the ratio column is emitted for eyeballing growth,
    never asserted.  ``sigma0`` must lie in (1/2, 1) (Inadmissible
    otherwise).
    """
    if not 0.5 < sigma0 < 1.0:
        raise Inadmissible(f"sigma0 = {sigma0!r} is not strictly inside (1/2, 1)")
    rows = []
    for j in range(ZETA_SAMPLES):
        t = ZETA_T_MAX * j / (ZETA_SAMPLES - 1)
        z = abs(zeta_em(complex(sigma0, t)))
        rows.append((t, z, z / (1 + t) ** kappa))
    return rows
