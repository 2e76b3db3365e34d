"""Floating-point desk checks for the analytic ingredients.

These verify inequalities with slack, not exact identities, so doubles
are appropriate here (tolerance 1e-10 relative).  Everything is seeded
and deterministic; the zeta scan is report-only and never gates anything.
numpy is imported by the harness and zeta functions that use it, so the
gamma-kernel probe runs without it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

from . import HM_REL_TOLERANCE, Inadmissible

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "DimensionMismatch",
    "VectorSystem",
    "HMResult",
    "MAX_DIM",
    "MAX_R",
    "MAX_STEPS",
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

@dataclass
class VectorSystem:
    """A target vector xi and R test vectors phi_1..phi_R of equal length."""

    xi: np.ndarray
    phis: np.ndarray  # shape (R, dim)

    def __post_init__(self) -> None:
        import numpy as np

        self.xi = np.asarray(self.xi, dtype=np.complex128)
        self.phis = np.asarray(self.phis, dtype=np.complex128)
        if self.xi.ndim != 1 or self.phis.ndim != 2:
            raise DimensionMismatch("xi must be a vector and phis a matrix")
        if self.phis.shape[0] < 1:
            raise DimensionMismatch("need at least one test vector")
        if self.phis.shape[1] != self.xi.shape[0]:
            raise DimensionMismatch(
                f"xi has dim {self.xi.shape[0]} but phis have dim {self.phis.shape[1]}"
            )


@dataclass(frozen=True)
class HMResult:
    lhs: float
    rhs: float

    @property
    def slack(self) -> float:
        return self.lhs - self.rhs

    @property
    def rel_slack(self) -> float:
        return self.slack / self.rhs if self.rhs else math.inf


def _hm_sides(xi: np.ndarray, phis: np.ndarray) -> tuple[float, float]:
    """(lhs, rhs) of the inequality; ``hm_inequality_check`` without the
    system and result objects."""
    conj = phis.conj()
    lhs = float(abs(conj @ xi).sum())  # (xi, phi_r) entries
    re, im = xi.real, xi.imag  # ||xi||^2 by the two dots np.linalg.norm takes
    rhs = math.sqrt(re.dot(re) + im.dot(im)) * math.sqrt(abs(phis @ conj.T).sum())
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


@dataclass(frozen=True)
class ProbeReport:
    """A seeded batch; ``results[i]`` is trial i's (dim, r, HMResult)."""

    trials: int
    seed: int
    max_rel_slack: float
    worst_trial: int
    results: tuple[tuple[int, int, HMResult], ...]

    @property
    def ok(self) -> bool:
        return self.max_rel_slack <= HM_REL_TOLERANCE


def hm_random_trials(
    trials: int,
    seed: int,
    dim_cap: int = 64,
    r_cap: int = 16,
) -> ProbeReport:
    """Seeded batch of random systems; per-trial seed is seed + index.

    Trial i is ``hm_inequality_check(hm_random_system(seed + i, dim_cap,
    r_cap))``, bit for bit; the loop calls the two kernels behind those
    functions directly, without building their system and result objects.
    """
    import numpy as np

    if trials < 1:
        raise ValueError("trials must be >= 1")
    for name, cap, budget in (("dim", dim_cap, MAX_DIM), ("r", r_cap, MAX_R)):
        if cap > budget:
            raise Inadmissible(f"{name} cap {cap} exceeds the probe budget of {budget}")
    results = []
    for i in range(trials):
        xi, phis = _hm_draw(np.random.default_rng(seed + i), dim_cap, r_cap)
        results.append((xi.shape[0], phis.shape[0], HMResult(*_hm_sides(xi, phis))))
    worst = max(range(trials), key=lambda i: results[i][2].rel_slack)
    return ProbeReport(trials, seed, results[worst][2].rel_slack, worst, tuple(results))


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


def lanczos_gamma(z: complex) -> complex:
    """Gamma(z) by the Lanczos approximation (g = 7, 9 terms)."""
    z = complex(z)
    if z.real < 0.5:
        return math.pi / (cmath.sin(math.pi * z) * lanczos_gamma(1 - z))
    z -= 1
    acc = _LANCZOS_C[0]
    for i, c in enumerate(_LANCZOS_C[1:], start=1):
        acc += c / (z + i)
    t = z + _LANCZOS_G + 0.5
    return math.sqrt(2 * math.pi) * t ** (z + 0.5) * cmath.exp(-t) * acc


@dataclass(frozen=True)
class MellinResult:
    x: float
    value: float
    imag_residual: float
    target: float

    @property
    def abs_error(self) -> float:
        return abs(self.value - self.target)


#: Budget on ``mellin_probe``'s ``steps``.  The probe keeps the 2*steps + 1
#: gamma values of its last (line, halfwidth, steps) for the next ``x``, so
#: its memory grows with ``steps`` as well as its time: at this cap the
#: default ``mellin-probe`` (three points) takes about 1.1 s and 34 MB peak
#: RSS, against 0.15 s and 19 MB at the default 4000 (2-vCPU Xeon, CPython
#: 3.11.7).
MAX_STEPS = 100_000


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

def zeta_em(s: complex, extra_terms: int = 50) -> complex:
    """Euler-Maclaurin zeta with cutoff ceil(|Im s|) + extra_terms and two
    Bernoulli corrections.  Desk accuracy, not rigorous."""
    import numpy as np

    s = complex(s)
    m = int(math.ceil(abs(s.imag))) + extra_terms
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
