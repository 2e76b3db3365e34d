"""Floating-point desk checks for the analytic ingredients.

These verify inequalities with slack, not exact identities, so doubles
are appropriate here (tolerance 1e-10 relative).  Everything is seeded
and deterministic; the zeta scan is report-only and never gates anything.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DimensionMismatch",
    "VectorSystem",
    "HMResult",
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

HM_REL_TOLERANCE = 1e-10


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


def hm_inequality_check(system: VectorSystem) -> HMResult:
    """sum_r |(xi, phi_r)| against ||xi|| (sum_{r,s} |(phi_r, phi_s)|)^(1/2).

    The inner product conjugates its second argument; the slack must be
    <= 0 up to floating tolerance.
    """
    inner = system.phis.conj() @ system.xi  # (xi, phi_r) entries
    lhs = float(np.abs(inner).sum())
    gram = system.phis @ system.phis.conj().T
    rhs = float(np.linalg.norm(system.xi) * math.sqrt(np.abs(gram).sum()))
    return HMResult(lhs, rhs)


def hm_random_system(seed: int, dim_cap: int = 64, r_cap: int = 16) -> VectorSystem:
    """Complex Gaussian system with dimensions drawn from the seeded rng."""
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, dim_cap + 1))
    r = int(rng.integers(1, r_cap + 1))
    xi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    phis = rng.standard_normal((r, dim)) + 1j * rng.standard_normal((r, dim))
    return VectorSystem(xi, phis)


@dataclass(frozen=True)
class ProbeReport:
    trials: int
    seed: int
    max_rel_slack: float
    worst_trial: int

    @property
    def ok(self) -> bool:
        return self.max_rel_slack <= HM_REL_TOLERANCE


def hm_random_trials(
    trials: int,
    seed: int,
    dim_cap: int = 64,
    r_cap: int = 16,
) -> ProbeReport:
    """Seeded batch of random systems; per-trial seed is seed + index."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    slacks = [
        hm_inequality_check(hm_random_system(seed + i, dim_cap, r_cap)).rel_slack
        for i in range(trials)
    ]
    worst = max(range(trials), key=lambda i: slacks[i])
    return ProbeReport(trials, seed, slacks[worst], worst)


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


def mellin_probe(
    x: float, line: float = 2.0, halfwidth: float = 40.0, steps: int = 4000
) -> MellinResult:
    """(2 pi)^-1 integral of Gamma(line + iv) x^(-line - iv) over |v| <= halfwidth.

    Composite Simpson with ``steps`` panels (2*steps + 1 gamma evaluations);
    the real part approximates exp(-x) and the imaginary part is a symmetry
    residual reported for sanity.
    """
    if x <= 0:
        raise ValueError("x must be positive")
    if line <= 0:
        raise ValueError("the integration line must have positive real part")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    log_x = math.log(x)
    h = halfwidth / steps  # half of a panel

    def integrand(v: float) -> complex:
        w = complex(line, v)
        return lanczos_gamma(w) * cmath.exp(-w * log_x)

    total = integrand(-halfwidth) + integrand(halfwidth)
    for j in range(1, 2 * steps):
        v = -halfwidth + j * h
        total += integrand(v) * (4 if j % 2 else 2)
    integral = total * (h / 3)
    value = integral / (2 * math.pi)
    return MellinResult(x, value.real, abs(value.imag), math.exp(-x))


# ---------------------------------------------------------------------------
# Zeta growth diagnostic (report-only)
# ---------------------------------------------------------------------------

def zeta_em(s: complex, extra_terms: int = 50) -> complex:
    """Euler-Maclaurin zeta with cutoff ceil(|Im s|) + extra_terms and two
    Bernoulli corrections.  Desk accuracy, not rigorous."""
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
    never asserted.
    """
    if not 0.5 < sigma0 < 1.0:
        raise ValueError("sigma0 must lie strictly between 1/2 and 1")
    if t_max > 10_000:
        raise ValueError("t_max capped at 10000")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rows = []
    for j in range(samples):
        t = t_max * j / (samples - 1) if samples > 1 else 0.0
        z = abs(zeta_em(complex(sigma0, t)))
        rows.append((t, z, z / (1 + t) ** kappa))
    return rows
