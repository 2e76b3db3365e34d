"""Reference readings of library records that only the tests take.

Each function reads a record the way a test wants to check it: the bound
at one sigma, a term of a balance audit, a bounds-checked table entry.
The library's callers never need these, so they live here.  A test file
imports them with ``from oracles import ...``: pytest puts ``tests/`` on
``sys.path``, as the directory has no ``__init__.py``, and it collects
nothing from this module, whose name does not start with ``test_``.
"""

from __future__ import annotations

import math
from fractions import Fraction

from zdx.exact import Quadratic


def replace(record, **changes):
    """A copy of ``record`` with the named fields changed, built through
    ``__init__``, so ``__post_init__`` checks the copy too."""
    fields = dict(zip(record.__match_args__, record._key(record)))
    return record.__class__(**{**fields, **changes})


# --- zdx.density.PiecewiseBound --------------------------------------------

def segment_at(bound, sigma):
    """The segment that gives the bound at sigma: ``segments_along`` at that one point."""
    sigma = Fraction(sigma)
    return next(bound.segments_along([sigma.numerator], sigma.denominator))[1]


def bound_E(bound, sigma) -> Fraction:
    """E(sigma) of the bound, the pointwise minimum even where it jumps."""
    return segment_at(bound, sigma).curve.eval_E(sigma)


# --- zdx.density.AuditReport -----------------------------------------------

def e_num(report) -> Quadratic:
    """The numerator of E over the report's denominator: E = e1, the first term."""
    return report.terms[0].num


def term_value(report, label: str, sigma) -> Fraction:
    """The exponent of the term named ``label`` at sigma."""
    for t in report.terms:
        if t.label == label:
            return t.num.eval(sigma) / report.denominator.eval(sigma)
    raise KeyError(label)


def exponent_value(report, sigma) -> Fraction:
    """E at sigma, as the audit wrote it."""
    return e_num(report).eval(sigma) / report.denominator.eval(sigma)


# --- zdx.exact -------------------------------------------------------------

def fraction_grid(interval, steps: int) -> list[Fraction]:
    """steps + 1 equally spaced Fractions lo + k (hi - lo) / steps, endpoints
    included: lo alone for a point, none for the empty interval."""
    if interval.is_empty:
        return []
    if interval.is_point:
        return [interval.lo]
    step = (interval.hi - interval.lo) / steps
    return [interval.lo + k * step for k in range(steps + 1)]


def numerators(sigmas) -> tuple[list[int], int]:
    """(xs, w) with sigmas[i] = xs[i] / w, w > 0 the least common denominator."""
    sigmas = [Fraction(s) for s in sigmas]
    w = math.lcm(*(s.denominator for s in sigmas))
    return [s.numerator * (w // s.denominator) for s in sigmas], w


def is_nonneg(cert) -> bool:
    """A sign certificate shows q >= 0 on the whole interval."""
    return cert.kind in ("zero", "nonneg")


def is_nonpos(cert) -> bool:
    """A sign certificate shows q <= 0 on the whole interval."""
    return cert.kind in ("zero", "nonpos")


def minus(a: Quadratic, b: Quadratic) -> Quadratic:
    """a - b, coefficient by coefficient."""
    return Quadratic(a.c2 - b.c2, a.c1 - b.c1, a.c0 - b.c0)


# --- zdx.hecke -------------------------------------------------------------

def tau_at(table, n: int) -> int:
    """tau(n) from a ``TauTable``; IndexError outside 1..limit."""
    if not 1 <= n <= table.limit:
        raise IndexError(f"tau({n}) outside table limit {table.limit}")
    return table.tau[n]


def m_at(table, n: int) -> int:
    """m(n) from a ``MollifierTable``; IndexError outside 1..limit."""
    if not 1 <= n <= table.limit:
        raise IndexError(f"m({n}) outside table limit {table.limit}")
    return table.m[n]


# --- zdx.probes ------------------------------------------------------------

def rel_slack(result) -> float:
    """(lhs - rhs) / rhs of an ``HMResult``, inf when rhs is 0."""
    return (result.lhs - result.rhs) / result.rhs if result.rhs else math.inf
