"""Exact workbench for exponent-pair zero-density bounds.

Subpackages: exact rational substrate (``exact``), exponent-pair
generation (``pairs``), density curves and audits (``density``), the
exact hull and line-envelope geometry of the optimizer (``hull``),
tau-table arithmetic checks (``hecke``), floating-point desk probes
(``probes``), and the ``zdx`` command line (``cli``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from fractions import Fraction

__version__ = "0.1.0"

#: Relative slack allowed by the bilinear large-values harness of
#: ``zdx.probes``; kept here so the CLI can show it without importing numpy.
HM_REL_TOLERANCE = 1e-10

#: Default pair-generation depth and tau-table size, re-exported by
#: ``zdx.pairs`` and ``zdx.hecke``; kept here so the CLI can show them
#: without importing those modules.
DEFAULT_DEPTH = 12
DEFAULT_LIMIT = 10_000


def dec_str(q, digits: int = 20) -> str:
    """Decimal rendering of a Fraction (or int) with ``digits`` significant
    digits (deterministic).  Kept here, with its imports inside, so
    ``hecke-verify`` need not load ``zdx.exact``."""
    from decimal import Decimal, localcontext
    from fractions import Fraction

    if type(q) is not Fraction:
        q = Fraction(q)
    with localcontext() as ctx:
        ctx.prec = digits
        d = Decimal(q.numerator) / Decimal(q.denominator)
    return str(d)


#: Most digits ``rat`` accepts in a numerator or denominator read from text:
#: Python's own limit on an int read from a string, here for every notation.
_TEXT_DIGITS = 4300


def rat(x: Fraction | int | str) -> Fraction:
    """Parse an exact rational from "p/q", integer, or decimal text.

    Text whose value needs more than ``_TEXT_DIGITS`` digits raises
    ValueError; the exponent is checked first, as "1e999999999" would
    otherwise build 10**999999999 before anything could look at it.  Kept
    here, like ``dec_str``, so ``zdx.pairs`` and the CLI's rational options
    need not load ``zdx.exact``.
    """
    from fractions import Fraction

    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    text = str(x).strip()
    _, e, exponent = text.lower().partition("e")
    if e and abs(int(exponent)) > _TEXT_DIGITS:
        raise ValueError(f"the exponent of {text!r} exceeds {_TEXT_DIGITS}")
    q = Fraction(text)
    if max(abs(q.numerator), q.denominator) >= 10**_TEXT_DIGITS:
        raise ValueError(f"{text!r} needs more than {_TEXT_DIGITS} digits")
    return q


class Inadmissible(ValueError):
    """Input outside what the library supports: a pair, region, interval,
    size or probe parameter it rejects.  The ``zdx`` CLI exits 3 on it."""
