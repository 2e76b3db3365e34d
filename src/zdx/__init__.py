"""Exact workbench for exponent-pair zero-density bounds.

Subpackages: exact rational substrate (``exact``), exponent-pair
generation (``pairs``), density curves and audits (``density``), the
exact hull and line-envelope geometry of the optimizer (``hull``),
tau-table arithmetic checks (``hecke``), floating-point desk probes
(``probes``), and the ``zdx`` command line (``cli``).
"""

__version__ = "0.1.0"

#: Relative slack allowed by the bilinear large-values harness of
#: ``zdx.probes``; kept here so the CLI can show it without importing numpy.
HM_REL_TOLERANCE = 1e-10

#: Default pair-generation depth and tau-table size, re-exported by
#: ``zdx.pairs`` and ``zdx.hecke``; kept here so the CLI can show them
#: without importing those modules.
DEFAULT_DEPTH = 12
DEFAULT_LIMIT = 10_000


class Inadmissible(ValueError):
    """Input outside what the library supports: a pair, region, interval,
    size or probe parameter it rejects.  The ``zdx`` CLI exits 3 on it."""
