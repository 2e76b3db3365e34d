"""Van der Corput exponent pairs.

Pairs are generated from the seed (0, 1) by the two classical processes

    A: (k, l) -> (k/(2k+2), (k+l+1)/(2k+2))
    B: (k, l) -> (l - 1/2, k + 1/2)

and carry the word that produced them (rightmost letter applied first).
All coordinates are exact rationals.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

from . import Inadmissible
from .exact import rat, rat_str

__all__ = [
    "InvalidPair",
    "DepthLimitError",
    "ExponentPair",
    "PairFamily",
    "SEED",
    "a_process",
    "b_process",
    "replay_word",
    "generate_pairs",
    "DEFAULT_DEPTH",
    "MAX_DEPTH",
]

#: Generation depth used when none is requested explicitly.
DEFAULT_DEPTH = 12

#: Largest generation depth.  The family grows about x1.6 per level
#: (10,947 pairs at depth 20, 28,658 at 22, 75,026 at 24); on a 2-vCPU
#: Xeon (CPython 3.11.7) ``pairs --depth 22 --prune`` takes about 2 s and
#: 63 MB peak RSS, depth 24 about 6 s and 136 MB.  The balance audit of the
#: depth-22 family, ``zdx audit-family --depth 22`` (41,396 region audits),
#: takes about 3 s end to end.
MAX_DEPTH = 22


class InvalidPair(Inadmissible):
    """(kappa, lambda) outside the admissible exponent-pair triangle."""


class DepthLimitError(Inadmissible):
    """Requested generation depth exceeds ``MAX_DEPTH``."""


@dataclass(frozen=True, order=True)
class ExponentPair:
    """An exponent pair (kappa, lambda) with its derivation word.

    ``word`` is a string over {A, B}; replaying it right-to-left from the
    seed (0, 1) reproduces the pair bit-exactly.  Manually injected pairs
    (outside the A/B closure) carry ``word=None``.
    """

    kappa: Fraction
    lam: Fraction
    word: str | None = field(default="", compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "kappa", rat(self.kappa))
        object.__setattr__(self, "lam", rat(self.lam))
        k, l = self.kappa, self.lam
        if not (0 <= k <= Fraction(1, 2)):
            raise InvalidPair(f"kappa = {rat_str(k)} outside [0, 1/2]")
        if not (Fraction(1, 2) <= l <= 1):
            raise InvalidPair(f"lambda = {rat_str(l)} outside [1/2, 1]")
        if k + l > 1:
            raise InvalidPair(f"kappa + lambda = {rat_str(k + l)} exceeds 1")
        if self.word is not None and any(ch not in "AB" for ch in self.word):
            raise InvalidPair(f"derivation word {self.word!r} not over {{A, B}}")

    @property
    def key(self) -> tuple[Fraction, Fraction]:
        return (self.kappa, self.lam)

    def __str__(self) -> str:
        return f"({rat_str(self.kappa)}, {rat_str(self.lam)})"


SEED = ExponentPair(Fraction(0), Fraction(1), "")


def a_process(p: ExponentPair) -> ExponentPair:
    """One van der Corput A-step applied to p."""
    den = 2 * p.kappa + 2
    word = None if p.word is None else "A" + p.word
    return ExponentPair(p.kappa / den, (p.kappa + p.lam + 1) / den, word)


def b_process(p: ExponentPair) -> ExponentPair:
    """One van der Corput B-step applied to p (an involution)."""
    word = None if p.word is None else "B" + p.word
    return ExponentPair(p.lam - Fraction(1, 2), p.kappa + Fraction(1, 2), word)


def replay_word(word: str) -> ExponentPair:
    """Rebuild the pair a word denotes, applying letters right-to-left."""
    p = SEED
    for ch in reversed(word):
        if ch == "A":
            p = a_process(p)
        elif ch == "B":
            p = b_process(p)
        else:
            raise InvalidPair(f"letter {ch!r} not in {{A, B}}")
    return p


@dataclass(frozen=True)
class PairFamily:
    """Deduplicated set of exponent pairs up to a word-length bound."""

    pairs: tuple[ExponentPair, ...]
    depth: int

    def __iter__(self):
        return iter(self.pairs)

    def __len__(self) -> int:
        return len(self.pairs)

    def __contains__(self, key) -> bool:
        if isinstance(key, ExponentPair):
            key = key.key
        return any(p.key == key for p in self.pairs)

    def to_json(self) -> str:
        rows = [
            {"kappa": rat_str(p.kappa), "lambda": rat_str(p.lam), "word": p.word}
            for p in self.pairs
        ]
        return json.dumps(rows, indent=2) + "\n"


def _pareto_prune(pairs: list[ExponentPair]) -> list[ExponentPair]:
    """Drop Pareto-dominated pairs from a list sorted by distinct (kappa, lam).

    Every pair that could dominate p sorts before it, and an earlier pair
    dominates p iff its lam is <= p.lam; so p is kept iff p.lam is below
    every earlier lam, whose minimum is the lam of the last pair kept.
    """
    kept: list[ExponentPair] = []
    for p in pairs:
        if not kept or p.lam < kept[-1].lam:
            kept.append(p)
    return kept


def generate_pairs(depth: int, prune: bool = False) -> PairFamily:
    """Closure of the seed under A/B words of length <= depth.

    Deduplicates by (kappa, lambda), keeping the first (shortest) word in
    breadth-first order.  With ``prune`` set, Pareto-dominated pairs are
    dropped afterwards.  Depths above ``MAX_DEPTH`` raise DepthLimitError.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if depth > MAX_DEPTH:
        raise DepthLimitError(f"depth {depth} exceeds the pair-family budget of {MAX_DEPTH}")
    seen: dict[tuple[Fraction, Fraction], ExponentPair] = {SEED.key: SEED}
    frontier = [SEED]
    for _ in range(depth):
        nxt = []
        for p in frontier:
            # B is an involution: B of a pair whose word starts with B is its seen parent
            for step in (a_process,) if p.word.startswith("B") else (a_process, b_process):
                q = step(p)
                if q.key not in seen:
                    seen[q.key] = q
                    nxt.append(q)
        frontier = nxt
    pairs = sorted(seen.values(), key=lambda p: p.key)
    if prune:
        pairs = _pareto_prune(pairs)
    return PairFamily(tuple(pairs), depth)
