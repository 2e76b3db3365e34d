"""Van der Corput exponent pairs.

Pairs are generated from the seed (0, 1) by the two classical processes

    A: (k, l) -> (k/(2k+2), (k+l+1)/(2k+2))
    B: (k, l) -> (l - 1/2, k + 1/2)

and carry the word that produced them (rightmost letter applied first).
All coordinates are exact rationals: a pair is stored as its integer
triple (p, r, q), kappa = p/q and lambda = r/q, on which both processes act.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Collection
from fractions import Fraction

from . import Inadmissible, Record, rat

__all__ = [
    "InvalidPair",
    "DepthLimitError",
    "ExponentPair",
    "PairFamily",
    "SEED",
    "replay_word",
    "closure",
    "generate_pairs",
    "sorted_triples",
    "triple_str",
    "MAX_DEPTH",
]

#: Largest generation depth.  The family grows about x1.6 per level
#: (10,947 pairs at depth 20, 28,658 at 22, 75,026 at 24).  End to end,
#: ``pairs --depth 22`` takes 0.23-0.40 s at 31 MB peak RSS, and ``zdx
#: audit-family --depth 22`` (41,396 region audits) 0.25-0.32 s at 24 MB
#: (``BENCH_34.json``, "budgets").
MAX_DEPTH = 22


class InvalidPair(Inadmissible):
    """(kappa, lambda) outside the admissible exponent-pair triangle."""


class DepthLimitError(Inadmissible):
    """Requested generation depth exceeds ``MAX_DEPTH``."""


def _ratio(n: int, q: int) -> str:
    """``rat_str(Fraction(n, q))`` for q > 0, without building the Fraction."""
    g = math.gcd(n, q)
    return str(n // g) if g == q else f"{n // g}/{q // g}"


def triple_str(p: int, r: int, q: int) -> str:
    """The text "(kappa, lambda)" of the pair (p/q, r/q), q > 0."""
    return f"({_ratio(p, q)}, {_ratio(r, q)})"


def _check(p: int, r: int, q: int, word: str | None) -> None:
    """Raise InvalidPair unless (p/q, r/q), q > 0, lies in the exponent-pair
    triangle and word is None or a string over {A, B}."""
    if not 0 <= 2 * p <= q:
        raise InvalidPair(f"kappa = {_ratio(p, q)} outside [0, 1/2]")
    if not q <= 2 * r <= 2 * q:
        raise InvalidPair(f"lambda = {_ratio(r, q)} outside [1/2, 1]")
    if p + r > q:
        raise InvalidPair(f"kappa + lambda = {_ratio(p + r, q)} exceeds 1")
    if word is not None and word.strip("AB"):
        raise InvalidPair(f"derivation word {word!r} not over {{A, B}}")


def _compare(op):
    """A rich comparison of two pairs by (kappa, lambda), on cross products."""

    def compare(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        (p, r, q), (p2, r2, q2) = self.triple, other.triple
        return op((p * q2, r * q2), (p2 * q, r2 * q))

    return compare


class ExponentPair:
    """An exponent pair (kappa, lambda) with its derivation word, immutable.

    It is stored as ``triple`` = (p, r, q), with kappa = p/q, lambda = r/q
    and q > 0 least, so equal pairs have equal triples; ``kappa`` and
    ``lam`` are exact Fractions built from it on demand.  Pairs compare,
    hash and order by (kappa, lambda); the word is ignored.

    ``word`` is a string over {A, B}; replaying it right-to-left from the
    seed (0, 1) reproduces the pair bit-exactly.  Manually injected pairs
    (outside the A/B closure) carry ``word=None``.
    """

    __slots__ = ("triple", "word")

    def __init__(self, kappa: Fraction, lam: Fraction, word: str | None = "") -> None:
        k, l = rat(kappa), rat(lam)
        q = math.lcm(k.denominator, l.denominator)
        p, r = k.numerator * (q // k.denominator), l.numerator * (q // l.denominator)
        _check(p, r, q, word)
        _set_triple(self, (p, r, q))
        _set_word(self, word)

    @property
    def kappa(self) -> Fraction:
        return Fraction(self.triple[0], self.triple[2])

    @property
    def lam(self) -> Fraction:
        return Fraction(self.triple[1], self.triple[2])

    @property
    def key(self) -> tuple[Fraction, Fraction]:
        return (self.kappa, self.lam)

    __eq__, __lt__, __le__, __gt__, __ge__ = map(
        _compare, (operator.eq, operator.lt, operator.le, operator.gt, operator.ge)
    )

    def __hash__(self) -> int:
        return hash(self.key)

    __setattr__, __delattr__ = Record.__setattr__, Record.__delattr__

    def __reduce__(self):
        return ExponentPair, (self.kappa, self.lam, self.word)

    def __repr__(self) -> str:
        return f"ExponentPair(kappa={self.kappa!r}, lam={self.lam!r}, word={self.word!r})"

    def __str__(self) -> str:
        return triple_str(*self.triple)


_set_triple, _set_word = ExponentPair.triple.__set__, ExponentPair.word.__set__


def _pair(triple: tuple[int, int, int], word: str | None) -> ExponentPair:
    """The pair of a triple in lowest terms with q > 0 that passed ``_check``."""
    pair = object.__new__(ExponentPair)
    _set_triple(pair, triple)
    _set_word(pair, word)
    return pair


def _a(p: int, r: int, q: int) -> tuple[int, int, int]:
    """The A-process on triples: (p, p + r + q, 2p + 2q) in lowest terms."""
    r, q = p + r + q, 2 * p + 2 * q
    g = math.gcd(p, r, q)
    return p // g, r // g, q // g


def _b(p: int, r: int, q: int) -> tuple[int, int, int]:
    """The B-process on triples: (2r - q, 2p + q, 2q) in lowest terms."""
    p, r, q = 2 * r - q, 2 * p + q, 2 * q
    g = math.gcd(p, r, q)
    return p // g, r // g, q // g


SEED = ExponentPair(Fraction(0), Fraction(1), "")


def replay_word(word: str) -> ExponentPair:
    """Rebuild the pair a word denotes, applying letters right-to-left."""
    t = SEED.triple
    for ch in reversed(word):
        if ch == "A":
            t = _a(*t)
        elif ch == "B":
            t = _b(*t)
        else:
            raise InvalidPair(f"letter {ch!r} not in {{A, B}}")
    _check(*t, word)
    return _pair(t, word) if word else SEED


class PairFamily(Record):
    """Deduplicated set of exponent pairs up to a word-length bound."""

    pairs: tuple[ExponentPair, ...]

    def __iter__(self):
        return iter(self.pairs)

    def __len__(self) -> int:
        return len(self.pairs)

    def to_json(self) -> str:
        """``json.dumps(rows, indent=2) + "\\n"`` of the rows {kappa, lambda, word}.

        The text is written directly, kappa and lambda from each triple and
        the word by ``json.dumps``: an indented ``json.dumps`` runs the
        pure-Python encoder.
        """
        if not self.pairs:
            return "[]\n"
        from json import dumps

        rows = ",\n".join(
            f'  {{\n    "kappa": "{_ratio(p, q)}",'
            f'\n    "lambda": "{_ratio(r, q)}",'
            f'\n    "word": {dumps(pair.word)}\n  }}'
            for pair in self.pairs
            for p, r, q in (pair.triple,)
        )
        return f"[\n{rows}\n]\n"


def sorted_triples(triples: Collection[tuple]) -> list[tuple]:
    """Tuples led by (p, r, q), q > 0, stably sorted by (p/q, r/q), exactly.

    floor(2^shift x) orders rationals exactly: two distinct ones with
    denominators below 2^B differ by more than 2^-2B, and shift > 2B.
    """
    shift = 2 * max((t[2] for t in triples), default=1).bit_length() + 1
    return sorted(triples, key=lambda t: ((t[0] << shift) // t[2], (t[1] << shift) // t[2]))


def closure(depth: int) -> dict[tuple[int, int, int], str]:
    """The seed's closure under A/B words of length <= depth: {(p, r, q): word}
    in breadth-first order, each triple in lowest terms with its first
    (shortest) word and checked (``_check``) once, when first seen.  Depths
    above ``MAX_DEPTH`` raise DepthLimitError."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if depth > MAX_DEPTH:
        raise DepthLimitError(f"depth {depth} exceeds the pair-family budget of {MAX_DEPTH}")
    seen = {SEED.triple: ""}
    frontier = [SEED.triple]
    for _ in range(depth):
        nxt = []
        for parent in frontier:
            word = seen[parent]
            children = [("A", _a(*parent))]
            # B is an involution: B of a pair whose word starts with B is its seen parent
            if word[:1] != "B":
                children.append(("B", _b(*parent)))
            for letter, child in children:
                if child not in seen:
                    _check(*child, child_word := letter + word)
                    seen[child] = child_word
                    nxt.append(child)
        frontier = nxt
    return seen


def generate_pairs(depth: int) -> PairFamily:
    """The pairs of ``closure(depth)``, sorted: kappa strictly rises and
    lambda strictly falls, so no pair dominates another."""
    seen = closure(depth)
    # the empty word is the seed itself; the closure checked every other triple
    return PairFamily(tuple(_pair(t, seen[t]) if seen[t] else SEED for t in sorted_triples(seen)))
