"""Exact integer verification of the arithmetic behind the mollifier.

The discriminant cusp form's coefficients tau(n) are computed from the
q-expansion q * prod_{n>=1} (1 - q^n)^24 with exact big integers.  The
unnormalized mollifier coefficients m(n) (the Dirichlet inverse of tau,
scaled by n^{11/2} to stay integral) are built multiplicatively, and the
identities the mollifier relies on are checked by exhaustive exact
arithmetic: the convolution cancellation, multiplicativity, the prime
power recursion, and the divisor-count form of Deligne's bound.
"""

from __future__ import annotations

import decimal
import math
from fractions import Fraction
from functools import cached_property

from . import Inadmissible, Record, dec_str

__all__ = [
    "TableLimitError",
    "TauTable",
    "MollifierTable",
    "ConvolutionWitness",
    "DeligneReport",
    "HeckeReport",
    "compute_tau",
    "mollifier_from",
    "convolution_values",
    "verify_table",
    "deligne_check",
    "hecke_recursion_failures",
    "multiplicativity_failures",
    "MAX_LIMIT",
]

#: Time and memory budget: the largest table ``compute_tau`` builds.
#: ``hecke-verify --limit 200000`` takes 1.4-1.6 s at 54 MB peak RSS, and
#: ``--limit 20000`` 0.15-0.24 s at 20 MB (``BENCH_35.json``, "budgets").
#: The CLI writes the CSV in blocks, and under ``tracemalloc``
#: ``compute_tau``'s packed squarings peak no higher than the Deligne check
#: or the convolution with the tables held (``BENCH_35.json``, "stages").
MAX_LIMIT = 200_000


class TableLimitError(Inadmissible):
    """Requested table size exceeds ``MAX_LIMIT``."""


# ---------------------------------------------------------------------------
# Truncated integer power series via packed decimals
# ---------------------------------------------------------------------------

def _packed_square(packed: str, h_in: int, d: int, n: int) -> str:
    """The square of a packed series, as d n digits: blocks c_k + h, highest k first.

    Signed Kronecker substitution in base 10^d (Harvey, J. Symbolic Comput.
    44, 2009): ``packed`` holds n blocks a_i + h_in, d digits each, highest
    i first and each in [0, 10^d), so
    P = packed - h_in sum_{i<n} 10^{d i} = sum a_i 10^{d i}, and
    libmpdec squares P with its number-theoretic transform.  The caller
    picks d with |c_k| < h = 10^d / 2 for every coefficient c_k (k < n) of
    the square.  Then adding h 10^{d k} for each k < n turns the low d n
    digits of P^2 into the blocks c_k + h, each in (0, 10^d); the terms with
    k >= n are multiples of 10^{d n}, and P^2 >= 0, so no carry crosses a
    block.  Those digits are cut off inside ``decimal`` (floor of the sum
    over 10^{d n}, scaled back and subtracted; ``Context.remainder`` is
    hundreds of times slower, ``BENCH_35.json``, "cut"), so only the kept
    half is ever turned into text.  A decimal's digit string is linear in
    its length; a Python int of the packed value would not be.

    The product's length sets the transform's: libmpdec transforms the
    smallest 2^k or 3 2^(k-1) words of 19 digits that hold it, so a digit
    less of d can drop the transform a size, a third or a quarter smaller.
    At limit 20000, compute_tau's first square at d = 15 needs 31,580 words
    and a 2^15 transform; d = 16 needs 33,686 and 3 2^14 (``BENCH_35.json``,
    "widths").
    """
    # exact at any size, and a lost digit would raise; a private context
    # leaves the thread's current one (``dec_str``) untouched
    exact = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX,
                            traps=[decimal.Inexact, decimal.Rounded])
    p = exact.subtract(decimal.Decimal(packed), _repeated(h_in, d, n, exact))
    square = exact.multiply(p, p)
    del p
    square = exact.add(square, _repeated(5 * 10 ** (d - 1), d, n, exact))
    dn = d * n
    high = square.scaleb(-dn, exact).to_integral_value(decimal.ROUND_FLOOR, exact).scaleb(dn, exact)
    return str(exact.subtract(square, high)).zfill(dn)


def _repeated(block: int, d: int, n: int, exact: decimal.Context) -> decimal.Decimal:
    """sum_{k<n} block 10^{d k}, doubling over n's bits: a few additions of
    whole words, over ten times faster than parsing its n d digits
    (``BENCH_35.json``, "offsets")."""
    r, k = decimal.Decimal(0), 0  # r holds k blocks
    for bit in bin(n)[2:]:
        r, k = exact.add(exact.scaleb(r, d * k), r), 2 * k
        if bit == "1":
            r, k = exact.add(exact.scaleb(r, d), block), k + 1
    return r


def _pack(f: list[int]) -> tuple[str, int]:
    """f packed for ``_packed_square`` at the width d its square needs: (text, d).

    The text holds the blocks f_i + 10^d / 2, d digits each, highest i first.

    The width d is the least with 2 sum f_i^2 < 10^d.  Each coefficient
    c_k = sum_{i+j=k} f_i f_j of the square satisfies
    |c_k| <= sum_i |f_i| |f_{k-i}| <= sum_i f_i^2 by Cauchy-Schwarz, so
    |c_k| < 10^d / 2, and so is each |f_i|: the blocks fit in d digits.  A
    constant series +-M of length n reaches the bound at c_{n-1} = n M^2.
    It is never wider than the rule 2 n max|f|^2 < 10^d, and at
    compute_tau's first square it is one digit narrower at 20000 and two at
    200000 (``BENCH_35.json``, "widths").
    """
    d = len(str(2 * sum(c * c for c in f)))
    h = 5 * 10 ** (d - 1)
    return (f"%0{d}d" * len(f)) % tuple([c + h for c in reversed(f)]), d


def _unpack(digits: str, d: int) -> list[int]:
    """The coefficients c_k of ``_packed_square``'s blocks c_k + 10^d / 2, lowest k first."""
    h = 5 * 10 ** (d - 1)
    return [int(digits[i - d:i]) - h for i in range(len(digits), 0, -d)]


def _series_square(f: list[int], n: int) -> list[int]:
    """Square of an integer series of n coefficients, truncated to n, exact."""
    packed, d = _pack(f)
    return _unpack(_packed_square(packed, 5 * 10 ** (d - 1), d, n), d)


def _sparse_square(terms: list[tuple[int, int]], n: int) -> list[int]:
    """Square, truncated to n coefficients, of sum c q^i over ``terms``.

    ``terms`` lists the pairs (i, c) in increasing i.  One product per pair
    of terms whose exponents sum below n, so it beats the packed multiply
    on a series as sparse as Jacobi's, whose terms number about sqrt(2 n).
    """
    out = [0] * n
    for a, (i, c) in enumerate(terms):
        if 2 * i >= n:
            break
        out[2 * i] += c * c
        c2 = 2 * c
        for j, e in terms[a + 1:]:
            if i + j >= n:
                break
            out[i + j] += c2 * e
    return out


def _eta_cubed(n: int) -> list[tuple[int, int]]:
    """The terms (exponent, coefficient) of prod_{m>=1} (1 - q^m)^3 below q^n.

    Jacobi's identity: the series is sum_k (-1)^k (2k+1) q^{k(k+1)/2}.
    """
    terms = []
    k = 0
    while (idx := k * (k + 1) // 2) < n:
        terms.append((idx, -(2 * k + 1) if k % 2 else 2 * k + 1))
        k += 1
    return terms


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------

class TauTable(Record):
    """tau(1..limit) as exact integers (index 0 unused)."""

    limit: int
    tau: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.tau) != self.limit + 1:
            raise ValueError(f"tau table of limit {self.limit} has {len(self.tau)} entries")

    @cached_property
    def _spf(self) -> list[int]:
        """The smallest-prime-factor sieve to ``limit``, built once for every check."""
        return _smallest_prime_factors(self.limit)

    @cached_property
    def _spf_powers(self) -> tuple[list[int], list[int]]:
        """``_prime_powers`` of the sieve, shared by the mollifier and the checks."""
        return _prime_powers(self._spf)

    @cached_property
    def _primes(self) -> list[int]:
        """The primes to ``limit``, read off the sieve once for the convolution
        and the recursion check."""
        spf = self._spf
        return [p for p in range(2, self.limit + 1) if spf[p] == p]


class MollifierTable(Record):
    """Unnormalized mollifier coefficients m(1..limit).

    m is multiplicative with m(p) = -tau(p), m(p^2) = p^11, m(p^a) = 0 for
    a >= 3; it is supported exactly on cube-free integers.
    ``convolution_values`` relies on this form and refuses a table without it.
    """

    limit: int
    m: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.m) != self.limit + 1:
            raise ValueError(f"mollifier table of limit {self.limit} has {len(self.m)} entries")


def compute_tau(limit: int) -> TauTable:
    """Exact tau table: Jacobi's eta^3 squared three times, then shifted by q.

    eta^24 = (((eta^3)^2)^2)^2 takes three exact truncated squarings.  The
    first is term by term on integers (``_sparse_square``): eta^3 has only
    about sqrt(2 limit) nonzero terms, about 200 at limit 20000.  The other
    two are dense and go through packed decimals (``_packed_square``), and
    eta^12 passes between them as text, never as ints:
    - eta^6 packs at the Cauchy-Schwarz width d1 (``_pack``);
    - eta^12's blocks c + h1 are d1-digit strings, whose string max and min
      are the numeric ones, so the second width d2 comes from
      2 limit max|c|^2 < 10^d2 without parsing them;
    - padding each block with d2 - d1 zeros repacks them at width d2, still
      offset by h1, which ``_packed_square`` subtracts.
    The coefficient of q^{n-1} in eta^24 is tau(n).  In process it takes
    1.0-1.4 s at MAX_LIMIT = 200000 and 0.06-0.12 s at 20000, most of
    ``hecke-verify``'s time (``BENCH_35.json``, "layers").
    """
    if limit < 1:
        raise ValueError("limit must be >= 1")
    if limit > MAX_LIMIT:
        raise TableLimitError(f"limit {limit} exceeds the table budget of {MAX_LIMIT}")
    packed, d1 = _pack(_sparse_square(_eta_cubed(limit), limit))
    h1 = 5 * 10 ** (d1 - 1)
    digits = _packed_square(packed, h1, d1, limit)
    del packed
    blocks = [digits[i:i + d1] for i in range(0, d1 * limit, d1)]
    del digits
    m = max(int(max(blocks)) - h1, h1 - int(min(blocks)))
    # d2 >= d1 keeps the padding nonnegative; a block wider than needed is still exact
    d2 = max(d1, len(str(2 * limit * m * m)))
    packed = ("0" * (d2 - d1)).join(blocks)
    del blocks
    digits = _packed_square(packed, h1, d2, limit)
    del packed
    return TauTable(limit, (0, *_unpack(digits, d2)))


def _smallest_prime_factors(limit: int) -> list[int]:
    """spf[n] = the smallest prime factor of n for 2 <= n <= limit (spf[0:2] = [0, 1]).

    Each prime p <= sqrt(limit) writes itself over its multiples from p^2
    on, the largest prime first, so the smallest prime factor writes last.
    """
    spf = list(range(limit + 1))
    root = math.isqrt(limit)
    if root < 2:
        return spf
    small = _smallest_prime_factors(root)
    for p in range(root, 1, -1):
        if small[p] == p:
            spf[p * p::p] = [p] * ((limit - p * p) // p + 1)
    return spf


def _prime_powers(spf: list[int]) -> tuple[list[int], list[int]]:
    """(a, rest) with n = p^a[n] rest[n], p = spf[n] not dividing rest[n], for n >= 2.

    n / p is p^(a-1) rest, so both are read off n / p in O(1) per n;
    a[1] = 0 and rest[1] = 1.
    """
    limit = len(spf) - 1
    a, rest = [0] * (limit + 1), [0] * (limit + 1)
    if limit:
        rest[1] = 1
    for n in range(2, limit + 1):
        p = spf[n]
        q = n // p
        if spf[q] == p:
            a[n], rest[n] = a[q] + 1, rest[q]
        else:
            a[n], rest[n] = 1, q
    return a, rest


def mollifier_from(table: TauTable) -> MollifierTable:
    """Build m(1..limit) multiplicatively from the tau table: m(n) = m(rest) m(p^a)."""
    limit, tau, spf = table.limit, table.tau, table._spf
    a, rest = table._spf_powers
    m = [0] * (limit + 1)
    m[1] = 1
    # m(p^a) = 0 for a >= 3, so those n keep their 0
    for n, p, an, r in zip(range(2, limit + 1), spf[2:], a[2:], rest[2:]):
        if an == 1:
            m[n] = m[r] * -tau[p]
        elif an == 2:
            m[n] = m[r] * p ** 11
    return MollifierTable(limit, tuple(m))


# ---------------------------------------------------------------------------
# Identity checks
# ---------------------------------------------------------------------------

class ConvolutionWitness(Record):
    """A value of sum_{d | n} m(d) tau(n/d) that missed its expectation."""

    n: int
    value: int
    expected: int


def convolution_values(table: TauTable, moll: MollifierTable) -> list[int]:
    """sum_{d k = n} m(d) tau(k) for n = 1..table.limit (index 0 unused).

    m is multiplicative and vanishes on cubes (``MollifierTable``), so the
    Dirichlet series of m is the Euler product over p of
    1 + m(p) p^{-s} + m(p^2) p^{-2s}.  Starting from tau, multiplying by
    one such factor is vals[n] += m(p) vals[n/p] + m(p^2) vals[n/p^2] with
    the values from before the factor: two slices over the multiples of p,
    about limit (1/p + 1/p^2) products.  Over the primes p <= limit that is
    about limit log log limit products, where the sum over d k = n takes
    about limit log limit.  The product is the sum over d k = n only when
    m is that extension of its prime-power entries, so m is checked first
    (``_first_non_multiplicative_m``), in one pass over n.  In process the
    whole call takes 10-15 ms at 20000 and 0.12-0.21 s at MAX_LIMIT
    (``BENCH_32.json``, "layers").
    """
    limit = table.limit
    if limit > moll.limit:
        raise ValueError("the table limit exceeds the mollifier limit")
    m = moll.m
    bad = _first_non_multiplicative_m(m, *table._spf_powers)
    if bad is not None:
        raise ValueError(
            f"the mollifier is not multiplicative with m(p^a) = 0 for a >= 3 at n = {bad}")
    vals = [0, *table.tau[1:]]
    for p in table._primes:
        old = vals[1:limit // p + 1]
        mp = m[p]
        vals[p::p] = [v + mp * o for v, o in zip(vals[p::p], old)]
        p2 = p * p
        if p2 <= limit:
            mp2 = m[p2]
            vals[p2::p2] = [v + mp2 * o for v, o in zip(vals[p2::p2], old)]
    return vals


def _first_non_multiplicative_m(m: tuple[int, ...], a: list[int], rest: list[int]) -> int | None:
    """The first n in 1..len(a) - 1 where m is not the multiplicative
    function with m(1) = 1, the prime-power entries m(p), m(p^2) of m, and
    m(p^a) = 0 for a >= 3; None if there is none.

    With n = p^a rest as in ``_prime_powers``, that function has
    m(n) = m(p^a) m(rest) for a <= 2 and m(n) = 0 for a >= 3, and these
    equalities at every n >= 2, with m(1) = 1, determine it.
    """
    if len(a) > 1 and m[1] != 1:
        return 1
    for n, an, r in zip(range(2, len(a)), a[2:], rest[2:]):
        if m[n] != (m[n // r] * m[r] if an <= 2 else 0):
            return n
    return None


def _convolution_witnesses(vals: list[int]) -> list[ConvolutionWitness]:
    """Where ``convolution_values``'s output is not 1 at n = 1 and 0 after (empty = pass)."""
    failures = []
    for n in range(1, len(vals)):
        expected = 1 if n == 1 else 0
        if vals[n] != expected:
            failures.append(ConvolutionWitness(n, vals[n], expected))
    return failures


class DeligneReport(Record):
    """Worst case of tau(n)^2 against d(n)^2 n^11 over the table."""

    limit: int
    max_ratio: Fraction
    argmax: int
    violations: tuple[int, ...]

    @property
    def max_ratio_decimal(self) -> str:
        return dec_str(self.max_ratio)

    @property
    def ok(self) -> bool:
        return not self.violations


def _divisor_counts(a: list[int], rest: list[int]) -> list[int]:
    """d(n), the number of divisors of n, for n = 0..limit (d(0) = 0)."""
    # n = p^a rest with p not dividing rest, so d(n) = d(rest) (a + 1)
    limit = len(a) - 1
    d = [0] * (limit + 1)
    if limit:
        d[1] = 1
    for n, an, r in zip(range(2, limit + 1), a[2:], rest[2:]):
        d[n] = d[r] * (an + 1)
    return d


def deligne_check(table: TauTable) -> DeligneReport:
    """Exact check of tau(n)^2 <= d(n)^2 n^11 for every n in the table.

    Once the running maximum ratio is at least 1, an entry within the bound
    has ratio at most 1 and cannot replace it (a tie keeps the first
    argmax), so only violations are compared with it.  An entry with
    |tau(n)| < F, the float F = 0.999 * d(n) * n ** 5.5, is skipped unsquared:
    - an int and a float compare exactly;
    - n and d(n) are exact floats, and the constant 0.999, the pow (within
      an ulp) and the two products each add a relative error below 2^-52,
      so F is within 1e-15 of 0.999 d(n) n^5.5 relatively, and below
      d(n) n^5.5;
    - so tau(n)^2 < d(n)^2 n^11: a ratio below 1, neither a violation nor
      a new maximum.
    In process this takes the check from 8.4 to 5.2 ms at 20000 and from
    130 to 78 ms at 200000, medians (``BENCH_34.json``, "layers").
    """
    d = _divisor_counts(*table._spf_powers)
    best_num, best_den, argmax = 0, 1, 1
    violations = []
    for n, t, dn in zip(range(1, table.limit + 1), table.tau[1:], d[1:]):
        if best_num >= best_den and abs(t) < 0.999 * dn * n ** 5.5:
            continue
        num = t * t
        den = dn * dn * n ** 11
        if num > den:
            violations.append(n)
        elif best_num >= best_den:
            continue
        if num * best_den > best_num * den:
            best_num, best_den, argmax = num, den, n
    return DeligneReport(table.limit, Fraction(best_num, best_den), argmax, tuple(violations))


def hecke_recursion_failures(table: TauTable) -> list[tuple[int, int]]:
    """Prime powers (p, a) with tau(p^{a+1}) != tau(p) tau(p^a) - p^11 tau(p^{a-1})."""
    limit, tau = table.limit, table.tau
    failures = []
    for p in table._primes:
        pa = p  # p^a, starting at a = 1
        a = 1
        while pa * p <= limit:
            lhs = tau[pa * p]
            rhs = tau[p] * tau[pa] - p ** 11 * tau[pa // p]
            if lhs != rhs:
                failures.append((p, a))
            pa *= p
            a += 1
    return failures


def multiplicativity_failures(table: TauTable) -> list[tuple[int, int]]:
    """Coprime pairs (m, n), m < n, m n <= limit, with tau(mn) != tau(m) tau(n).

    One pass first checks tau(n) = tau(p^a) tau(rest) at every n = p^a rest
    (``_prime_powers``) with rest > 1.  It passes exactly when there is no
    such pair:
    - if no pair fails, each check is one of them: p^a and rest are coprime,
      both at least 2, and their product is n;
    - if it passes, then by induction on the number of distinct primes of
      n, tau(n) is the product of tau(q) over the prime powers q exactly
      dividing n, for every 2 <= n <= limit (rest has one prime fewer than
      n).  Coprime m and n share no prime power, so tau(mn) = tau(m) tau(n).
    So a pass returns [], in about limit products against about
    limit log limit / 2 for the pairs; only a failing table enumerates them.
    In process a passing table takes 2-4 ms at 20000 and 0.03-0.06 s at
    MAX_LIMIT (``BENCH_32.json``, "layers").
    """
    limit, tau = table.limit, table.tau
    rest = table._spf_powers[1]
    for n, r in zip(range(2, limit + 1), rest[2:]):
        if r > 1 and tau[n] != tau[n // r] * tau[r]:
            break
    else:
        return []
    failures = []
    for m in range(2, math.isqrt(limit) + 1):
        tm, top = tau[m], limit // m
        # (n, tau(m n), tau(n)) for n = m+1..top; a correct table matches at
        # every coprime n, so the coprimality test runs only on a mismatch
        for n, tmn, tn in zip(range(m + 1, top + 1), tau[m * (m + 1)::m], tau[m + 1:top + 1]):
            if tmn != tm * tn and math.gcd(m, n) == 1:
                failures.append((m, n))
    return failures


class HeckeReport(Record):
    """Every identity check of one tau table, with the tables it checked.

    ``convolution`` holds sum_{d | n} m(d) tau(n/d) for n = 1..limit
    (index 0 unused); each failure list names its witnesses.
    """

    table: TauTable
    mollifier: MollifierTable
    convolution: list[int]
    convolution_failures: list[ConvolutionWitness]
    recursion_failures: list[tuple[int, int]]
    multiplicativity_failures: list[tuple[int, int]]
    deligne: DeligneReport

    @property
    def ok(self) -> bool:
        return self.deligne.ok and not (
            self.convolution_failures or self.recursion_failures
            or self.multiplicativity_failures
        )


def verify_table(limit: int) -> HeckeReport:
    """Compute tau(1..limit) and m(1..limit) and run every identity check once.

    Raises TableLimitError beyond MAX_LIMIT, like ``compute_tau``.
    """
    table = compute_tau(limit)
    moll = mollifier_from(table)
    conv = convolution_values(table, moll)
    return HeckeReport(
        table,
        moll,
        conv,
        _convolution_witnesses(conv),
        hecke_recursion_failures(table),
        multiplicativity_failures(table),
        deligne_check(table),
    )
