"""Exact evaluation of generalized Mertens sums over sieved primes.

S_k(x) sums 1/(p_1 ... p_k) over ordered prime k-tuples with product <= x.
Two independent routes are provided:

* :func:`sk_direct` - literal recursive enumeration of the defining sum,
  no memoization, in integer fixed point or exact rationals.  The oracle.
* :func:`sk_levels` - bottom-up dynamic programming over the key space
  {floor(x/n)}, identical mathematics, engineered for x up to 10^10; one
  pass yields S_1(x), ..., S_k(x).  :func:`sk_fast` is its last level.

Both count ordered tuples: (2,3) and (3,2) are distinct terms.  S_0 is 1
for every argument >= 1 (the empty product), which makes the recursion

    S_k(x) = sum_{p <= x} S_{k-1}(floor(x/p)) / p

close; S_k depends on x only through floor(x), so arguments are integers.

The engine's level tables, one entry per key, hold S_j as nonnegative
integers scaled by 2^frac_bits.  Level 1 comes from :func:`seed_table`,
exact uint64 limb arithmetic in numpy.  Level j is evaluated at key v with r = isqrt(v)
split in two (the hyperbola method, Tenenbaum, Introduction to Analytic
and Probabilistic Number Theory, I.3):

* primes p <= r contribute floor(S_{j-1}(v // p) / p) one at a time;
* primes p > r are grouped by their quotient y = v // p, y = 1..v//(r+1).
  All primes of a group share S_{j-1}(y), and their reciprocals sum to
  S_1(v // y) - S_1(max(v // (y + 1), r)), a difference of level-1 entries.
  The group products (scale 2^(2 frac_bits)) are summed exactly and
  shifted right once per key.

Every argument above is a key, so no level needs one division per
(key, prime) pair.  The per-prime part at x // n reads x // (n p), and
the grouped part reads only keys up to sqrt(x) and the full level-1 and
pi tables.  So level k is evaluated only at x, in O(sqrt(x)) operations,
and level j < k only where level j + 1 reads it: at the keys up to
sqrt(x), about (2/3) x^(3/4) operations, and at the large keys x // n
with Omega(n) <= k - j.  Tuple counts follow the same split with pi in
place of S_1.  All quantities are nonnegative and every rounding is a
floor, so each table entry is at most the true value and the error ledger
is one-sided.  Summation order is fixed, so results are bit-reproducible.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from operator import floordiv, mul, sub

import numpy as np
from mpmath import mp, mpf

from .bigreal import DEFAULT_PRECISION, check_precision, working_precision
from .errors import CapacityError, DomainError, ParameterError
from .primes import PrimeTable

DIRECT_MAX_X = 100_000
FAST_MAX_X = 10_000_000_000
MAX_K = FAST_MAX_X.bit_length()  # S_k(x) = 0 once 2^k > x: larger k adds only zero levels
MEMORY_BUDGET_BYTES = 1 << 31  # estimate guard for table + prime storage


@dataclass(frozen=True)
class KeySpace:
    """The distinct values {floor(x/n) : n >= 1}, ascending.

    Closed under y -> floor(y/p): every recursion argument the engine can
    reach stays inside the table.  Size is at most 2*ceil(sqrt(x)).
    :meth:`indices` is the one place that maps keys to table positions.
    """

    x: int
    keys: np.ndarray = field(repr=False)
    sqrt_x: int

    @classmethod
    def build(cls, x: int) -> "KeySpace":
        if x < 1:
            raise DomainError(f"key space needs x >= 1, got {x}")
        s = math.isqrt(x)
        small = np.arange(1, s + 1, dtype=np.int64)
        big = x // np.arange(s, 0, -1, dtype=np.int64)
        if big.size and big[0] == s:  # x//s == s would duplicate the corner
            big = big[1:]
        return cls(x=int(x), keys=np.concatenate([small, big]), sqrt_x=s)

    def indices(self, v: int, divisors) -> list[int]:
        """Table positions of the keys v // d for d in divisors (v a key, d >= 1)."""
        if v <= self.sqrt_x:
            return [v // d - 1 for d in divisors]
        # v = x // n, so v // d = x // (n d): a large key while n d <= x // (s + 1)
        x, nk, big = self.x, self.keys.size, self.x // (self.sqrt_x + 1)
        n = x // v
        return [nk - n * d if n * d <= big else x // (n * d) - 1 for d in divisors]

    def __len__(self) -> int:
        return int(self.keys.size)


@dataclass(frozen=True)
class MertensSumResult:
    """One S_k(x) evaluation with its error ledger and bookkeeping."""

    k: int
    x: int
    value: object  # mpf (or Fraction in exact mode)
    error_bound: object
    method: str
    elapsed: float
    terms: int


def _require_cover(primes: PrimeTable, x: int) -> None:
    if primes.limit < x:
        raise ParameterError(
            f"prime table covers only limit={primes.limit}, need >= x={x}",
            suggestion=x,
        )


# ----------------------------------------------------------------------
# The oracle: literal enumeration.

def sk_direct(
    k: int,
    x: int,
    primes: PrimeTable,
    precision: int = DEFAULT_PRECISION,
    exact: bool = False,
) -> MertensSumResult:
    """S_k(x) by recursive enumeration of ordered tuples, no memoization.

    Each tuple with product d adds floor(2^F / d) in integers, F the
    engine's fractional bits, so the ledger is under one unit per tuple.
    ``exact=True`` adds Fraction(1, d) instead; practical only for small x
    since denominators grow as products of primes.  Capacity-capped at
    x = 10^5: beyond that use :func:`sk_fast`.
    """
    if not isinstance(k, int) or k < 0:
        raise DomainError(f"k must be an integer >= 0, got {k!r}")
    x = int(x)
    if x > DIRECT_MAX_X:
        raise CapacityError(
            f"x={x} exceeds the direct oracle scale {DIRECT_MAX_X}; use sk_fast"
        )
    if x >= 2:
        _require_cover(primes, x)
    check_precision(precision)

    t0 = time.perf_counter()
    plist = primes.primes[: primes.count_upto(max(x, 0))].tolist()
    frac_bits = fixed_point_params(precision)
    scale = 1 << frac_bits
    unit = (lambda d: Fraction(1, d)) if exact else (lambda d: scale // d)
    tuples = 0

    def rec(j: int, y: int, d: int):
        # the tuples extending a prefix with product d, grouped under it
        nonlocal tuples
        if j == 0:
            tuples += 1
            return unit(d)
        total = 0
        for p in plist:
            if p > y:
                break
            total += rec(j - 1, y // p, d * p)
        return total

    total = rec(k, x, 1) if x >= 1 else 0
    if exact:
        value, bound = Fraction(total), Fraction(0)
    else:
        # each tuple's floor drops less than one unit
        value, bound = _fixed_value_bound(total, tuples, frac_bits, precision)
    return MertensSumResult(
        k=k, x=x, value=value, error_bound=bound,
        method="direct", elapsed=time.perf_counter() - t0, terms=tuples,
    )


# ----------------------------------------------------------------------
# The engine: memoized dynamic programming over the key space.

LEDGER_MARGIN = 16  # frac bits beyond the requested precision
HEADROOM_BITS = 24  # more frac bits: ledgers grow like pi(x) * S_{k-1}(x) units


def fixed_point_params(precision: int) -> int:
    """Fractional bits of the fixed-point tables for a precision request."""
    return precision + LEDGER_MARGIN + HEADROOM_BITS


SEED_CHUNK = 1 << 16  # primes per block of the seed's cumulative sums


def seed_table(counts: np.ndarray, primes: np.ndarray, frac_bits: int) -> list[int]:
    """Level 1: sum of floor(2^frac_bits / p) over the first counts[i] primes, per i.

    ``counts`` is nondecreasing.  Each floor(2^frac_bits / p) is a long
    division by p in limbs of L bits, most significant limb first; the
    limb quotients are summed per limb by cumulative sums over blocks of
    primes, carried from block to block and read at each key's last prime.
    Only these per-key limb sums are joined into whole ints.  With
    L = min(32, 64 - bits(pmax)), both a remainder shifted left by L
    (below pmax * 2^L) and a limb sum (below pmax quotients of 2^L each)
    stay under 2^64, so every step is exact uint64 arithmetic.
    """
    n = int(counts[-1])
    if n == 0:
        return [0] * len(counts)
    limb = min(32, 64 - int(primes[n - 1]).bit_length())
    nlimbs = frac_bits // limb + 1
    top = np.uint64(1 << (frac_bits - limb * (nlimbs - 1)))  # leading digit of 2^frac_bits
    ends = counts.astype(np.int64) - 1  # position of each key's last prime
    sums = np.zeros((nlimbs, len(counts)), dtype=np.uint64)
    carry = np.zeros(nlimbs, dtype=np.uint64)
    shift = np.uint64(limb)
    for start in range(0, n, SEED_CHUNK):
        p = primes[start : min(start + SEED_CHUNK, n)].astype(np.uint64)
        lo, hi = np.searchsorted(ends, [start, start + p.size])
        at = ends[lo:hi] - start
        rem = np.full(p.size, top, dtype=np.uint64)
        for i in range(nlimbs):
            q, rem = np.divmod(rem, p)
            rem <<= shift  # the remaining digits of 2^frac_bits are zero
            running = np.cumsum(q)
            running += carry[i]
            sums[i, lo:hi] = running[at]
            carry[i] = running[-1]
    vals = sums[0].tolist()
    for row in sums[1:]:
        vals = [(v << limb) + c for v, c in zip(vals, row.tolist())]
    return vals


def _advance(keyspace: KeySpace, keys: list[int], positions, small_primes: list[int],
             level1: list[int], pi: list[int], prev: list[int], prev_counts: list[int],
             frac_bits: int):
    """One grouped-quotient level (see module docstring) at the table positions given.

    Returns full-length (values, counts) lists whose other entries are 0.
    """
    indices = keyspace.indices
    prev_at, counts_at = prev.__getitem__, prev_counts.__getitem__
    out = [0] * len(keys)
    out_counts = [0] * len(keys)
    for pos in positions:
        v = keys[pos]
        r = math.isqrt(v)
        # primes p <= r, one at a time
        ps = small_primes[: pi[r - 1]]
        idx = indices(v, ps)
        acc = sum(map(floordiv, map(prev_at, idx), ps))
        cnt = sum(map(counts_at, idx))
        # primes p > r, grouped by y = v // p; the last group starts above r
        ymax = v // (r + 1)
        idx = indices(v, range(1, ymax + 1))
        idx.append(r - 1)
        s1 = [level1[i] for i in idx]
        grouped = sum(map(mul, prev[:ymax], map(sub, s1, s1[1:])))
        pis = [pi[i] for i in idx]
        cnt += sum(map(mul, prev_counts[:ymax], map(sub, pis, pis[1:])))
        out[pos] = acc + (grouped >> frac_bits)
        out_counts[pos] = cnt
    return out, out_counts


def _levels(keyspace: KeySpace, primes: np.ndarray, frac_bits: int, k: int):
    """Yield (values, counts) for levels 1..k, each computed once.

    ``primes`` are the primes up to ``keyspace.x``; counts[i] of level 1 is
    pi(keys[i]).  Level 1 fills every key and level k only x.  Level j < k
    fills the keys level j + 1 reads (see the module docstring): every key
    up to sqrt_x and the large keys x // n with Omega(n) <= k - j.  Other
    entries are 0.
    """
    # keys <= x fit the primes' dtype; a mixed-dtype search would copy the primes
    counts = np.searchsorted(primes, keyspace.keys.astype(primes.dtype), side="right")
    level1, pi = seed_table(counts, primes, frac_bits), counts.tolist()
    yield level1, pi
    if k == 1:
        return
    s, nk = keyspace.sqrt_x, len(keyspace)
    keys = keyspace.keys.tolist()
    small_primes = primes[: pi[s - 1]].tolist()
    # Omega(n) for n <= x // (s + 1), the n of the large keys x // n (at nk - n)
    big = keyspace.x // (s + 1)
    omega = np.zeros(big + 1, dtype=np.int8)
    for p in small_primes:
        if p > big:
            break
        q = p
        while q <= big:
            omega[q::q] += 1
            q *= p
    vals, counts = level1, pi
    for j in range(2, k + 1):
        if j < k:
            n = np.flatnonzero(omega[1:] <= k - j) + 1
            positions = [*range(s), *(nk - n).tolist()]
        else:
            positions = [nk - 1]
        vals, counts = _advance(keyspace, keys, positions, small_primes, level1, pi,
                                vals, counts, frac_bits)
        yield vals, counts


def truncation_error_ledger(pi_x: int, tops: list[int], frac_bits: int) -> int:
    """Upper bound, in units of 2^-frac_bits, on true - computed at level len(tops).

    ``tops[j-1]`` is the computed level-j value at x.  Level 1 drops less
    than one unit per prime.  Level j inherits E_{j-1} * S_1(x) from its
    inputs and adds, per key, under one unit per prime p <= r (one floor
    division each), under S_{j-1}(x) units per prime p > r (the S_1
    difference of its group), and one unit for the final shift.  True
    values are bounded above by computed value plus ledger.  All rounding
    here is upward, in exact integers.
    """
    one = 1 << frac_bits
    ledger = pi_x
    s1_upper = tops[0] + ledger
    for top in tops[:-1]:
        prev_upper = max(one, top + ledger)
        ledger = -(-ledger * s1_upper // one) - (-pi_x * prev_upper // one) + 1
    return ledger


def _fixed_to_mpf(value_int: int, frac_bits: int, precision: int):
    with mp.workprec(max(frac_bits + 32, precision + 32)):
        v = mpf(value_int) / mpf(2) ** frac_bits
    with working_precision(precision):
        return +v


def _fixed_value_bound(value_int: int, ledger: int, frac_bits: int, precision: int):
    """(value, error_bound) as mpf of a fixed-point value low by at most ``ledger`` units."""
    value = _fixed_to_mpf(value_int, frac_bits, precision)
    with working_precision(precision):
        # 2^16 times the relative rounding at this working precision: covers
        # rounding the value, converting the ledger and this expression
        slack = mpf(2) ** -(precision + 16)
        bound = mpf(ledger) * mpf(2) ** -frac_bits * (1 + slack) + abs(value) * slack
    return value, bound


def _estimate_bytes(n_keys: int, frac_bits: int) -> int:
    # level-1, previous and next values as Python ints (header plus 30-bit
    # digits), pi and two count tables, one list slot per entry, and the
    # seed's per-key limb sums (limbs of at least 30 bits) as uint64
    digits = frac_bits // 30 + 2
    return n_keys * (3 * (24 + 4 * digits) + 3 * 32 + 6 * 8 + 8 * digits)


def sk_levels(
    k: int,
    x: int,
    primes: PrimeTable,
    precision: int = DEFAULT_PRECISION,
) -> list[MertensSumResult]:
    """S_1(x), ..., S_k(x) from one level-by-level DP pass over KeySpace(x).

    Level 1 is the prime-reciprocal prefix table; level j reads level j-1
    through floor division, so the pass that yields S_k(x) computes every
    lower level on the way, at x and at the keys the next level reads
    (see :func:`_levels`), and each level's value at x is reported here.
    All arithmetic is exact fixed-point integer work at precision + 40
    fractional bits (see the module docstring), summed in a fixed order, so
    results are deterministic to the bit and each level's error ledger is a
    one-sided truncation bound.  x is capped at ``FAST_MAX_X``, k at
    ``MAX_K``, precision at ``bigreal.MAX_PRECISION``, and the estimated
    working set at ``MEMORY_BUDGET_BYTES``.
    Entry j-1 has ``k == j``; its ``elapsed`` runs from the call to the end
    of level j.
    """
    if not isinstance(k, int) or k < 1:
        raise DomainError(f"k must be an integer >= 1, got {k!r}")
    if k > MAX_K:
        raise CapacityError(f"k={k} exceeds the supported maximum {MAX_K}")
    x = int(x)
    if x < 1:
        raise DomainError(f"x must be >= 1, got {x}")
    if x > FAST_MAX_X:
        raise CapacityError(f"x={x} exceeds the configured maximum {FAST_MAX_X}")
    check_precision(precision)
    if x >= 2:
        _require_cover(primes, x)

    t0 = time.perf_counter()
    keyspace = KeySpace.build(x)
    pcount = primes.count_upto(x)
    frac_bits = fixed_point_params(precision)
    est = _estimate_bytes(len(keyspace), frac_bits)
    if est > MEMORY_BUDGET_BYTES:
        raise CapacityError(
            f"estimated working set {est / 1e9:.2f} GB exceeds budget "
            f"{MEMORY_BUDGET_BYTES / 1e9:.2f} GB"
        )

    results = []
    tops = []
    levels = _levels(keyspace, primes.primes[:pcount], frac_bits, k)
    for j, (values, counts) in enumerate(levels, start=1):
        tops.append(values[-1])
        ledger = truncation_error_ledger(pcount, tops, frac_bits)
        value, bound = _fixed_value_bound(values[-1], ledger, frac_bits, precision)
        results.append(MertensSumResult(
            k=j, x=x, value=value, error_bound=bound,
            method="memoized", elapsed=time.perf_counter() - t0, terms=counts[-1],
        ))
    return results


def sk_fast(
    k: int,
    x: int,
    primes: PrimeTable,
    precision: int = DEFAULT_PRECISION,
) -> MertensSumResult:
    """S_k(x) by the level-by-level DP over KeySpace(x): the last of :func:`sk_levels`."""
    return sk_levels(k, x, primes, precision)[-1]


def prime_recip_table(
    keyspace: KeySpace,
    primes: PrimeTable,
    precision: int = DEFAULT_PRECISION,
) -> dict[int, object]:
    """sum_{p <= v} 1/p for every key v, from one ascending pass."""
    _require_cover(primes, keyspace.x)
    check_precision(precision)
    pcount = primes.count_upto(keyspace.x)
    frac_bits = fixed_point_params(precision)
    values, _ = next(_levels(keyspace, primes.primes[:pcount], frac_bits, 1))
    return {
        int(key): _fixed_to_mpf(val, frac_bits, precision)
        for key, val in zip(keyspace.keys.tolist(), values)
    }
