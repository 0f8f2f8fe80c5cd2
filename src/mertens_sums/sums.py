"""Exact evaluation of generalized Mertens sums over sieved primes.

S_k(x) sums 1/(p_1 ... p_k) over ordered prime k-tuples with product <= x.
Two independent routes are provided:

* :func:`sk_direct` - literal recursive enumeration of the defining sum,
  no memoization, in integer fixed point or exact rationals.  The oracle.
* :func:`sk_levels` - bottom-up dynamic programming over the key space
  {floor(x/n)} from the primes up to sqrt(x), for x up to 10^10; one
  pass yields S_1(x), ..., S_k(x).  :func:`sk_fast` is its last level.

Both count ordered tuples: (2,3) and (3,2) are distinct terms.  S_0 is 1
for every argument >= 1 (the empty product), which makes the recursion

    S_k(x) = sum_{p <= x} S_{k-1}(floor(x/p)) / p

close; S_k depends on x only through floor(x), so arguments are integers.

The engine's level tables, one entry per key, hold S_j as integers
scaled by 2^frac_bits.  Level 1 is max(T - e, 0), for a table T within e
of S_1 at every key it fills, so at most S_1 and within 2e below it; pi is
exact (:func:`_level_one`).  Every key up to y0 = max(x^(2/3), sqrt(x))
takes T and pi from one running sum over the primes up to y0, as the
levels below do.  Only the top keys x // n > y0 take the key-space sieve,
one stage per prime p <= sqrt(x).  A key below p^2 is final before stage
p, so the stage reads it from the running sum, and a demand pass runs each
stage p^3 <= x only at the keys >= p^2 that the filled top keys need.  The
sieve starts from 2^F (H_v - 1) only at the keys those stages read: a
running harmonic sum up to a switch near sqrt(x) (F + 32) / 64, and above
it each key on its own from logarithms and Euler-Maclaurin
(:func:`_start_values`).  The stages p^3 > x read only keys up to y0, so
they commute: each top key x // n >= q^2, q the smallest such prime, takes
them all at once, the same integers as one by one.
Level j is evaluated at key v with r = isqrt(v) split in two (the
hyperbola method, Tenenbaum, Introduction to Analytic and Probabilistic
Number Theory, I.3):

* primes p <= r contribute floor(S_{j-1}(v // p) / p) one at a time;
* primes p > r through the other factor b of each tuple: S_{j-1}(y) sums
  c_{j-1}(b)/b over b <= y with Omega(b) = j - 1 (below), and p > r
  leaves b <= v // p <= ymax = v // (r + 1), so the part is the sum of
  c_{j-1}(b)/b (S_1(v // b) - S_1(r)) over those b (for j = 2 the primes
  up to ymax, of weight 1).  Each difference is read from level 1 as
  L1(v // b) - (L1(r) + 2e): at most its true value and at most 4e below
  it, whatever shape the table has.  Each term is floored INIT_GUARD_BITS
  below a unit and the sum shifted once.

Every argument above is a key, so no level needs one division per
(key, prime) pair.  A key y needs no recursion, though: S_j(y) sums
c_j(n)/n over n <= y with Omega(n) = j, where c_j(n) = j!/prod e_i!
counts the ordered prime tuples with product n = prod p_i^e_i.  So one
running sum of these multinomial weights over n <= y0 = max(x^(2/3),
sqrt(x)) fills level j at every key up to y0 within 2 units, in
O(y0 loglog x) operations; Omega and c_j come from the primes up to
sqrt(y0) = x^(1/3), divided out of a cofactor array.  Only the top keys
x // n > y0, n <= x^(1/3), take the step above (Deleglise-Rivat, Math.
Comp. 65, 1996, split the keys at x^(2/3) the same way).  One rule fills
every level, level 1 too: level j fills the top keys x // n with
Omega(n) <= k - j, so level k only x, and when j < k every key up to y0.
That closes.  At a top key x // n of level j + 1, Omega(n) <= k - j - 1,
the per-prime part reads level j at x // (n p), a key up to y0 or a top
key with Omega(n p) <= k - j; the grouped part reads level 1 and pi at
r <= y0 and at x // (n b), Omega(b) = j, so Omega(n b) <= k - 1.  A step
costs pi(sqrt(v)) floors plus one term per b <= ymax with Omega(b) = j - 1,
not one per y.  Tuple counts follow the same split: pi in place of S_1 at
the top keys, exact running sums of c_j(n) up to y0, exact weights
c_{j-1}(b) in the grouped part.  Every entry is at most the true value,
and each level's ledger (:func:`truncation_error_ledger`) bounds the
shortfall at every key it fills.  Summation order is fixed, so results are
bit-reproducible.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, chain, compress, count, repeat
from operator import floordiv, mul, sub

import numpy as np
from mpmath import mp, mpf

from .bigreal import DEFAULT_PRECISION, check_precision, working_precision
from .constants import _bernoulli
from .errors import CapacityError, DomainError, ParameterError
from .primes import PrimeTable, sieve

DIRECT_MAX_X = 100_000
FAST_MAX_X = 10_000_000_000
MAX_K = FAST_MAX_X.bit_length()  # S_k(x) = 0 once 2^k > x: larger k adds only zero levels


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

    def indices(self, v, divisors):
        """Table positions of the keys v // d for d in divisors (v a key, d >= 1).

        ``v`` may also be an int64 array of keys, with one divisor d.
        """
        if isinstance(v, np.ndarray):  # v // d is a key, so a search finds it
            return np.searchsorted(self.keys, v // divisors)
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


def _require_cover(primes: PrimeTable, limit: int) -> None:
    if primes.limit < limit:
        raise ParameterError(
            f"prime table covers only limit={primes.limit}, need >= {limit}",
            suggestion=limit,
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
    since denominators grow as products of primes.  x must be >= 1, as in
    :func:`sk_levels`.  Capacity-capped at x = 10^5: beyond that use
    :func:`sk_fast`.
    """
    if not isinstance(k, int) or k < 0:
        raise DomainError(f"k must be an integer >= 0, got {k!r}")
    x = int(x)
    if x < 1:
        raise DomainError(f"x must be >= 1, got {x}")
    if x > DIRECT_MAX_X:
        raise CapacityError(
            f"x={x} exceeds the direct oracle scale {DIRECT_MAX_X}; use sk_fast"
        )
    if x >= 2:
        _require_cover(primes, x)
    check_precision(precision)

    t0 = time.perf_counter()
    plist = primes.primes[: primes.count_upto(x)].tolist()
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

    total = rec(k, x, 1)
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
HEADROOM_BITS = 24  # more frac bits: the room the error ledgers grow into
INIT_GUARD_BITS = 32  # level 1 and the small keys of later levels sum this many bits below units


def fixed_point_params(precision: int) -> int:
    """Fractional bits of the fixed-point tables for a precision request."""
    return precision + LEDGER_MARGIN + HEADROOM_BITS


def _ln_ratio(a: int, b: int, bits: int, coeffs: list[int]) -> int:
    """2^bits ln(a/b) = 2^bits 2 atanh((a-b)/(a+b)) for 1 <= b <= a <= 3b, 0 to 6 units low.

    ``coeffs`` holds floor(2^bits/(2i+1)) for i < ceil((bits+2)/2).  With
    z = (a-b)/(a+b) <= 2^-c, m = ceil((bits+2)/(2c)) terms leave a tail
    under one unit, summed by Horner's rule in z^2: each step multiplies by
    (a-b)^2 and divides by (a+b)^2, small integers.  The floors lose under
    8/3 units before the last one multiplies by z, so 2 atanh is low by
    under 6.
    """
    r, d = a - b, a + b
    if r == 0:
        return 0
    acc, r2 = 0, r * r
    for c in reversed(coeffs[: -(-(bits + 2) // (2 * (d // r).bit_length() - 2))]):
        acc = c + acc * r2 // d // d  # = floor(acc r^2 / d^2); one-digit divisors are faster
    return 2 * (acc * r // d)


def _icbrt(n: int) -> int:
    """floor(n^(1/3)) for n >= 1, by Newton's method from above."""
    r = 1 << -(-n.bit_length() // 3)
    while (t := (2 * r + n // (r * r)) // 3) < r:
        r = t
    return r


def _start_values(keyspace: KeySpace, frac_bits: int, want) -> list[int]:
    """2^F (H_v - 1) within 2 units at the ascending key positions ``want``, 0 elsewhere.

    F = frac_bits; these are the Lucy sieve's start values.  Each is built
    32 guard bits lower, and a key's value does not depend on ``want``.
    Keys up to the switch max(sqrt_x (F+32) // 64, 2^12) take the running
    sum of floor(2^(F+32)/n), read off at the wanted keys and at b0, the
    last key at or below the switch.  A wanted key v = x // n above it, with
    r = x - n v, is evaluated on its own from v = (x - r)/n:

        H_v = H_b0 + ln n_b - ln n + L(r) - L(r_b) + em(v) - em(b0),

    where b0 = x // n_b with remainder r_b, L(r) = ln(1 - r/x) =
    -2 atanh(r/(2x - r)), and em(v) = 1/(2v) - sum_i B_2i/(2i) v^-2i is the
    Euler-Maclaurin correction H_v - ln v - gamma, cut at its first term
    under a guard unit at b0 and summed by Horner's rule in 1/v^2.  ln n is
    summed over the prime factors of n, with ln p = ln(p - 1) +
    2 atanh(1/(2p - 1)) (:func:`_ln_ratio`), so every series term is one
    multiply or divide by a small integer.  Error budget, in guard units:
    the harmonic floors lose under b0 <= switch < 2^24 (sqrt_x <= 10^5,
    F + 32 <= 8264); each 2 atanh is low by under 6, so by induction on p
    (p - 1 has two or more prime factors for p >= 5) ln p is low by under
    6 (2 log2 p - 1) and ln n by under 12 log2 n < 2^9; the two L terms
    lose under 6 each, and each em under 4 (its floors under 3, its tail
    under 1).  The total stays under 2^25, far below 2^32, so the shifted
    values start within 2 units.
    """
    s, keys, x = keyspace.sqrt_x, keyspace.keys, keyspace.x
    nk, bits = len(keys), frac_bits + INIT_GUARD_BITS
    one = 1 << bits
    cut = int(np.searchsorted(keys, max(s * bits // 64, 1 << 12), side="right")) - 1
    want = np.asarray(want, dtype=np.int64)
    split = int(np.searchsorted(want, cut, side="right"))
    low, high = want[:split], want[split:].tolist()
    out = [0] * nk
    reads = keys[np.append(low, cut) if high else low]  # the running sum is read here, b0 last
    marks = np.zeros(int(reads[-1]) if reads.size else 0, dtype=bool)
    marks[reads - 1] = True
    harmonic = accumulate(map(floordiv, repeat(one), count(2)), initial=0)  # 2^bits (H_n - 1)
    running = list(compress(harmonic, _stream(marks)))
    for pos, h in zip(low.tolist(), running):
        out[pos] = h >> INIT_GUARD_BITS
    if not high:
        return out
    h, b0 = running[-1], int(reads[-1])
    n_b = x // b0
    coeffs = []  # floor(2^bits B_i / i) while B_i / (i b0^i) reaches a guard unit, i even
    for i in count(2, 2):
        c = _bernoulli(i) / i
        if abs(c.numerator) << bits < c.denominator * b0**i:
            break
        coeffs.append((c.numerator << bits) // c.denominator)
    atanh_coeffs = [one // (2 * i + 1) for i in range(-(-(bits + 2) // 2))]
    smallest = np.arange(n_b + 1)  # smallest prime factor, for n_b >= every n above b0
    for p in sieve(math.isqrt(n_b)).primes[::-1].tolist():
        smallest[p * p :: p] = p
    smallest, logs = smallest.tolist(), {1: 0}

    def ln(m):  # 2^bits ln m
        if m not in logs:
            p = smallest[m]
            if p == m:
                logs[m] = ln(m - 1) + _ln_ratio(m, m - 1, bits, atanh_coeffs)
            else:
                logs[m] = ln(p) + ln(m // p)
        return logs[m]

    def em(v):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc + c) // v // v  # = floor((acc + c) / v^2)
        return one // (2 * v) - acc

    anchor = h + ln(n_b) + _ln_ratio(x, b0 * n_b, bits, atanh_coeffs) - em(b0)
    for pos in high:
        n = nk - pos
        v = x // n
        out[pos] = (anchor - ln(n) - _ln_ratio(x, v * n, bits, atanh_coeffs)
                    + em(v)) >> INIT_GUARD_BITS
    return out


def _level_one(keyspace: KeySpace, small_primes: list[int], frac_bits: int, positions):
    """(T, pi, e) with |T - 2^F S_1| <= e, F = frac_bits, and pi exact.

    ``small_primes`` are the primes up to sqrt_x.  This holds at every key
    up to y0 and at the top keys at ``positions``; the other entries are 0.

    Every key up to y0 = max(x^(2/3), sqrt_x) takes S_1 and pi from one
    running sum over the primes up to y0, sieved here (:func:`_running_sums`,
    within 2 units below).  The top keys x // n > y0 take the key-space
    sieve of Lagarias-Miller-Odlyzko (Math. Comp. 44, 1985) and
    Deleglise-Rivat (Math. Comp. 65, 1996), "Lucy_Hedgehog's method": from
    T(v) = 2^F (H_v - 1) and pi(v) = v - 1 (:func:`_start_values`), each
    prime p <= sqrt_x, smallest first, takes f(p) (T(v // p) - T(p - 1))
    from every key v >= p^2 (f(p) = 1/p for T, 1 for pi; one index array
    serves both).  After the stages p' < p every key below p^2 holds its
    final value, so a stage reads a key w < p^2 from the running sum.

    The stages split at the cube root of x.  A head stage, p^3 <= x, is one
    numpy object-array update, whose right-hand side reads only the previous
    stage's values.  A demand pass, from the last head stage down, first
    counts the head stages each key needs: the top keys at ``positions``
    need all of them, and a key updated at stage i makes its source v // p
    need the i stages before it only if v // p >= p^2.  The head reads a
    start value only at a key it updates, at a source v // 2 >= 4 of stage
    p = 2, or at ``positions``, so only those keys get one; the others stay 0
    (at k = 1, 9,457 of 19,968 keys at x = 9.97e7).  Before stage i the
    running sum is copied into the keys in [p_{i-1}^2, p_i^2).  The tail
    stages, p^3 > x, commute: with q the smallest, a tail stage writes keys
    v >= p^2 >= q^2 > y0 and reads v // p <= x / p < x^(2/3) and p - 1,
    keys up to y0 whose values are final.  Each top key at ``positions``
    therefore takes its tail stages at once, summing one floor per tail
    prime p <= sqrt(v) (none when v < q^2): the same integers as stage by
    stage.  Each update floors once, so e -> e + ceil(2e/p) + 1 per prime,
    from e = 2.
    """
    x, keys, nk = keyspace.x, keyspace.keys, len(keyspace)
    y0 = _cutoff(keyspace)
    nlow = nk - x // (y0 + 1)  # the keys up to y0
    primes = sieve(y0).primes
    final_t, final_pi = _running_sums(primes, np.ones(primes.size, dtype=np.int64),
                                      keys[:nlow], frac_bits)
    nhead = bisect_right(small_primes, _icbrt(x))
    head, tail = small_primes[:nhead], small_primes[nhead:]
    los = np.searchsorted(keys, np.array(head, dtype=np.int64) ** 2).tolist()
    need = np.zeros(nk, dtype=np.int64)  # the head stages each key needs, from the last one down
    need[positions] = nhead
    for i in range(nhead - 1, 0, -1):
        lo = los[i]
        src = keyspace.indices(keys[lo + np.flatnonzero(need[lo:] > i)], head[i])
        src = src[src >= lo]  # a read below p^2 is final
        need[src] = np.maximum(need[src], i)
    reads = need > 0  # the keys whose start values the head reads (see above)
    reads[positions] = True
    if nhead:
        lo = los[0]
        src = keyspace.indices(keys[lo + np.flatnonzero(need[lo:] > 0)], 2)
        reads[src[src >= lo]] = True
    start = _start_values(keyspace, frac_bits, np.flatnonzero(reads))
    t, pi, done = np.array(start, dtype=object), keys - 1, 0
    for i, (p, lo) in enumerate(zip(head, los)):
        t[done:lo], pi[done:lo], done = final_t[done:lo], final_pi[done:lo], lo
        live = lo + np.flatnonzero(need[lo:] > i)
        src = keyspace.indices(keys[live], p)
        t[live] -= (t[src] - t[p - 2]) // p
        pi[live] -= pi[src] - pi[p - 2]
    heads = zip(positions, t[positions].tolist(), pi[positions].tolist())
    t, pi = final_t + [0] * (nk - nlow), final_pi + [0] * (nk - nlow)
    t_at, pi_at = t.__getitem__, pi.__getitem__
    t_low = [t[p - 2] for p in tail]
    pi_low = list(accumulate((pi[p - 2] for p in tail), initial=0))
    for pos, t_head, pi_head in heads:  # each top key's tail stages at once (see above)
        v = x // (nk - pos)
        m = bisect_right(tail, math.isqrt(v))
        ps = tail[:m]
        idx = keyspace.indices(v, ps)
        t[pos] = t_head - sum(map(floordiv, map(sub, map(t_at, idx), t_low), ps))
        pi[pos] = pi_head - sum(map(pi_at, idx)) + pi_low[m]
    e = 2
    for p in small_primes:
        e += -(-2 * e // p) + 1
    return t, pi, e


def _advance(keyspace: KeySpace, keys: list[int], positions, small_primes: list[int],
             level1: list[int], pi: list[int], e: int, prev: list[int], prev_counts: list[int],
             steps: list[int], weights: list[int]):
    """One hyperbola step (see module docstring) at the table positions given.

    ``steps`` are the b <= sqrt_x with Omega(b) = j - 1, ascending, and
    ``weights`` their tuple counts c_{j-1}(b); ``level1`` is within 2e below
    2^F S_1 and at most it.  Returns full-length (values, counts) lists of
    level j, 0 away from ``positions``.
    """
    indices = keyspace.indices
    prev_at, counts_at = prev.__getitem__, prev_counts.__getitem__
    s1_at, pi_at = level1.__getitem__, pi.__getitem__
    scaled = [c << INIT_GUARD_BITS for c in weights]
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
        # primes p > r, through b = the other factors up to ymax
        m = bisect_right(steps, v // (r + 1))
        bs = steps[:m]
        idx = indices(v, bs)
        diffs = map(sub, map(s1_at, idx), repeat(level1[r - 1] + 2 * e))
        grouped = sum(map(floordiv, map(mul, scaled[:m], diffs), bs))
        cnt += sum(map(mul, weights[:m], map(pi_at, idx))) - pi[r - 1] * sum(weights[:m])
        out[pos] = acc + (max(grouped, 0) >> INIT_GUARD_BITS)
        out_counts[pos] = cnt
    return out, out_counts


def _cutoff(keyspace: KeySpace) -> int:
    """y0 = max(floor(x^(2/3)), sqrt_x)."""
    return max(_icbrt(keyspace.x * keyspace.x), keyspace.sqrt_x)


def _tuple_counts(limit: int, small_primes: list[int]):
    """(Omega(n), c(n)) for n = 0..limit, c(n) = Omega(n)!/prod e_i! for n = prod p_i^e_i.

    c(n) counts the ordered prime tuples with product n.  The primes up to
    isqrt(limit) are divided out of a cofactor array, and a cofactor left
    above 1 is one more prime.  The a-th power of a prime after t other
    factors multiplies c by (t + a)/a, exactly.  c stays under 10^6 up to
    4.7e6, the largest limit, where prod e_i! passes 2^63 at n = 2^21.
    """
    omega, tuples = np.zeros(limit + 1, dtype=np.int8), np.ones(limit + 1, dtype=np.int64)
    rem = np.arange(limit + 1, dtype=np.int32)  # limit < 2^31
    for p in small_primes[: bisect_right(small_primes, math.isqrt(limit))]:
        q, a = p, 1
        while q <= limit:
            omega[q::q] += 1
            tuples[q::q] = tuples[q::q] * omega[q::q] // a
            rem[q::q] //= p
            q, a = q * p, a + 1
    left = rem > 1
    omega[left] += 1
    tuples[left] *= omega[left]
    return omega, tuples


def _stream(a: np.ndarray):
    """The entries of ``a`` as Python scalars, listed 2^16 at a time."""
    return chain.from_iterable(a[i : i + (1 << 16)].tolist() for i in range(0, a.size, 1 << 16))


def _running_sums(n: np.ndarray, c: np.ndarray, low: np.ndarray, frac_bits: int):
    """(values, counts) at the ascending keys ``low``: sums of c_i/n_i and of c_i over n_i <= key.

    ``n`` ascends and ``c`` holds the weights: the primes with weight 1 for
    level 1, and for level j >= 2 the n with Omega(n) = j with weight c(n)
    (:func:`_tuple_counts`).  The terms are streamed in n order, floored
    INIT_GUARD_BITS below a unit, and the running sum is read off at each
    key and shifted: every value is low by less than 1 + N 2^-32 < 2 units,
    N < 2^32 terms.  Counts are exact.
    """
    one = 1 << (frac_bits + INIT_GUARD_BITS)
    ends = np.searchsorted(n, low, side="right")  # the number of terms at or below each key
    marks = np.zeros(n.size + 1, dtype=bool)
    marks[ends] = True
    terms = map(floordiv, map(one.__mul__, _stream(c)), _stream(n))
    sums = [v >> INIT_GUARD_BITS for v in compress(accumulate(terms, initial=0), _stream(marks))]
    counts = np.concatenate(([0], np.cumsum(c)))[ends].tolist()
    return [sums[i] for i in (np.cumsum(marks)[ends] - 1).tolist()], counts


def _levels(keyspace: KeySpace, primes: np.ndarray, frac_bits: int, k: int):
    """Yield (values, counts, ledger) for levels 1..k, each computed once.

    ``primes`` covers ``keyspace.sqrt_x``; counts of level 1 are pi.  One
    rule fills every level: level j fills the top keys x // n > y0 with
    Omega(n) <= k - j, so level k fills x alone, and when j < k also every
    key up to y0 = max(x^(2/3), sqrt_x).  That is all level j + 1 reads (see
    the module docstring).  Level 1 is max(T - e, 0) from :func:`_level_one`;
    level j >= 2 takes a hyperbola step at its top keys and one running sum
    (:func:`_running_sums`) up to y0.  Other entries are 0.  Running-sum
    entries are within 2 units, and every ledger is at least pi(sqrt_x) + 2
    >= 3 for x >= 4; below 4 the only key up to y0 is 1, where every level
    is exactly 0.
    """
    s, nk, x = keyspace.sqrt_x, len(keyspace), keyspace.x
    small_primes = primes[: np.searchsorted(primes, s, side="right")].tolist()
    y0 = _cutoff(keyspace)
    top = x // (y0 + 1)  # the keys above y0 are x // n for n <= top, at nk - n
    omega, tuples = _tuple_counts(y0 if k > 2 else top, small_primes)
    tops = [(nk - np.flatnonzero(omega[1 : top + 1] <= k - j) - 1).tolist()
            for j in range(1, k + 1)]
    level1, pi, e = _level_one(keyspace, small_primes, frac_bits, tops[0])
    ledger = 2 * e
    unfilled = 0 if k > 1 else nk - top  # the keys up to y0, filled only below level k
    level1 = [0] * unfilled + [max(v - e, 0) for v in level1[unfilled:]]
    pi[:unfilled] = [0] * unfilled
    yield level1, pi, ledger
    keys = keyspace.keys.tolist()
    s1_upper = level1[-1] + ledger
    steps, weights = small_primes, [1] * len(small_primes)  # Omega(b) = 1 up to sqrt_x
    vals, counts = level1, pi
    for j, positions in enumerate(tops[1:], start=2):
        prev_upper = vals[s - 1] + ledger
        vals, counts = _advance(keyspace, keys, positions, small_primes, level1, pi, e,
                                vals, counts, steps, weights)
        if j < k:
            n = np.flatnonzero(omega == j)
            vals[: nk - top], counts[: nk - top] = _running_sums(
                n, tuples[n], keyspace.keys[: nk - top], frac_bits)
            steps = np.flatnonzero(omega[: s + 1] == j)
            steps, weights = steps.tolist(), tuples[steps].tolist()
        ledger = truncation_error_ledger(ledger, s1_upper, len(small_primes), e, prev_upper,
                                         frac_bits)
        yield vals, counts, ledger


def truncation_error_ledger(ledger: int, s1_upper: int, pi_sqrt: int, e: int, prev_upper: int,
                            frac_bits: int) -> int:
    """The next level's bound, in units of 2^-frac_bits, on true - computed at any key.

    ``ledger`` bounds the level read (level 1's is 2e), whose errors arrive
    weighted by 1/p: ledger * s1_upper.  Each prime p <= isqrt(v) floors
    once (pi_sqrt).  In the grouped part each level-1 difference is at most
    4e low, weighted by c(b)/b over b <= sqrt_x, which sums to at most
    S_{j-1}(sqrt_x) <= prev_upper (scale 2^frac_bits); its fewer than 2^32
    guard floors and the final shift lose under one unit each.
    """
    return (-(-ledger * s1_upper >> frac_bits) + pi_sqrt
            - (-4 * e * prev_upper >> frac_bits) + 2)


def _fixed_to_mpf(value_int: int, frac_bits: int, precision: int):
    with working_precision(precision):
        return +mp.ldexp(value_int, -frac_bits)


def _fixed_value_bound(value_int: int, ledger: int, frac_bits: int, precision: int):
    """(value, error_bound) as mpf of a fixed-point value low by at most ``ledger`` units."""
    value = _fixed_to_mpf(value_int, frac_bits, precision)
    with working_precision(precision):
        # 2^16 times the relative rounding at this working precision: covers
        # rounding the value, converting the ledger and this expression
        slack = mpf(2) ** -(precision + 16)
        bound = mpf(ledger) * mpf(2) ** -frac_bits * (1 + slack) + abs(value) * slack
    return value, bound


def sk_levels(
    k: int,
    x: int,
    primes: PrimeTable,
    precision: int = DEFAULT_PRECISION,
) -> list[MertensSumResult]:
    """S_1(x), ..., S_k(x) from one level-by-level DP pass over KeySpace(x).

    ``primes`` must cover isqrt(x); larger tables give the same bits.
    Level 1 is the prime-reciprocal prefix table; level j reads level j-1
    through floor division, so the pass that yields S_k(x) computes every
    lower level on the way, at x and at the keys the next level reads
    (see :func:`_levels`), and each level's value at x is reported here.
    All arithmetic is exact fixed-point integer work at precision + 40
    fractional bits (see the module docstring), summed in a fixed order, so
    results are deterministic to the bit and each level's error ledger is a
    one-sided truncation bound.  x is capped at ``FAST_MAX_X``, k at
    ``MAX_K`` and precision at ``bigreal.MAX_PRECISION``; those caps bound
    the working set.
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
    _require_cover(primes, math.isqrt(x))

    t0 = time.perf_counter()
    keyspace = KeySpace.build(x)
    frac_bits = fixed_point_params(precision)
    results = []
    levels = _levels(keyspace, primes.primes, frac_bits, k)
    for j, (values, counts, ledger) in enumerate(levels, start=1):
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

