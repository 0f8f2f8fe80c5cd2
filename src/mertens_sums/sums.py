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
of S_1 at every key, so at most S_1 and within 2e below it; pi is exact
(:func:`_level_one`).  Every key up to y0 = max(x^(2/3), sqrt(x)) takes T
and pi from one running sum over the primes up to y0, as the levels below
do.  Only the top keys x // n > y0 take the key-space sieve, one stage per
prime p <= sqrt(x).  A key below p^2 is final before stage p, so the stage
reads it from the running sum, and a demand pass runs each stage p^3 <= x
only at the keys >= p^2 that the top keys need (x alone for k = 1).  The
stages p^3 > x read only keys up to y0, so they commute: each top key
x // n >= q^2, q the smallest such prime, takes them all at once, the same
integers as one by one.
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
Comp. 65, 1996, split the keys at x^(2/3) the same way).  Level k is
evaluated only at x (for k = 1 too, by the demand pass above), and level
j < k only where level j + 1 reads it: at every key up to y0 and at the
top keys x // n with Omega(n) <= k - j.
That closes, because the per-prime part at a top key x // n reads
x // (n p), either a key up to y0 or a top key with Omega(n p) <=
k - j + 1, and the grouped part reads only the full level-1 and pi
tables.  A step costs pi(sqrt(v)) floors plus one term per b <= ymax with
Omega(b) = j - 1, not one per y.  Tuple counts follow the same split: pi
in place of S_1 at the top keys, exact running sums of c_j(n) up to y0,
exact weights c_{j-1}(b) in the grouped part.  Every entry is at most the
true value, and each level's ledger (:func:`truncation_error_ledger`)
bounds the shortfall at every key it fills.  Summation order is fixed, so
results are bit-reproducible.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from itertools import accumulate, chain, compress, count, islice, repeat
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


def _series(coeffs: list[int], z: int, bits: int) -> int:
    """sum_i coeffs[i] z^i by Horner's rule in fixed point (scale 2^bits)."""
    return reduce(lambda acc, c: c + (acc * z >> bits), reversed(coeffs), 0)


def _atanh(num: int, den: int, bits: int, coeffs: list[int]) -> int:
    """2^bits atanh(num/den) for 0 < num/den = 2^-b <= 1/2, within 5 units.

    m terms leave a tail under 2^-b(2m+1) 4/3, below one unit here.
    ``coeffs`` holds floor(2^bits/(2i+1)) for i < ceil((bits+2)/2), the m of b = 1.
    """
    b, u = math.log2(den / num), (num << bits) // den
    return _series(coeffs[: math.ceil((bits + 2) / (2 * b))], u * u >> bits, bits) * u >> bits


def _icbrt(n: int) -> int:
    """floor(n^(1/3)) for n >= 1, by Newton's method from above."""
    r = 1 << -(-n.bit_length() // 3)
    while (t := (2 * r + n // (r * r)) // 3) < r:
        r = t
    return r


def _start_values(keyspace: KeySpace, frac_bits: int) -> list[int]:
    """2^F (H_v - 1) within 2 units at every key, F = frac_bits: the Lucy sieve's start.

    H_v is built 32 guard bits lower from H_a - H_b for consecutive keys
    b < a: the sum of floor(2^(F+32)/n) over b < n <= a up to
    max(sqrt_x (F+32)/32, 2^12) (above it a step costs like (F+32)^2), then
    2 atanh((a-b)/(a+b)) + em(a) - em(b), em(v) = 1/(2v) - sum_i B_2i/(2i)
    v^-2i (Euler-Maclaurin) cut at its first term under a guard unit at b0,
    the last key before, which bounds the tail.  The sums lose under 2^25
    guard units and each of the < 2^15 steps under 2^12, so the values start
    within 2.
    """
    s, keys = keyspace.sqrt_x, keyspace.keys
    nk, bits = len(keys), frac_bits + INIT_GUARD_BITS
    one = 1 << bits
    switch = max(s * bits // 32, 1 << 12)
    cut = int(np.searchsorted(keys, switch, side="right")) - 1
    b0, coeffs = int(keys[cut]), []
    while cut < nk - 1:  # B_2i / (2i b0^2i), scaled, while it reaches a unit
        c = _bernoulli(2 * len(coeffs) + 2) / (2 * len(coeffs) + 2)
        c /= b0 ** (2 * len(coeffs) + 2)
        if abs(c.numerator) << bits < c.denominator:
            break
        coeffs.append((c.numerator << bits) // c.denominator)
    atanh_coeffs = [one // (2 * i + 1) for i in range(-(-(bits + 2) // 2))]

    def em(v):
        w = (b0 * b0 << bits) // (v * v)
        return one // (2 * v) - (_series(coeffs, w, bits) * w >> bits)

    harmonic = accumulate(map(floordiv, repeat(one), count(2)), initial=0)  # 2^bits (H_n - 1)
    small = list(islice(harmonic, s))
    h, b, em_b, t = small[-1], s, em(b0), [v >> INIT_GUARD_BITS for v in small]
    for a in keys[s:].tolist():
        if a <= switch:
            h = next(islice(harmonic, a - b - 1, None))
        else:
            em_a = em(a)
            h, em_b = h + 2 * _atanh(a - b, a + b, bits, atanh_coeffs) + em_a - em_b, em_a
        t.append(h >> INIT_GUARD_BITS)
        b = a
    return t


def _level_one(keyspace: KeySpace, small_primes: list[int], frac_bits: int,
               only_x: bool = False):
    """(T, pi, e) at every key, |T - 2^F S_1| <= e, F = frac_bits, pi exact.

    ``small_primes`` are the primes up to sqrt_x.  With ``only_x`` this holds
    at x and at every key up to y0, and the other entries are partly sieved.

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
    counts the head stages each key needs: the top keys (x alone with
    ``only_x``) need all of them, and a key updated at stage i makes its
    source v // p need the i stages before it only if v // p >= p^2.  Before
    stage i the running sum is copied into the keys in [p_{i-1}^2, p_i^2),
    and after the head into every key up to y0.  The tail stages, p^3 > x,
    commute: with q the smallest, a tail stage writes keys v >= p^2 >= q^2
    > y0 and reads v // p <= x / p < x^(2/3) and p - 1, keys up to y0 whose
    values are final.  Each top key v = x // n >= q^2 (n <= x // q^2)
    therefore takes its tail stages at once, summing one floor per tail
    prime p <= sqrt(v): the same integers as stage by stage.  Each update
    floors once, so e -> e + ceil(2e/p) + 1 per prime, from e = 2.
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
    need[nk - 1 if only_x else nlow :] = nhead
    for i in range(nhead - 1, 0, -1):
        lo = los[i]
        src = keyspace.indices(keys[lo + np.flatnonzero(need[lo:] > i)], head[i])
        src = src[src >= lo]  # a read below p^2 is final
        need[src] = np.maximum(need[src], i)
    t, pi, done = np.array(_start_values(keyspace, frac_bits), dtype=object), keys - 1, 0
    for i, (p, lo) in enumerate(zip(head, los)):
        t[done:lo], pi[done:lo], done = final_t[done:lo], final_pi[done:lo], lo
        live = lo + np.flatnonzero(need[lo:] > i)
        src = keyspace.indices(keys[live], p)
        t[live] -= (t[src] - t[p - 2]) // p
        pi[live] -= pi[src] - pi[p - 2]
    t, pi = t.tolist(), pi.tolist()
    t[:nlow], pi[:nlow] = final_t, final_pi
    if tail:  # every top key at once, from the head's values (see above)
        t_at, pi_at = t.__getitem__, pi.__getitem__
        t_low = [t[p - 2] for p in tail]
        pi_low = list(accumulate((pi[p - 2] for p in tail), initial=0))
        for n in range(1, (1 if only_x else x // (tail[0] * tail[0])) + 1):
            v = x // n
            m = bisect_right(tail, math.isqrt(v))
            ps = tail[:m]
            idx = keyspace.indices(v, ps)
            t[nk - n] -= sum(map(floordiv, map(sub, map(t_at, idx), t_low), ps))
            pi[nk - n] -= sum(map(pi_at, idx)) - pi_low[m]
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

    ``primes`` covers ``keyspace.sqrt_x``; counts of level 1 are pi.  Level k
    fills only x; at k = 1 that is max(T(x) - e, 0), from a sieve whose
    demand pass starts at x alone.  For k >= 2 level 1 fills every key: by
    a running sum up to y0 and the sieve above it.  Level 1 < j < k fills
    the keys level j + 1 reads (see the module docstring): every key up to
    y0 = max(x^(2/3), sqrt_x) by one running sum (:func:`_running_sums`), and
    by a hyperbola step the top keys x // n > y0 with Omega(n) <= k - j.
    Other entries are 0.  Running-sum entries are within 2 units, and every
    ledger is at least pi(sqrt_x) + 2 >= 3 for x >= 4; below 4 the only key
    up to y0 is 1, where every level is exactly 0.
    """
    s, nk, x = keyspace.sqrt_x, len(keyspace), keyspace.x
    small_primes = primes[: np.searchsorted(primes, s, side="right")].tolist()
    level1, pi, e = _level_one(keyspace, small_primes, frac_bits, only_x=k == 1)
    ledger = 2 * e
    if k == 1:
        yield [0] * (nk - 1) + [max(level1[-1] - e, 0)], [0] * (nk - 1) + [pi[-1]], ledger
        return
    level1 = [max(v - e, 0) for v in level1]
    yield level1, pi, ledger
    keys = keyspace.keys.tolist()
    y0 = _cutoff(keyspace)
    top = x // (y0 + 1)  # the keys above y0 are x // n for n <= top, at nk - n
    if k > 2:
        omega, tuples = _tuple_counts(y0, small_primes)
    s1_upper = level1[-1] + ledger
    steps, weights = small_primes, [1] * len(small_primes)  # Omega(b) = 1 up to sqrt_x
    vals, counts = level1, pi
    for j in range(2, k + 1):
        if j < k:
            positions = (nk - np.flatnonzero(omega[1 : top + 1] <= k - j) - 1).tolist()
        else:
            positions = [nk - 1]
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

