"""Exact evaluation of generalized Mertens sums over sieved primes.

S_k(x) sums 1/(p_1 ... p_k) over ordered prime k-tuples with product <= x.
Two independent routes are provided:

* :func:`sk_direct` - literal recursive enumeration of the defining sum,
  no memoization, in integer fixed point or exact rationals.  The oracle.
* :func:`sk_levels` - level 1 by a sieve over the key space {floor(x/n)}
  from the primes up to sqrt(x), and levels 2..k by a walk over sorted
  prime prefixes that reads level 1 alone, for x up to 10^10; one pass
  yields S_1(x), ..., S_k(x).  :func:`sk_fast` is its last level.

Both count ordered tuples: (2,3) and (3,2) are distinct terms.  S_0 is 1
for every argument >= 1 (the empty product), which makes the recursion

    S_k(x) = sum_{p <= x} S_{k-1}(floor(x/p)) / p

close; S_k depends on x only through floor(x), so arguments are integers.

Level 1 is two tables over the keys (:func:`_level_one`): T, S_1 as
integers scaled by 2^frac_bits and within e of it at every key it fills,
and pi, exact, as int64.  Level 1 at x is max(T(x) - e, 0), so at most
S_1(x) and within 2e below it.  Every key up to y0 = max(x^(2/3), sqrt(x))
takes T and pi from one running sum over the primes up to y0, whose list
becomes T, filled in place above y0 and read in place by the prefix walk
of the levels above.  Only the top keys x // n > y0 take the key-space
sieve of Lagarias-Miller-Odlyzko (Math. Comp. 44, 1985) and
Deleglise-Rivat (Math. Comp. 65, 1996), "Lucy_Hedgehog's method": from
T(v) = 2^F (H_v - 1) and pi(v) = v - 1, each prime p <= sqrt(x), smallest
first, takes f(p) (T(v // p) - T(p - 1)) from every key v >= p^2
(f(p) = 1/p for T, 1 for pi).  Each update floors once, so e grows by
ceil(2e/p) + 1 per prime, from 2.  A key below p^2 is final before stage
p, so the stage reads it from the running sum.  A head stage, p^3 <= x,
is one numpy object-array update, run only at the keys >= p^2 that the
filled top keys need, and the sieve starts only at the keys the head
reads (:func:`_start_values`).  The tail stages, p^3 > x, commute: with
q the smallest, a tail stage writes keys v >= p^2 >= q^2 > y0 and reads
v // p < x^(2/3) and p - 1, keys up to y0 whose values are final.  So
each top key takes its tail stages at once, one floor per tail prime
p <= sqrt(v): the same integers as stage by stage.

A sweep over several x (:func:`_sk_grid`; :func:`sk_levels` is the sweep
over x alone) plans each x, fills level 1 once for all of them, and walks
each x.  The plan of an x is its key space, its top keys and the head's
demand, and with it the keys whose start values the head reads and its b0
(:func:`_start_values`).  The fill sieves once up to the largest y0; it
streams the running sum of floor(2^(F+32)/p) once, read at every count of
primes that some x has at a key up to its own y0, and the running sum of
floor(2^(F+32)/n) once, read at every wanted key below a switch and at
every b0; it builds Omega, the start values' coefficients, smallest prime
factors and memo of ln, and the walk's prefix sums B and C once.  Each of
these is a function of a key, a count or a prime and of F alone, never of
x, so every integer a sweep yields at x is the one a pass over x alone
yields.  The head and tail stages, the start values above the switch, the
walk and the error bounds stay per x.

Levels j >= 2 read level 1 alone, through the sorted form q_1 <= ... <= q_j
of each ordered tuple: the recursion that counts k-almost-primes, whose
j = 2 case is the semiprime count pi_2(x) = sum_{i <= pi(sqrt x)}
(pi(x / p_i) - i + 1) (OEIS A066265).  Split off the last prime.  The
prefix q_1..q_{j-1}, with product n, leaves q_j in [q_{j-1}, x / n], so
only prefixes with n q_{j-1} <= x count, and their primes are at most
sqrt(x).  Let c(m) = Omega(m)! / prod e_i! count the ordered tuples with
product m = prod p_i^e_i.  A last prime above q_{j-1} gives c(n q_j) =
j c(n), and a repeat gives c(n q_{j-1}), so

    S_j(x) = sum over prefixes of [ c(n) j/n (S_1(x // n) - S_1(q_{j-1}))
                                    + c(n q_{j-1}) / (n q_{j-1}) ],

and the tuple count is the same sum with pi in place of S_1.  One
depth-first walk over the prefixes, each before its extensions, yields
every level 2..k (:func:`_walk`).  It carries c down: appending q multiplies
it by Omega + 1, divided by the new multiplicity of q.  A prefix n' takes
the terms of all its children n' q, q >= its last prime and n' q^2 <= x, in
one step, and it descends into a child only below level k and when
n' q^3 <= x, so that the child has children of its own.  A new prime q
gives the weight w = c(n' q) j and the leaf l = c(n' q^2); the first child,
q the last prime of n' repeated (2 under the empty prefix), differs from
those by dw and dl.  Only the read T(x // n' q) depends on n': the
children's sums of (T(q) + 2e)/q, 1/q^2 and 1/q are differences of prefix
sums over the primes up to sqrt(x), A, B and C below, built once a pass,
with one more difference at the first child for dw and dl.  That is the
device of the P2 term of Lagarias-Miller-Odlyzko and Deleglise-Rivat, where
pi over a range of primes has a closed form; the tuple count uses it as
pi(q) = i + 1 at the i-th prime.

The walk reads level 1 at x // n for prefix products n, Omega(n) <= k - 1,
and at the primes up to sqrt(x).  A key x // n > y0 has n <= top =
x // (y0 + 1) <= x^(1/3), so level 1 fills the top keys x // n with
Omega(n) <= k - 1 (x alone at k = 1), and Omega comes from the primes up to
top (Deleglise-Rivat, Math. Comp. 65, 1996, split the keys at x^(2/3) the
same way).  Each difference is read as T(x // n) - (T(q_{j-1}) + 2e):
with T within e of 2^F S_1 at both keys, it is at most its true value and
at most 4e below it.  Level j is summed in guard units, G = INIT_GUARD_BITS
bits below a unit, and shifted once.  A prefix n', its children the primes
q = p_a..p_(m-1), adds

    (w (R - (A[m] - A[a])) + l (B[m] - B[a])
     + dw (R_a - (A[a+1] - A[a])) + dl (B[a+1] - B[a])) // n'

with R the sum of floor(2^G T(x // n' q) / q) over its children, R_a the
first child's term, and A, B and C the prefix sums of
ceil(2^G (T(q) + 2e) / q), floor(2^(F+G) / q^2) and ceil(2^F / q); it adds
ceil((w (C[m] - C[a]) + dw (C[a+1] - C[a])) / n') to the weight W_j.  So a
leaf pays one read of T, one shift and one divide by q.  The sum over the
children is exactly that of each child's own weight c(n' q) j > 0 and leaf
c(n' q^2) > 0 times its terms, so, each floor going down and the subtracted
ceiling up, level j stays at most S_j, and a prefix loses under
(2 sum_q c(n' q) j + sum_q c(n' q^2))/n' + 1 guard units: a counter L_j adds
the ceiling of that, one add a prefix.  Its sum is under
2.5 sqrt(x) j S_{j-1}(x) + 2 a prefix, since each q <= sqrt(x) and
c(n' q^2) <= c(n' q) j / 2.  The shift loses under one more unit.  So level
j's ledger is ceil(4e W_j / 2^F) + ceil(L_j / 2^G) + 1, where W_j is at most
2^F j S_{j-1}(x) plus sum_q c(n' q) j / n' + 1 a prefix.  The counter costs
an add a prefix; the other way to hold the prefixes' floors, more guard bits
in the walk, would cost every leaf wider integers.  Every level reads level
1 alone, so no ledger compounds.  Summation order is fixed, so results are
bit-reproducible.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, chain, compress, count, islice, repeat, takewhile
from operator import floordiv, sub

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
    :meth:`indices` maps keys to table positions; the prefix walk maps
    x // n from n by the same rule (:func:`_walk`).
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
        # v = x // n, so v // d = x // (n d): at nk - n d while n d <= x // (s + 1), else at
        # x // (n d) - 1
        x, nk, big = self.x, self.keys.size, self.x // (self.sqrt_x + 1)
        if isinstance(v, np.ndarray):
            m = x // v * divisors
            return np.where(m <= big, nk - m, x // m - 1)
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
    :func:`sk_levels`, which takes over beyond the cap at x = 10^5.
    """
    if not isinstance(k, int) or k < 0:
        raise DomainError(f"k must be an integer >= 0, got {k!r}")
    x = int(x)
    if x < 1:
        raise DomainError(f"x must be >= 1, got {x}")
    if x > DIRECT_MAX_X:
        raise CapacityError(
            f"x={x} exceeds the direct oracle scale {DIRECT_MAX_X}; use sk_levels"
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
# The engine: level 1 over the key space, levels 2..k by a walk over prime prefixes.

LEDGER_MARGIN = 16  # frac bits beyond the requested precision
# More frac bits: the room the error ledgers grow into.  Level 1's ledger is
# 2e and level j's 4e j S_{j-1}(x) + 1 at most, plus the rounding up of its
# prefix weights and the walk's loss counter (see the module docstring):
# ledgers do not compound.  At x <= 10^10 and
# k <= 34 each is under 2^19 max(1, S_j(x)) units of 2^-F, so error_bound
# stays under 2^-precision max(1, |S_j(x)|).
HEADROOM_BITS = 24
INIT_GUARD_BITS = 32  # level 1's running sums and the prefix walk sum this many bits below units


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


def _start_values(keyspaces: list[KeySpace], small_primes: list[int], frac_bits: int, wants):
    """Yield, for each key space in turn, 2^F (H_v - 1) within 2 units at its ``wants`` positions.

    ``wants`` holds ascending key positions, one array per key space.  Each
    item is an object array, one int per key, 0 where not wanted.
    F = frac_bits; ``small_primes`` are the primes up to the largest
    sqrt_x.  Each value is built 32 guard bits lower, and a key's
    value depends neither on ``wants`` nor on the other key spaces.  Keys up
    to the switch max(sqrt_x (F+32) // 64, 2^12) take the running sum of
    floor(2^(F+32)/n), one stream for all key spaces, read off at their
    wanted keys and at each b0, the last key at or below the switch.  A
    wanted key v = x // n above it, with r = x - n v, is evaluated on its
    own from v = (x - r)/n:

        H_v = H_b0 + ln n_b - ln n + L(r) - L(r_b) + em(v) - em(b0),

    where b0 = x // n_b with remainder r_b, L(r) = ln(1 - r/x) =
    -2 atanh(r/(2x - r)), and em(v) = 1/(2v) - sum_i B_2i/(2i) v^-2i is the
    Euler-Maclaurin correction H_v - ln v - gamma, cut at its first term
    under a guard unit at b0 and summed by Horner's rule in 1/v^2.  ln n is
    summed over the prime factors of n, with ln p = ln(p - 1) +
    2 atanh(1/(2p - 1)) (:func:`_ln_ratio`), so every series term is one
    multiply or divide by a small integer.  The coefficients, the smallest
    prime factors up to the largest n_b and the memo of ln do not depend on
    x and are built once.  Error budget, in guard units: the harmonic floors
    lose under b0 <= switch < 2^24 (sqrt_x <= 10^5, F + 32 <= 8264); each
    2 atanh is low by under 6, so by induction on p (p - 1 has two or more
    prime factors for p >= 5) ln p is low by under 6 (2 log2 p - 1) and
    ln n by under 12 log2 n < 2^9; the two L terms lose under 6 each, and
    each em under 4 (its floors under 3, its tail under 1).  The total stays
    under 2^25, far below 2^32, so the shifted values start within 2 units.
    """
    bits = frac_bits + INIT_GUARD_BITS
    one = 1 << bits
    plans = []  # (key space, wanted positions up to and above the switch, keys read less 1)
    for keyspace, want in zip(keyspaces, wants):
        keys = keyspace.keys
        cut = int(np.searchsorted(keys, max(keyspace.sqrt_x * bits // 64, 1 << 12),
                                  side="right")) - 1
        want = np.asarray(want, dtype=np.int64)
        split = int(np.searchsorted(want, cut, side="right"))
        low, high = want[:split], want[split:]
        stops = keys[np.append(low, cut) if high.size else low] - 1  # b0 last
        plans.append((keyspace, low, high, stops))
    del wants, want  # each plan holds what it reads of its want
    # 2^bits (H_n - 1) at the keys n read, once per distinct n
    harmonic = _sums_at(map(floordiv, repeat(one), count(2)), [stops for *_, stops in plans], 0)
    b0s = [(keyspace.x, int(stops[-1]) + 1) for keyspace, _, high, stops in plans if high.size]
    least = min((b0 for _, b0 in b0s), default=0)
    # (i, floor(2^bits |B_i| / i), floor(2^bits B_i / i)), i even, while B_i / (i least^i)
    # reaches a guard unit: a larger b0 takes a prefix
    bernoulli = []
    for i in count(2, 2) if b0s else ():
        c = _bernoulli(i) / i
        size = (abs(c.numerator) << bits) // c.denominator
        if size < least**i:
            break
        bernoulli.append((i, size, (c.numerator << bits) // c.denominator))
    atanh_coeffs = [one // (2 * i + 1) for i in range(-(-(bits + 2) // 2) if b0s else 0)]
    n_max = max((x // b0 for x, b0 in b0s), default=0)
    smallest = np.arange(n_max + 1)  # smallest prime factor, for n_max >= every n above a b0
    for p in reversed(small_primes[: bisect_right(small_primes, math.isqrt(n_max))]):
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

    def em(v, coeffs):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc + c) // v // v  # = floor((acc + c) / v^2)
        return one // (2 * v) - acc

    try:
        while plans:
            keyspace, low, high, stops = plans.pop(0)  # a plan is dropped once it is served
            x, nk = keyspace.x, len(keyspace)
            _, sums = next(harmonic)  # 2^bits (H_n - 1) at n = stops + 1, b0 last
            sums[: low.size] >>= INIT_GUARD_BITS
            out = np.zeros(nk, dtype=object)
            out[low] = sums[: low.size]
            if high.size:
                b0 = int(stops[-1]) + 1
                n_b = x // b0
                # B_i / (i b0^i) reaches a guard unit while floor(2^bits |B_i| / i) >= b0^i
                coeffs = [c for _, _, c in takewhile(lambda b: b[1] >= b0 ** b[0], bernoulli)]
                anchor = (sums[-1] + ln(n_b) + _ln_ratio(x, b0 * n_b, bits, atanh_coeffs)
                          - em(b0, coeffs))
                for pos in high.tolist():
                    n = nk - pos
                    v = x // n
                    out[pos] = (anchor - ln(n) - _ln_ratio(x, v * n, bits, atanh_coeffs)
                                + em(v, coeffs)) >> INIT_GUARD_BITS
            yield out
    finally:
        del ln  # ln's closure holds ln: free the cycle, and with it smallest and logs, at once


def _level_one(keyspaces: list[KeySpace], small_primes: list[int], frac_bits: int, y0s,
               positions):
    """Yield (T, pi, e) for each key space in turn (see module docstring).

    |T - 2^F S_1| <= e, F = frac_bits, and pi is exact, at every key up to
    that key space's y0 in ``y0s`` (:func:`_cutoff`) and at its top keys in
    ``positions``; the other entries are 0.  T is a list of ints and pi an
    int64 array, one entry per key.  ``small_primes`` are the primes up to
    the largest sqrt_x.  Each key space is planned first: its head and the
    keys each head stage updates.  One fill then serves them all: one sieve
    up to the largest y0, one running sum over its primes
    (:func:`_running_sums`) and one harmonic stream (:func:`_start_values`).
    The head and tail stages are each key space's own.
    """
    # e after the first i primes: 2, growing by ceil(2e/p) + 1 a prime p
    errors = list(accumulate(small_primes, lambda e, p: e - (-2 * e // p) + 1, initial=2))
    plans = []
    for keyspace, y0, pos in zip(keyspaces, y0s, positions):
        x, keys, nk = keyspace.x, keyspace.keys, len(keyspace)
        ns = bisect_right(small_primes, keyspace.sqrt_x)  # its primes: small_primes[:ns]
        nhead = bisect_right(small_primes, _icbrt(x), 0, ns)
        head = small_primes[:nhead]
        cubes = np.searchsorted(keys, np.array(head, dtype=np.int64) ** 3).tolist()
        need = np.zeros(nk, dtype=np.int16)  # 1 + the head stages each key takes; 0: never read
        need[pos] = nhead + 1
        # a key that takes stage i makes its source v // p take the i stages before it, and only
        # a key v >= p^3 has a source v // p >= p^2, not final before stage p
        for i in range(nhead - 1, -1, -1):
            c = cubes[i]
            src = keyspace.indices(keys[c + np.flatnonzero(need[c:] > i + 1)], head[i])
            need[src] = np.maximum(need[src], i + 1)
        plans.append((ns, nhead, nk - x // (y0 + 1), need, pos))  # nk - top: the keys up to y0
    lows = [keyspace.keys[:nlow] for keyspace, (_, _, nlow, *_) in zip(keyspaces, plans)]
    finals = _running_sums(sieve(max(y0s)).primes, lows, frac_bits)
    starts = _start_values(keyspaces, small_primes, frac_bits,
                           [np.flatnonzero(need) for *_, need, _ in plans])
    for keyspace in keyspaces:
        ns, nhead, nlow, need, pos = plans.pop(0)  # a plan is held until its key space is done
        x, keys, nk = keyspace.x, keyspace.keys, len(keyspace)
        head, tail = small_primes[:nhead], small_primes[nhead:ns]
        los = np.searchsorted(keys, np.array(head, dtype=np.int64) ** 2).tolist()
        # the last key space frees each part of the fill as soon as it has read it
        final_t, final_pi = next(finals)
        if not plans:
            finals.close()
        t = next(starts)
        if not plans:
            starts.close()
        pi, done = keys - 1, 0
        for i, (p, lo) in enumerate(zip(head, los)):
            t[done:lo], pi[done:lo], done = final_t[done:lo], final_pi[done:lo], lo
            live = lo + np.flatnonzero(need[lo:] > i + 1)
            src = keyspace.indices(keys[live], p)
            step = t[src]  # the one temporary: (T(v // p) - T(p - 1)) // p, then T(v) less it
            step -= t[p - 2]
            step //= p
            t[live] = np.subtract(t[live], step, out=step)
            pi[live] -= pi[src] - pi[p - 2]
        heads = zip(pos, t[pos].tolist(), pi[pos].tolist())
        t = final_t  # T: the running sums, padded above y0; the head's object array is dropped
        t += repeat(0, nk - nlow)
        pi[done:nlow], pi[nlow:] = final_pi[done:], 0
        t_at = t.__getitem__
        t_low = [t[p - 2] for p in tail]
        for pos, t_head, pi_head in heads:  # each top key's tail stages at once
            v = x // (nk - pos)
            m = bisect_right(tail, math.isqrt(v))
            ps = tail[:m]
            idx = keyspace.indices(v, ps)
            t[pos] = t_head - sum(map(floordiv, map(sub, map(t_at, idx), t_low), ps))
            # the i-th tail prime p has pi(p - 1) = nhead + i
            pi[pos] = pi_head - int(pi[idx].sum()) + m * nhead + m * (m - 1) // 2
        yield t, pi, errors[ns]
        del t, final_t, t_at, pi  # the next key space's level 1 is built without these tables


def _cutoff(keyspace: KeySpace) -> int:
    """y0 = max(floor(x^(2/3)), sqrt_x)."""
    return max(_icbrt(keyspace.x * keyspace.x), keyspace.sqrt_x)


def _omega(limit: int, small_primes: list[int]) -> np.ndarray:
    """Omega(n), the prime factors of n counted with multiplicity, for n = 0..limit.

    ``small_primes`` must cover ``limit``; each prime power q <= limit adds
    one to its multiples.
    """
    omega = np.zeros(limit + 1, dtype=np.int64)
    for p in small_primes[: bisect_right(small_primes, limit)]:
        q = p
        while q <= limit:
            omega[q::q] += 1
            q *= p
    return omega


def _stream(a: np.ndarray):
    """The entries of ``a`` as Python scalars, listed 2^12 at a time."""
    return chain.from_iterable(a[i : i + (1 << 12)].tolist() for i in range(0, a.size, 1 << 12))


def _sums_at(terms, stops: list[np.ndarray], shift: int):
    """Yield (a, sums) for each int64 index array a of ``stops`` in turn: the running sums there.

    The sums run from 0 (index 0, the empty sum) and are shifted right by
    ``shift``.  One pass over ``terms``, advanced only as far as each array
    needs, reads them for every array, once per distinct index; a sum is
    held from then until the last array that reads it is served.  Each
    ``sums`` is an object array, one entry per index, and holds the only
    reference to a sum that no later array reads.  Each array leaves
    ``stops`` as it is served, so nothing here holds it after that.
    """
    marks = np.zeros(max((int(a.max()) + 1 for a in stops if a.size), default=0), dtype=bool)
    for a in stops:
        marks[a] = True
    rank = np.cumsum(marks, dtype=np.int32) - 1  # where each marked index's sum sits
    sums = np.empty(int(np.count_nonzero(marks)), dtype=object)
    last = np.zeros(sums.size, dtype=np.int32)  # the last array that reads each sum
    for i, a in enumerate(stops):
        last[rank[a]] = i
    stream, done = compress(accumulate(terms, initial=0), _stream(marks)), 0
    for i in range(len(stops)):
        a = stops.pop(0)
        at = rank[a]
        if at.size and (end := int(at.max()) + 1) > done:
            sums[done:end] = np.fromiter(islice(stream, end - done), dtype=object,
                                         count=end - done)
            sums[done:end] >>= shift
            done = end
        item = sums[at]
        sums[at[last[at] == i]] = None
        yield a, item


def _running_sums(primes: np.ndarray, lows, frac_bits: int):
    """Yield (values, pi) for each of ``lows``: sums of 1/p and of 1 over the primes p <= key.

    Each of ``lows`` is an ascending array of keys.  The terms 2^F / p are
    streamed in order once for all of them, floored INIT_GUARD_BITS below a
    unit, and the running sum is read off at every count of primes that some
    key has, and shifted: every value is low by less than 1 + N 2^-32 < 2
    units, N < 2^32 primes.  The values are a list, one int per key (keys
    with the same pi share it); pi is exact, the int64 count of primes at or
    below each key.
    """
    one = 1 << (frac_bits + INIT_GUARD_BITS)
    ends = [np.searchsorted(primes, low, side="right") for low in lows]
    for pi, values in _sums_at(map(one.__floordiv__, _stream(primes)), ends, INIT_GUARD_BITS):
        yield values.tolist(), pi


def _prime_sums(small_primes: list[int], frac_bits: int):
    """B and C of the module docstring: prefix sums of floor(2^(F+G) / q^2) and ceil(2^F / q)."""
    one = 1 << (frac_bits + INIT_GUARD_BITS)
    return (list(accumulate((one // (q * q) for q in small_primes), initial=0)),
            list(accumulate((-((-1 << frac_bits) // q) for q in small_primes), initial=0)))


def _walk(keyspace: KeySpace, small_primes: list[int], t: list[int], pi: np.ndarray, e: int,
          frac_bits: int, k: int, inv_sq: list[int], inv: list[int]):
    """Yield (value, count, ledger) at x of levels 2..k, by the prefix walk (see module docstring).

    ``t`` is within e of 2^F S_1, and ``pi`` exact, at every key the walk
    reads; ``small_primes`` are the primes up to sqrt_x, and ``inv_sq`` and
    ``inv`` are :func:`_prime_sums` over them or over more primes.  Each
    prefix's floors lose under its add to the loss counter, so the prefixes
    lose under ceil(L_j / 2^G) units in all, and the final shift under one
    more.
    """
    x, nk = keyspace.x, len(keyspace)
    big = x // (keyspace.sqrt_x + 1)  # KeySpace.indices' slot rule, inline in this hot loop
    squares, cubes = [q * q for q in small_primes], [q**3 for q in small_primes]
    # A of the module docstring, prefix sums over the primes of ceil(2^G (T(q) + 2e) / q),
    # G = INIT_GUARD_BITS
    above = list(accumulate((-((-t[q - 1] - 2 * e << INIT_GUARD_BITS) // q)
                             for q in small_primes), initial=0))
    s1_at, pi_at, shift = t.__getitem__, pi.item, INIT_GUARD_BITS.__rlshift__
    sums, counts, weights, losses = ([0] * (k + 1) for _ in range(4))

    def visit(n, v, a, c, mult, d):
        # prefix n of d primes, v = x // n, c = c(n), its last prime small_primes[a] of
        # multiplicity mult (a = mult = 0 at the empty prefix): its children n q, q =
        # small_primes[a:m], are the prefixes of level j = d + 2
        j, m = d + 2, bisect_right(squares, v)
        if m <= a:
            return
        rep, new = c * (d + 1) // (mult + 1), c * (d + 1)  # c(n q) for q repeated, q new
        # every child takes the new prime's weight c(n q) j and leaf c(n q^2), and the repeated
        # prime, the first child, adds its differences from them through the sums at a..r
        w, leaf, r = new * j, new * j // 2, a + 1
        dw, dleaf = (rep - new) * j, rep * j // (mult + 2) - leaf
        # x // (n q) sits at nk - n q up to n q = big, and at v // q - 1 above
        ps = small_primes[a:m]
        s = bisect_right(small_primes, big // n, a, m) - a
        idx = [*map(nk.__sub__, map(n.__mul__, ps[:s])), *(v // q - 1 for q in ps[s:])]
        reads = sum(map(floordiv, map(shift, map(s1_at, idx)), ps))  # floor(2^G T(x // nq) / q)
        first = (s1_at(idx[0]) << INIT_GUARD_BITS) // ps[0]  # the first child's read
        sums[j] += (w * (reads - above[m] + above[a]) + leaf * (inv_sq[m] - inv_sq[a])
                    + dw * (first - above[r] + above[a]) + dleaf * (inv_sq[r] - inv_sq[a])) // n
        # pi(q) = i + 1 for q = small_primes[i]
        counts[j] += (w * (sum(map(pi_at, idx)) - (m - a) * (a + m + 1) // 2) + leaf * (m - a)
                      + dw * (pi_at(idx[0]) - r) + dleaf)
        weights[j] -= -(w * (inv[m] - inv[a]) + dw * (inv[r] - inv[a])) // n
        losses[j] -= -((2 * w + leaf) * (m - a) + 2 * dw + dleaf) // n - 1
        if j < k:
            for i in range(a, bisect_right(cubes, v)):
                q = small_primes[i]
                visit(n * q, v // q, i, rep if i == a else new, mult + 1 if i == a else 1, d + 1)

    visit(1, x, 0, 1, 0, 0)
    del visit  # visit's closure holds visit: free the cycle, and with it t and pi, at once
    for j in range(2, k + 1):
        yield (max(sums[j], 0) >> INIT_GUARD_BITS, counts[j],
               -(-4 * e * weights[j] >> frac_bits) - (-losses[j] >> INIT_GUARD_BITS) + 1)


def _levels(keyspaces: list[KeySpace], primes: np.ndarray, frac_bits: int, k: int):
    """Yield, for each key space in turn, its (value, count, ledger) at x of levels 1..k.

    Each item is an iterator, level 1 first, each level computed once;
    consume it before the next.  ``primes`` covers the largest sqrt_x; the
    count of level 1 is pi.  Level 1 of every key space comes from one
    :func:`_level_one`, and Omega and the walk's prefix sums B and C are
    built once, over the primes up to the largest sqrt_x.  The walk takes T
    unclamped: every key it reads is >= 2, where T >= 2^F / 2 - e is far
    above e, so a clamp at 0 would change nothing.
    """
    s = max(keyspace.sqrt_x for keyspace in keyspaces)
    small_primes = primes[: np.searchsorted(primes, s, side="right")].tolist()
    y0s = [_cutoff(keyspace) for keyspace in keyspaces]
    # the keys above y0 are x // n for n <= top = x // (y0 + 1), at nk - n
    tops = [keyspace.x // (y0 + 1) for keyspace, y0 in zip(keyspaces, y0s)]
    omega = _omega(max(tops), small_primes)
    positions = [(len(keyspace) - np.flatnonzero(omega[1 : top + 1] <= k - 1) - 1).tolist()
                 for keyspace, top in zip(keyspaces, tops)]
    inv_sq, inv = _prime_sums(small_primes, frac_bits) if k > 1 else ((), ())
    level_ones = _level_one(keyspaces, small_primes, frac_bits, y0s, positions)
    for keyspace in keyspaces:
        t, pi, e = next(level_ones)
        small = small_primes[: bisect_right(small_primes, keyspace.sqrt_x)]
        walk = _walk(keyspace, small, t, pi, e, frac_bits, k, inv_sq, inv) if k > 1 else ()
        yield chain([(max(t[-1] - e, 0), int(pi[-1]), 2 * e)], walk)
        del t, pi, walk  # the next key space's level 1 is built without these tables


def _fixed_value_bound(value_int: int, ledger: int, frac_bits: int, precision: int):
    """(value, error_bound) as mpf of a fixed-point value low by at most ``ledger`` units."""
    with working_precision(precision):
        value = +mp.ldexp(value_int, -frac_bits)
        # 2^16 times the relative rounding at this working precision: covers
        # rounding the value, converting the ledger and this expression
        slack = mpf(2) ** -(precision + 16)
        bound = mpf(ledger) * mpf(2) ** -frac_bits * (1 + slack) + abs(value) * slack
    return value, bound


def _sk_grid(k: int, xs: list[int], primes: PrimeTable, precision: int = DEFAULT_PRECISION):
    """Yield :func:`sk_levels` (k, x, primes, precision) for each x of ``xs`` in turn.

    k, precision and every x are checked as there, and ``primes`` must
    cover the largest isqrt(x), before any work.  The x share one level-1
    fill (:func:`_levels`; see the module docstring), and every integer is
    the one a pass over x alone yields.  Each ``elapsed`` runs from the
    first item's request until its level is known.
    """
    if not isinstance(k, int) or k < 1:
        raise DomainError(f"k must be an integer >= 1, got {k!r}")
    if k > MAX_K:
        raise CapacityError(f"k={k} exceeds the supported maximum {MAX_K}")
    xs = [int(x) for x in xs]
    for x in xs:
        if x < 1:
            raise DomainError(f"x must be >= 1, got {x}")
        if x > FAST_MAX_X:
            raise CapacityError(f"x={x} exceeds the configured maximum {FAST_MAX_X}")
    check_precision(precision)
    _require_cover(primes, math.isqrt(max(xs)))

    t0 = time.perf_counter()
    keyspaces = [KeySpace.build(x) for x in xs]
    frac_bits = fixed_point_params(precision)
    for x, levels in zip(xs, _levels(keyspaces, primes.primes, frac_bits, k)):
        results = []
        for j, (value_int, count, ledger) in enumerate(levels, start=1):
            value, bound = _fixed_value_bound(value_int, ledger, frac_bits, precision)
            results.append(MertensSumResult(
                k=j, x=x, value=value, error_bound=bound,
                method="memoized", elapsed=time.perf_counter() - t0, terms=count,
            ))
        yield results


def sk_levels(
    k: int,
    x: int,
    primes: PrimeTable,
    precision: int = DEFAULT_PRECISION,
) -> list[MertensSumResult]:
    """S_1(x), ..., S_k(x) from one pass: level 1 over KeySpace(x), then a prefix walk.

    The pass is a sweep's plan and fill over x alone (:func:`_sk_grid`).
    ``primes`` must cover isqrt(x); larger tables give the same bits.
    All arithmetic is exact fixed-point integer work at precision + 40
    fractional bits (see the module docstring), summed in a fixed order, so
    results are deterministic to the bit and each level's error ledger is a
    one-sided truncation bound.  x is capped at ``FAST_MAX_X``, k at
    ``MAX_K`` and precision at ``bigreal.MAX_PRECISION``; those caps bound
    the working set.
    Entry j-1 has ``k == j``; its ``elapsed`` runs from the call until
    level j is known: level 1 first, then levels 2..k at the end of the walk.
    """
    [results] = _sk_grid(k, [x], primes, precision)
    return results


def sk_fast(
    k: int,
    x: int,
    primes: PrimeTable,
    precision: int = DEFAULT_PRECISION,
) -> MertensSumResult:
    """S_k(x) by the engine over KeySpace(x): the last of :func:`sk_levels`."""
    return sk_levels(k, x, primes, precision)[-1]

