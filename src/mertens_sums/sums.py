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
from itertools import accumulate, chain, compress, count, repeat
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


def _start_values(keyspace: KeySpace, small_primes: list[int], frac_bits: int, want) -> list[int]:
    """2^F (H_v - 1) within 2 units at the ascending key positions ``want``, 0 elsewhere.

    F = frac_bits; ``small_primes`` are the primes up to sqrt_x.  Each value
    is built 32 guard bits lower, and a key's value does not depend on ``want``.
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
    # 2^bits (H_n - 1) at n = reads
    running, h = _sums_at(map(floordiv, repeat(one), count(2)), reads - 1), 0
    for pos, h in zip(low.tolist(), running):
        out[pos] = h >> INIT_GUARD_BITS
    if not high:
        return out
    h, b0 = next(running, h), int(reads[-1])  # b0 may be the last wanted key, already read
    n_b = x // b0
    coeffs = []  # floor(2^bits B_i / i) while B_i / (i b0^i) reaches a guard unit, i even
    for i in count(2, 2):
        c = _bernoulli(i) / i
        if abs(c.numerator) << bits < c.denominator * b0**i:
            break
        coeffs.append((c.numerator << bits) // c.denominator)
    atanh_coeffs = [one // (2 * i + 1) for i in range(-(-(bits + 2) // 2))]
    smallest = np.arange(n_b + 1)  # smallest prime factor, for n_b >= every n above b0
    for p in reversed(small_primes[: bisect_right(small_primes, math.isqrt(n_b))]):
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
    del ln  # ln's closure holds ln: free the cycle, and with it smallest and logs, at once
    return out


def _level_one(keyspace: KeySpace, small_primes: list[int], frac_bits: int, y0: int, positions):
    """(T, pi, e) with |T - 2^F S_1| <= e, F = frac_bits, and pi exact (see module docstring).

    ``small_primes`` are the primes up to sqrt_x and y0 is :func:`_cutoff`.
    This holds at every key up to y0 and at the top keys at ``positions``;
    the other entries are 0.  T is a list of ints and pi an int64 array, one
    entry per key.
    """
    x, keys, nk = keyspace.x, keyspace.keys, len(keyspace)
    nlow = nk - x // (y0 + 1)  # the keys up to y0
    final_t, final_pi = _running_sums(sieve(y0).primes, keys[:nlow], frac_bits)
    nhead = bisect_right(small_primes, _icbrt(x))
    head, tail = small_primes[:nhead], small_primes[nhead:]
    los = np.searchsorted(keys, np.array(head, dtype=np.int64) ** 2).tolist()
    cubes = np.searchsorted(keys, np.array(head, dtype=np.int64) ** 3).tolist()
    need = np.zeros(nk, dtype=np.int64)  # 1 + the head stages each key takes; 0: never read
    need[positions] = nhead + 1
    # a key that takes stage i makes its source v // p take the i stages before it, and only
    # a key v >= p^3 has a source v // p >= p^2, not final before stage p
    for i in range(nhead - 1, -1, -1):
        c = cubes[i]
        src = keyspace.indices(keys[c + np.flatnonzero(need[c:] > i + 1)], head[i])
        need[src] = np.maximum(need[src], i + 1)
    t = np.array(_start_values(keyspace, small_primes, frac_bits, np.flatnonzero(need)),
                 dtype=object)
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
    heads = zip(positions, t[positions].tolist(), pi[positions].tolist())
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
    e = 2
    for p in small_primes:
        e += -(-2 * e // p) + 1
    return t, pi, e


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
    """The entries of ``a`` as Python scalars, listed 2^16 at a time."""
    return chain.from_iterable(a[i : i + (1 << 16)].tolist() for i in range(0, a.size, 1 << 16))


def _sums_at(terms, stops: np.ndarray):
    """The running sums of ``terms`` from 0 (index 0, the empty sum), once per distinct ``stops``.

    ``stops`` is an ascending int64 array of indices.
    """
    marks = np.zeros(int(stops[-1]) + 1 if stops.size else 0, dtype=bool)
    marks[stops] = True
    return compress(accumulate(terms, initial=0), _stream(marks))


def _running_sums(primes: np.ndarray, low: np.ndarray, frac_bits: int):
    """(values, pi) at the ascending keys ``low``: sums of 1/p and of 1 over the primes p <= key.

    The terms 2^F / p are streamed in order, floored INIT_GUARD_BITS below a
    unit, and the running sum is read off at each key and shifted: every
    value is low by less than 1 + N 2^-32 < 2 units, N < 2^32 primes.  The
    values are a list, one int per key (keys with the same pi share it);
    pi is exact, the int64 count of primes at or below each key.
    """
    one = 1 << (frac_bits + INIT_GUARD_BITS)
    ends = np.searchsorted(primes, low, side="right")
    sums = (v >> INIT_GUARD_BITS for v in _sums_at(map(one.__floordiv__, _stream(primes)), ends))
    runs = np.diff(np.flatnonzero(np.diff(ends, prepend=-1)), append=ends.size)  # keys per pi
    return list(chain.from_iterable(map(repeat, sums, runs.tolist()))), ends


def _walk(keyspace: KeySpace, small_primes: list[int], t: list[int], pi: np.ndarray, e: int,
          frac_bits: int, k: int):
    """Yield (value, count, ledger) at x of levels 2..k, by the prefix walk (see module docstring).

    ``t`` is within e of 2^F S_1, and ``pi`` exact, at every key the walk
    reads.  Each prefix's floors lose under its add to the loss counter,
    so the prefixes lose under ceil(L_j / 2^G) units in all, and the final
    shift under one more.
    """
    x, nk, bits = keyspace.x, len(keyspace), frac_bits + INIT_GUARD_BITS
    big = x // (keyspace.sqrt_x + 1)  # KeySpace.indices' slot rule, inline in this hot loop
    squares, cubes = [q * q for q in small_primes], [q**3 for q in small_primes]
    # A, B and C of the module docstring, prefix sums over the primes: ceil(2^G (T(q) + 2e) / q),
    # floor(2^bits / q^2) and ceil(2^F / q), G = INIT_GUARD_BITS
    above = list(accumulate((-((-t[q - 1] - 2 * e << INIT_GUARD_BITS) // q)
                             for q in small_primes), initial=0))
    inv_sq = list(accumulate(map(floordiv, repeat(1 << bits), squares), initial=0))
    inv = list(accumulate((-((-1 << frac_bits) // q) for q in small_primes), initial=0))
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


def _levels(keyspace: KeySpace, primes: np.ndarray, frac_bits: int, k: int):
    """Yield (value, count, ledger) at x for levels 1..k, each computed once.

    ``primes`` covers ``keyspace.sqrt_x``; the count of level 1 is pi.  The
    walk takes T unclamped: every key it reads is >= 2, where
    T >= 2^F / 2 - e is far above e, so a clamp at 0 would change nothing.
    """
    s, nk, x = keyspace.sqrt_x, len(keyspace), keyspace.x
    small_primes = primes[: np.searchsorted(primes, s, side="right")].tolist()
    y0 = _cutoff(keyspace)
    top = x // (y0 + 1)  # the keys above y0 are x // n for n <= top, at nk - n
    omega = _omega(top, small_primes)
    positions = (nk - np.flatnonzero(omega[1:] <= k - 1) - 1).tolist()
    t, pi, e = _level_one(keyspace, small_primes, frac_bits, y0, positions)
    yield max(t[-1] - e, 0), int(pi[-1]), 2 * e
    if k > 1:
        yield from _walk(keyspace, small_primes, t, pi, e, frac_bits, k)


def _fixed_value_bound(value_int: int, ledger: int, frac_bits: int, precision: int):
    """(value, error_bound) as mpf of a fixed-point value low by at most ``ledger`` units."""
    with working_precision(precision):
        value = +mp.ldexp(value_int, -frac_bits)
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
    """S_1(x), ..., S_k(x) from one pass: level 1 over KeySpace(x), then a prefix walk.

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
    for j, (value_int, count, ledger) in enumerate(levels, start=1):
        value, bound = _fixed_value_bound(value_int, ledger, frac_bits, precision)
        results.append(MertensSumResult(
            k=j, x=x, value=value, error_bound=bound,
            method="memoized", elapsed=time.perf_counter() - t0, terms=count,
        ))
    return results


def sk_fast(
    k: int,
    x: int,
    primes: PrimeTable,
    precision: int = DEFAULT_PRECISION,
) -> MertensSumResult:
    """S_k(x) by the engine over KeySpace(x): the last of :func:`sk_levels`."""
    return sk_levels(k, x, primes, precision)[-1]

