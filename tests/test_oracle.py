"""Levels 1..k against an oracle that shares no code with the engine.

S_j(x) sums c(n)/n over the n <= x with Omega(n) = j, where c(n) =
Omega(n)! / prod e_i! counts the ordered prime tuples with product
n = prod p_i^e_i, and the tuple count of level j sums c(n).  The oracle
sieves Omega and c in numpy blocks of 2^22 integers from its own primes up
to sqrt(x) and their powers: each power p^i dividing n, after t prime
factors counted before it, takes c to c (t + 1) / i, so that p^a takes c to
c binom(t + a, a); what is left of n after the primes up to sqrt(x) is 1 or
one prime, which takes c to c (t + 1).  It sums c exactly in int64 and
c/n in float64, pairwise within a block and exactly rounded across blocks
(math.fsum).

Float bound: each c/n is rounded once and each block sum is pairwise,
under 2^-45 relative in all, so the oracle's S_j is within 2^-44 S_j of
the truth.  The engine's value is within its error_bound, far smaller.  So
|value - oracle| <= 1e-13 max(1, S_j) holds with room, while a missing or
doubled prefix moves S_j by at least 1/x, far above that at 10^9.
"""

from __future__ import annotations

import math
from itertools import accumulate

import numpy as np
import pytest

from mertens_sums.primes import sieve
from mertens_sums.sums import sk_levels

BLOCK = 1 << 22
TOLERANCE = 1e-13


def _primes_upto(limit: int) -> list[int]:
    """The primes up to ``limit``, by a plain sieve of Eratosthenes."""
    composite = np.zeros(limit + 1, dtype=bool)
    composite[:2] = True
    for p in range(2, math.isqrt(limit) + 1):
        if not composite[p]:
            composite[p * p :: p] = True
    return np.flatnonzero(~composite).tolist()


def _shape_sums(x: int, block: int = BLOCK) -> tuple[list[int], list[float]]:
    """For j = 0..log2(x): the sum of c(n) and of c(n)/n over the n <= x with Omega(n) = j."""
    primes, top = _primes_upto(math.isqrt(x)), x.bit_length()
    counts, parts = [0] * (top + 1), [[] for _ in range(top + 1)]
    for lo in range(1, x + 1, block):
        hi = min(lo + block, x + 1)
        n = np.arange(lo, hi, dtype=np.int64)
        omega, c = np.zeros(hi - lo, dtype=np.int8), np.ones(hi - lo, dtype=np.int64)
        found = np.ones(hi - lo, dtype=np.int32)  # the prime powers found so far, up to n
        for p in primes:
            power, i = p, 1
            while (start := -(-lo // power) * power) < hi:  # the multiples of p^i in the block
                at = slice(start - lo, None, power)
                t = omega[at]  # a view: omega and t count p^i now
                t += 1
                if i == 1:
                    c[at] *= t
                else:
                    c[at] = c[at] * t // i
                found[at] *= p
                power, i = power * p, i + 1
        rest = found != n  # one prime above sqrt(x) is left
        omega[rest] += 1
        c[rest] *= omega[rest]
        order = np.argsort(omega, kind="stable")  # a radix sort of int8
        bounds = [0, *accumulate(np.bincount(omega, minlength=top + 1).tolist())]
        c, share = c[order], (c / n)[order]
        for j in range(top + 1):
            part = slice(bounds[j], bounds[j + 1])
            counts[j] += int(c[part].sum())
            parts[j].append(float(share[part].sum()))
    return counts, [math.fsum(p) for p in parts]


@pytest.fixture(scope="module")
def oracle_1e7():
    return _shape_sums(10**7)


def _check(k: int, x: int, oracle):
    counts, values = oracle
    levels = sk_levels(k, x, sieve(math.isqrt(x)))
    for j, res in enumerate(levels, start=1):
        want = values[j] if j < len(values) else 0.0
        assert res.terms == (counts[j] if j < len(counts) else 0), (k, x, j)
        assert abs(float(res.value) - want) <= TOLERANCE * max(1.0, want), (k, x, j)


class TestOracle:
    def test_small_cases(self):
        # by hand: n <= 12 with Omega 2 are 4, 6, 9, 10 (c = 1, 2, 1, 2); with Omega 3, 8 and 12
        counts, values = _shape_sums(12)
        assert counts[:4] == [1, 5, 6, 4]
        assert values[2] == pytest.approx(1 / 4 + 2 / 6 + 1 / 9 + 2 / 10, rel=1e-15)
        assert values[3] == pytest.approx(1 / 8 + 3 / 12, rel=1e-15)

    def test_blocks(self):
        # blocks of 64 integers, whose edges fall inside runs of multiples, give the same sums
        counts, values = _shape_sums(10**4 + 7)
        assert _shape_sums(10**4 + 7, block=64) == (counts, pytest.approx(values, rel=1e-15))


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 34])
def test_levels_at_1e7(k, oracle_1e7):
    _check(k, 10**7, oracle_1e7)


@pytest.mark.slow
def test_levels_at_1e9():
    oracle = _shape_sums(10**9)
    for k in (1, 2, 3, 4, 5, 6, 34):
        _check(k, 10**9, oracle)
