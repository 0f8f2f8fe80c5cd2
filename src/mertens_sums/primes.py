"""Prime generation and prime-indexed series.

A segmented sieve of Eratosthenes producing an immutable :class:`PrimeTable`,
the Moebius function, and the prime zeta function

    P(s) = sum_p p^(-s) = sum_{n>=1} mu(n)/n * log zeta(n s),

evaluated through the Moebius-weighted log-zeta identity, which converges
geometrically for s >= 3/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from mpmath import mp, mpf

from .bigreal import DEFAULT_PRECISION, check_precision, working_precision
from .constants import MAX_SERIES_PRECISION, zeta_int, zeta_real
from .errors import CapacityError, DomainError

DEFAULT_MAX_LIMIT = 2_000_000_000
# Integers covered per segment.  Chosen so the segment's odd-flag array stays
# comfortably inside L2 while keeping per-segment numpy overhead negligible.
DEFAULT_SEGMENT_SPAN = 1 << 21


@dataclass(frozen=True)
class PrimeTable:
    """All primes up to ``limit``, ascending, plus the sieve limit itself.

    Immutable after construction and safe to share across threads.
    """

    limit: int
    primes: np.ndarray = field(repr=False)

    @property
    def count(self) -> int:
        return int(self.primes.size)

    def __len__(self) -> int:
        return int(self.primes.size)

    def __iter__(self):
        return iter(self.primes.tolist())

    def count_upto(self, v: int) -> int:
        """Number of primes <= v (v <= limit)."""
        return int(np.searchsorted(self.primes, v, side="right"))


def _small_sieve(limit: int) -> np.ndarray:
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.flatnonzero(flags).astype(np.int64)


def _odd_flags_segment(low: int, high: int, base_odd: np.ndarray) -> np.ndarray:
    """Composite-marking for odd numbers in [low, high); low odd."""
    n_odd = (high - low + 1) // 2
    flags = np.ones(n_odd, dtype=bool)
    for p in base_odd:
        p = int(p)
        p2 = p * p
        if p2 >= high:
            break
        start = max(p2, ((low + p - 1) // p) * p)
        if start % 2 == 0:
            start += p
        if start < high:
            flags[(start - low) // 2 :: p] = False
    return flags


def sieve(limit: int) -> PrimeTable:
    """All primes <= limit via a segmented odd-only sieve.

    Memory is O(segment) for the working flags plus the uint32 output
    array.  ``limit`` is capped at ``DEFAULT_MAX_LIMIT`` (below 2^32);
    segments span ``DEFAULT_SEGMENT_SPAN`` integers.
    """
    limit = int(limit)
    if limit < 0:
        raise DomainError(f"sieve limit must be >= 0, got {limit}")
    if limit > DEFAULT_MAX_LIMIT:
        raise CapacityError(
            f"sieve limit {limit} exceeds configured maximum {DEFAULT_MAX_LIMIT}"
        )
    if limit < 2:
        return PrimeTable(limit, np.empty(0, dtype=np.uint32))

    base = _small_sieve(math.isqrt(limit))
    base_odd = base[1:]
    chunks = [np.array([2], dtype=np.uint32)]
    low = 3
    while low <= limit:
        high = min(low + 2 * DEFAULT_SEGMENT_SPAN, limit + 1)  # exclusive
        flags = _odd_flags_segment(low, high, base_odd)
        seg = (low + 2 * np.flatnonzero(flags)).astype(np.uint32)
        chunks.append(seg)
        low = high
    return PrimeTable(limit, np.concatenate(chunks))


# ----------------------------------------------------------------------

_TRIAL_PRIMES = _small_sieve(1024)


def mobius(n: int) -> int:
    """mu(n): 0 on a squared factor, else (-1)^(number of prime factors)."""
    if not isinstance(n, int) or n < 1:
        raise DomainError(f"mobius requires an integer n >= 1, got {n!r}")
    if n == 1:
        return 1
    result = 1
    rem = n
    for p in _TRIAL_PRIMES.tolist():
        if p * p > rem:
            break
        if rem % p == 0:
            rem //= p
            if rem % p == 0:
                return 0
            result = -result
    if rem > 1:
        if rem <= _TRIAL_PRIMES[-1] ** 2:
            result = -result
        else:  # n beyond the trial table: factor the leftover naively
            f = 3 if rem % 2 else 2
            while f * f <= rem:
                if rem % f == 0:
                    rem //= f
                    if rem % f == 0:
                        return 0
                    result = -result
                else:
                    f += 1
            if rem > 1:
                result = -result
    return result


def prime_zeta(s, precision: int = DEFAULT_PRECISION):
    """P(s) = sum_p p^(-s) for real s >= 3/2.

    Uses P(s) = sum_n mu(n)/n log zeta(ns), truncated at the first n whose
    log-zeta falls below the error budget; zeta(m) - 1 < 2^(1-m) makes the
    dropped tail geometric.  Below s = 3/2 the series is not used and the
    argument is rejected.
    """
    check_precision(precision, MAX_SERIES_PRECISION)
    with working_precision(precision):
        s_mp = mpf(s)
        if s_mp < mpf(3) / 2:
            raise DomainError(f"prime_zeta requires s >= 3/2, got {s!r}")
        eps = mpf(2) ** (-(precision + 8))
        total = mpf(0)
        n = 1
        while True:
            mu = mobius(n)
            if mu != 0:
                lz = mp.log(_zeta_arg(n * s_mp, s, n, precision))
                total += mpf(mu) / n * lz
                # tail: sum_{j>n} |log zeta(js)|/j <= 2^(1-(n+1)s)/((n+1)(1-2^-s))
                tail = mpf(2) ** (1 - (n + 1) * s_mp) / ((n + 1) * (1 - mpf(2) ** (-s_mp)))
                if abs(lz) < eps / 2 and tail < eps:
                    break
            n += 1
            if n > 100_000:  # unreachable for s >= 3/2; defensive cap
                raise CapacityError("prime_zeta series failed to terminate")
        return +total


def _zeta_arg(ns, s, n, precision):
    # Integer arguments go through the cached integer path; anything else
    # through the same Euler-Maclaurin engine at real argument.
    if isinstance(s, int) or (isinstance(s, float) and s.is_integer()):
        return zeta_int(int(round(float(s))) * n, precision)
    return zeta_real(ns, precision)
