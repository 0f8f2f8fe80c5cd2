"""Primes and the Moebius function, in integers only.

A segmented sieve of Eratosthenes producing an immutable :class:`PrimeTable`,
and the Moebius function by trial division.  The series built from them
(the prime zeta function among them) live in :mod:`.constants`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

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

def mobius(n: int) -> int:
    """mu(n): 0 on a squared factor, else (-1)^(number of prime factors)."""
    if not isinstance(n, int) or n < 1:
        raise DomainError(f"mobius requires an integer n >= 1, got {n!r}")
    result = 1
    f = 2
    while f * f <= n:
        if n % f == 0:
            n //= f
            if n % f == 0:
                return 0
            result = -result
        f += 1
    return -result if n > 1 else result
