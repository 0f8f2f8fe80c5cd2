"""Exact evaluation of generalized Mertens sums over sieved primes.

S_k(x) sums 1/(p_1 ... p_k) over ordered prime k-tuples with product <= x.
Two independent routes are provided:

* :func:`sk_direct` - literal recursive enumeration of the defining sum,
  no memoization, with an exact-rational mode for tiny x.  The oracle.
* :func:`sk_levels` - bottom-up dynamic programming over the key space
  {floor(x/n)}, identical mathematics, engineered for x up to 10^10; one
  pass yields S_1(x), ..., S_k(x).  :func:`sk_fast` is its last level.

Both count ordered tuples: (2,3) and (3,2) are distinct terms.  S_0 is 1
for every argument >= 1 (the empty product), which makes the recursion

    S_k(x) = sum_{p <= x} S_{k-1}(floor(x/p)) / p

close; S_k depends on x only through floor(x), so arguments are integers.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from mpmath import mp, mpf

from ._engine import Engine, truncation_error_ledger
from .bigreal import DEFAULT_PRECISION, check_precision, working_precision
from .errors import CapacityError, DomainError, ParameterError
from .primes import PrimeTable

DIRECT_MAX_X = 100_000
FAST_MAX_X = 10_000_000_000
MEMORY_BUDGET_BYTES = 1 << 31  # estimate guard for table + prime storage


@dataclass(frozen=True)
class KeySpace:
    """The distinct values {floor(x/n) : n >= 1}, ascending.

    Closed under y -> floor(y/p): every recursion argument the engine can
    reach stays inside the table.  Size is at most 2*ceil(sqrt(x)).
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

    def index(self, y: int) -> int:
        """Position of key y (y must be a member)."""
        if y <= self.sqrt_x:
            return y - 1
        return self.keys.size - self.x // y

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

    ``exact=True`` switches to rational arithmetic (Fraction); practical
    only for small x since denominators grow as products of primes.
    Capacity-capped at x = 10^5: beyond that use :func:`sk_fast`.
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
    tuples = 0

    if exact:
        def rec(j: int, y: int):
            nonlocal tuples
            if j == 0:
                tuples += 1
                return Fraction(1)
            total = Fraction(0)
            for p in plist:
                if p > y:
                    break
                total += rec(j - 1, y // p) / p
            return total

        value = rec(k, x) if x >= 1 else Fraction(0)
        elapsed = time.perf_counter() - t0
        return MertensSumResult(
            k=k, x=x, value=value, error_bound=Fraction(0),
            method="direct", elapsed=elapsed, terms=tuples,
        )

    ops = 0
    with working_precision(precision):
        def rec(j: int, y: int):
            nonlocal tuples, ops
            if j == 0:
                tuples += 1
                return mpf(1)
            total = mpf(0)
            for p in plist:
                if p > y:
                    break
                total += rec(j - 1, y // p) / p
                ops += 2
            return total

        value = +rec(k, x) if x >= 1 else mpf(0)
        # every op rounds within 2^-(prec+guard) relative; magnitudes <= S_k+1
        bound = mpf(2) ** (-(precision + 16)) * (2 * ops + 2) * (abs(value) + 1)
    elapsed = time.perf_counter() - t0
    return MertensSumResult(
        k=k, x=x, value=value, error_bound=bound,
        method="direct", elapsed=elapsed, terms=tuples,
    )


# ----------------------------------------------------------------------
# The engine: memoized dynamic programming over the key space.

def _fixed_to_mpf(value_int: int, frac_bits: int, precision: int):
    with mp.workprec(max(frac_bits + 32, precision + 32)):
        v = mpf(value_int) / mpf(2) ** frac_bits
    with working_precision(precision):
        return +v


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
    max_x: int = FAST_MAX_X,
    memory_budget: int = MEMORY_BUDGET_BYTES,
) -> list[MertensSumResult]:
    """S_1(x), ..., S_k(x) from one level-by-level DP pass over KeySpace(x).

    Level 1 is the prime-reciprocal prefix table; level j reads level j-1
    through floor division, so the pass that yields S_k(x) computes every
    lower level on the way and each is reported here.  All arithmetic is
    exact fixed-point integer work at precision + 40 fractional bits (see
    ``_engine``), summed in a fixed order, so results are deterministic to
    the bit and each level's error ledger is a one-sided truncation bound.
    Entry j-1 has ``k == j``; its ``elapsed`` runs from the call to the
    end of level j.
    """
    if not isinstance(k, int) or k < 1:
        raise DomainError(f"k must be an integer >= 1, got {k!r}")
    x = int(x)
    if x < 1:
        raise DomainError(f"x must be >= 1, got {x}")
    if x > max_x:
        raise CapacityError(f"x={x} exceeds the configured maximum {max_x}")
    check_precision(precision)
    if x >= 2:
        _require_cover(primes, x)

    t0 = time.perf_counter()
    if x < 2:
        # no primes at all: S_j(1) = 0 for j >= 1
        elapsed = time.perf_counter() - t0
        return [MertensSumResult(k=j, x=x, value=mpf(0), error_bound=mpf(0),
                                 method="memoized", elapsed=elapsed, terms=0)
                for j in range(1, k + 1)]

    keyspace = KeySpace.build(x)
    pcount = primes.count_upto(x)
    engine = Engine(x, keyspace.keys, keyspace.sqrt_x, primes.primes[:pcount], precision)
    est = _estimate_bytes(len(keyspace), engine.frac_bits)
    if est > memory_budget:
        raise CapacityError(
            f"estimated working set {est / 1e9:.2f} GB exceeds budget "
            f"{memory_budget / 1e9:.2f} GB"
        )

    results = []
    tops = []
    for j, (values, counts) in enumerate(engine.levels(k), start=1):
        tops.append(values[-1])
        ledger = truncation_error_ledger(pcount, tops, engine.frac_bits)
        value = _fixed_to_mpf(values[-1], engine.frac_bits, precision)
        with working_precision(precision):
            # 2^16 times the relative rounding at this working precision: covers
            # rounding the value, converting the ledger and this expression
            slack = mpf(2) ** -(precision + 16)
            bound = (mpf(ledger) * mpf(2) ** -engine.frac_bits * (1 + slack)
                     + abs(value) * slack)
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
    max_x: int = FAST_MAX_X,
    memory_budget: int = MEMORY_BUDGET_BYTES,
) -> MertensSumResult:
    """S_k(x) by the level-by-level DP over KeySpace(x): the last of :func:`sk_levels`."""
    return sk_levels(k, x, primes, precision, max_x, memory_budget)[-1]


def prime_recip_table(
    keyspace: KeySpace,
    primes: PrimeTable,
    precision: int = DEFAULT_PRECISION,
) -> dict[int, object]:
    """sum_{p <= v} 1/p for every key v, from one ascending pass."""
    _require_cover(primes, keyspace.x)
    check_precision(precision)
    pcount = primes.count_upto(keyspace.x)
    engine = Engine(keyspace.x, keyspace.keys, keyspace.sqrt_x, primes.primes[:pcount],
                    precision)
    values, _ = engine.seed()
    return {
        int(key): _fixed_to_mpf(val, engine.frac_bits, precision)
        for key, val in zip(keyspace.keys.tolist(), values)
    }
