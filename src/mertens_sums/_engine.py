"""Fixed-point grouped-quotient levels behind the memoized sum engine.

Level tables hold S_j at every key of the floor-division key space as
nonnegative integers scaled by 2^frac_bits.  Level 1 comes from
:func:`seed_table`, exact uint64 limb arithmetic in numpy.  The recurrence

    S_j(v) = sum_{p <= v} S_{j-1}(floor(v/p)) / p

is evaluated at key v with r = isqrt(v) split in two (the hyperbola
method, Tenenbaum, Introduction to Analytic and Probabilistic Number
Theory, I.3):

* primes p <= r contribute floor(S_{j-1}(v // p) / p) one at a time;
* primes p > r are grouped by their quotient y = v // p, y = 1..v//(r+1).
  All primes of a group share S_{j-1}(y), and their reciprocals sum to
  S_1(v // y) - S_1(max(v // (y + 1), r)), a difference of level-1 entries.
  The group products (scale 2^(2 frac_bits)) are summed exactly and
  shifted right once per key.

Every argument above is a key, so a level costs O(x^(3/4)) whole-int
operations instead of one division per (key, prime) pair.  Tuple counts
follow the same split with pi in place of S_1.  All quantities are
nonnegative and every rounding is a floor, so each table entry is at most
the true value and the error ledger is one-sided.  Summation order is
fixed, so results are bit-reproducible.
"""

from __future__ import annotations

from math import isqrt
from operator import floordiv, mul, sub

import numpy as np

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


class Engine:
    """Runs the seed pass and DP levels over one key space."""

    def __init__(self, x: int, keys: np.ndarray, s: int, primes: np.ndarray,
                 precision: int):
        self.x = int(x)
        self.keys = keys
        self.s = int(s)
        self.primes = primes
        self.frac_bits = fixed_point_params(precision)
        self._keys_list = keys.tolist()
        self._level1: list[int] = []
        self._pi: list[int] = []

    # -- level 1 ---------------------------------------------------------
    def seed(self) -> tuple[list[int], list[int]]:
        """(values, counts) of level 1 at every key; counts[i] = pi(keys[i])."""
        # keys <= x fit the primes' dtype; a mixed-dtype search would copy the primes
        counts = np.searchsorted(self.primes, self.keys.astype(self.primes.dtype),
                                 side="right")
        vals = seed_table(counts, self.primes, self.frac_bits)
        self._level1, self._pi = vals, counts.tolist()
        return vals, self._pi

    # -- level j -> j+1 ----------------------------------------------------
    def _quotient_indices(self, v: int, divisors) -> list[int]:
        """Table positions of the keys v // d for d in divisors."""
        if v <= self.s:
            return [v // d - 1 for d in divisors]
        # v = x // n, so v // d = x // (n d): a large key while n d <= x // (s + 1)
        x, nk, big = self.x, len(self._keys_list), self.x // (self.s + 1)
        n = x // v
        return [nk - n * d if n * d <= big else x // (n * d) - 1 for d in divisors]

    def advance(self, prev: list[int], prev_counts: list[int]):
        """One grouped-quotient level (see module docstring). Returns (values, counts)."""
        level1, pi, frac_bits = self._level1, self._pi, self.frac_bits
        small_primes = self.primes[: pi[self.s - 1]].tolist()
        prev_at, counts_at = prev.__getitem__, prev_counts.__getitem__
        out = []
        out_counts = []
        for v in self._keys_list:
            r = isqrt(v)
            # primes p <= r, one at a time
            ps = small_primes[: pi[r - 1]]
            idx = self._quotient_indices(v, ps)
            acc = sum(map(floordiv, map(prev_at, idx), ps))
            cnt = sum(map(counts_at, idx))
            # primes p > r, grouped by y = v // p; the last group starts above r
            ymax = v // (r + 1)
            idx = self._quotient_indices(v, range(1, ymax + 1))
            idx.append(r - 1)
            s1 = [level1[i] for i in idx]
            grouped = sum(map(mul, prev[:ymax], map(sub, s1, s1[1:])))
            pis = [pi[i] for i in idx]
            cnt += sum(map(mul, prev_counts[:ymax], map(sub, pis, pis[1:])))
            out.append(acc + (grouped >> frac_bits))
            out_counts.append(cnt)
        return out, out_counts

    def levels(self, k: int):
        """Yield (values, counts) of levels 1..k in turn, each computed once."""
        vals, counts = self.seed()
        yield vals, counts
        for _ in range(2, k + 1):
            vals, counts = self.advance(vals, counts)
            yield vals, counts

    def run(self, k: int):
        """Levels 1..k; returns (level_k values, level_k counts, top value per level)."""
        tops = []
        for vals, counts in self.levels(k):
            tops.append(vals[-1])
        return vals, counts, tops


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
