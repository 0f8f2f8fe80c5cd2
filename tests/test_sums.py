import gc
import math
import random
import tracemalloc
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate, compress

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from mertens_sums import sums
from mertens_sums.bigreal import GUARD_BITS, MAX_PRECISION
from mertens_sums.errors import CapacityError, DomainError, ParameterError
from mertens_sums.harness import GridSpec
from mertens_sums.primes import sieve
from mertens_sums.sums import (
    FAST_MAX_X,
    KeySpace,
    sk_direct,
    sk_fast,
    sk_levels,
)

HAND_VALUES = [
    (1, 10, Fraction(247, 210), 4),
    (2, 6, Fraction(7, 12), 3),
    (2, 10, Fraction(161, 180), 6),
    (3, 8, Fraction(1, 8), 1),
]


class TestKeySpace:
    @given(st.integers(min_value=1, max_value=10**7))
    @settings(max_examples=60, deadline=None)
    def test_structure(self, x):
        ks = KeySpace.build(x)
        keys = ks.keys
        assert len(ks) <= 2 * math.isqrt(x) + 2
        assert keys[0] == 1 and keys[-1] == x
        assert np.all(np.diff(keys) > 0)
        # every key is hit by some floor(x/n)
        assert all(x // (x // int(v)) == int(v) for v in keys[-5:])

    @given(st.integers(min_value=2, max_value=10**6))
    @settings(max_examples=40, deadline=None)
    def test_closure_and_index(self, x):
        ks = KeySpace.build(x)
        keys = ks.keys.tolist()
        keyset = set(keys)
        rng = random.Random(x)
        s, switch = ks.sqrt_x, x // (ks.sqrt_x + 1)
        # keys on both sides of sqrt_x, including the largest small and smallest large key
        members = rng.sample(keys, min(8, len(keys))) + keys[max(0, s - 2) : s + 2] + keys[-2:]
        for v in members:
            assert ks.indices(v, [1]) == [keys.index(v)]
            for p in (2, 3, 5, 7):
                if p <= v:
                    assert v // p in keyset
            # divisors on both sides of n d = x // (sqrt_x + 1), where v = x // n
            n = x // v
            pivot = switch // n
            ds = sorted({d for d in [1, 2, 3, v, *range(max(1, pivot - 3), pivot + 4),
                                     rng.randint(1, v)] if 1 <= d <= v})
            want = np.searchsorted(ks.keys, [v // d for d in ds]).tolist()
            assert ks.indices(v, ds) == want, (x, v)

    def test_duplicate_corner(self):
        # x a perfect square: x//sqrt(x) == sqrt(x) must not duplicate
        ks = KeySpace.build(16)
        assert ks.keys.tolist() == sorted(set(16 // n for n in range(1, 17)))


class TestDirectOracle:
    @pytest.mark.parametrize("k,x,expected,terms", HAND_VALUES)
    def test_exact_rational_values(self, k, x, expected, terms, primes_1e4):
        res = sk_direct(k, x, primes_1e4, exact=True)
        assert res.value == expected
        assert res.terms == terms
        assert res.method == "direct"

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 6])
    def test_zero_below_2_to_k(self, k, primes_1e4):
        assert sk_direct(k, 2**k - 1, primes_1e4, exact=True).value == 0
        assert sk_direct(k, 2**k, primes_1e4, exact=True).value == Fraction(1, 2**k)

    def test_s0_is_one(self, primes_1e4):
        assert sk_direct(0, 1, primes_1e4, exact=True).value == 1
        assert sk_direct(0, 99, primes_1e4, exact=True).value == 1

    def test_mpf_mode_matches_exact(self, primes_1e4):
        with mp.workprec(256):
            for k, x, expected, _ in HAND_VALUES:
                res = sk_direct(k, x, primes_1e4)
                frac = mpf(expected.numerator) / expected.denominator
                assert abs(res.value - frac) < mpf(2) ** -200
                assert res.error_bound > 0

    def test_capacity_cap(self, primes_1e6):
        with pytest.raises(CapacityError):
            sk_direct(2, 200_000, primes_1e6)

    def test_requires_covering_table(self, primes_1e4):
        with pytest.raises(ParameterError):
            sk_direct(1, 50_000, primes_1e4)

    def test_domain(self, primes_1e4):
        with pytest.raises(DomainError):
            sk_direct(-1, 10, primes_1e4)

    def test_x_below_one(self, primes_1e4):
        # the same contract as sk_levels: S_k(0) is not a value, it is an error
        with pytest.raises(DomainError, match="x must be >= 1, got 0"):
            sk_direct(1, 0, primes_1e4)


class TestFastEngine:
    @pytest.mark.parametrize("k,x,expected,_terms", HAND_VALUES)
    def test_hand_values_to_fixed_point_accuracy(self, k, x, expected, _terms, primes_1e4):
        res = sk_fast(k, x, primes_1e4)
        with mp.workprec(300):
            frac = mpf(expected.numerator) / expected.denominator
            assert abs(res.value - frac) < mpf(2) ** -180
        assert res.terms == _terms
        assert res.method == "memoized"

    def test_zero_region_boundary(self, primes_1e4):
        for k in (1, 2, 3, 4, 5):
            assert sk_fast(k, 2**k - 1, primes_1e4).value == 0
            assert sk_fast(k, 2**k, primes_1e4).value > 0

    def test_monotone_in_x(self, primes_1e4):
        vals = [sk_fast(2, x, primes_1e4).value for x in (5, 6, 50, 500, 5000)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        # strict increase across the (2,3)/(3,2) crossing at x=6
        assert vals[1] > vals[0]

    def test_bounded_by_power_of_s1(self, primes_1e6):
        with mp.workprec(224):
            for x in (100, 10_000, 1_000_000):
                s1 = sk_fast(1, x, primes_1e6).value
                for k in (2, 3):
                    assert sk_fast(k, x, primes_1e6).value <= s1**k

    def test_error_bound_honesty(self, primes_1e6):
        with mp.workprec(420):
            for k, x in ((1, 97), (2, 5000), (3, 40_000), (2, 300_000)):
                base = sk_fast(k, x, primes_1e6, precision=192)
                refined = sk_fast(k, x, primes_1e6, precision=256)
                assert abs(base.value - refined.value) < base.error_bound

    def test_error_bound_ceiling(self, primes_1e6):
        # the ledger must stay below terms * 2^(2-precision) * (largest term),
        # the largest single term being 2^-k
        with mp.workprec(300):
            for k, x in ((1, 1000), (2, 5000), (3, 100_000)):
                res = sk_fast(k, x, primes_1e6, precision=192)
                ceiling = res.terms * mpf(2) ** (2 - 192) * mpf(2) ** -k
                assert 0 <= res.error_bound <= ceiling

    def test_s1_at_1e6_against_fsum(self, primes_1e6):
        # one-pass float oracle: fsum of 1/p is exactly rounded, so it
        # carries only representation error ~1e-16
        oracle = math.fsum(1.0 / p for p in primes_1e6.primes.tolist())
        res = sk_fast(1, 10**6, primes_1e6)
        assert abs(float(res.value) - oracle) < 1e-12

    def test_capacity_and_parameters(self, primes_1e4):
        with pytest.raises(CapacityError):
            sk_fast(2, 10**11, primes_1e4)
        with pytest.raises(ParameterError):  # the engine reads primes up to isqrt(x)
            sk_fast(2, 10**9, primes_1e4)
        with pytest.raises(DomainError):
            sk_fast(0, 100, primes_1e4)
        # levels past log2(FAST_MAX_X) are zero everywhere; precision has a ceiling
        assert sk_fast(sums.MAX_K, 100, primes_1e4).value == 0
        with pytest.raises(CapacityError):
            sk_levels(sums.MAX_K + 1, 100, primes_1e4)
        with pytest.raises(CapacityError):
            sk_direct(1, 10, primes_1e4, precision=MAX_PRECISION + 1)
        with pytest.raises(CapacityError):
            sk_fast(1, 1, primes_1e4, precision=MAX_PRECISION + 1)

    @pytest.mark.parametrize("k,x,precision", [(3, 10, 5000), (2, 1000, 2048)])
    def test_high_precision_against_exact(self, k, x, precision, primes_1e4):
        exact = sk_direct(k, x, primes_1e4, exact=True).value
        res = sk_fast(k, x, primes_1e4, precision=precision)
        bound = _to_fraction(res.error_bound)
        assert 0 < bound <= Fraction(1, 2**precision) * max(1, exact)
        value = _to_fraction(res.value)
        assert abs(exact - value) <= bound

    def test_x_equal_one(self, primes_1e4):
        res = sk_fast(3, 1, primes_1e4)
        assert res.value == 0 and res.terms == 0


def _to_fraction(value) -> Fraction:
    man, exp = value.man_exp
    return Fraction(man) * Fraction(2) ** exp


def _reference_levels(k: int, x: int, primes, frac_bits: int):
    """Per-prime fixed-point recurrence: (value, terms, ledger in ulps) of S_1..S_k at x."""
    keys = KeySpace.build(x).keys.tolist()
    position = {v: i for i, v in enumerate(keys)}  # independent of KeySpace.indices
    plist = primes.primes[: primes.count_upto(x)].tolist()
    vals = [sum((1 << frac_bits) // p for p in plist if p <= v) for v in keys]
    counts = [primes.count_upto(v) for v in keys]
    s1_upper, ledger = vals[-1] + len(plist), len(plist)
    levels = [(vals[-1], counts[-1], ledger)]
    for _ in range(2, k + 1):
        rows = [[position[v // p] for p in plist if p <= v] for v in keys]
        vals = [sum(vals[i] // p for i, p in zip(row, plist)) for row in rows]
        counts = [sum(counts[i] for i in row) for row in rows]
        ledger = -(-ledger * s1_upper >> frac_bits) + len(plist)
        levels.append((vals[-1], counts[-1], ledger))
    return levels


def _tuple_shapes(limit: int) -> list[tuple[int, int]]:
    """(Omega(n), number of ordered prime tuples with product n) for n = 0..limit."""
    shapes = [(0, 0), (0, 1)]
    for n in range(2, limit + 1):
        exponents, m, p = [], n, 2
        while m > 1:
            a = 0
            while m % p == 0:
                m, a = m // p, a + 1
            if a:
                exponents.append(a)
            p += 1
        omega = sum(exponents)
        shapes.append((omega, math.factorial(omega) // math.prod(map(math.factorial, exponents))))
    return shapes


class TestLedgerGuard:
    """The error ledger is one-sided and honest against exact rationals."""

    XS = sorted(set(random.Random(1910).sample(range(2, 1000), 56)) | {2, 16, 210, 999})

    @pytest.fixture(scope="class")
    def exact_values(self, primes_1e4):
        """sk_direct(k, x, exact=True) for every x in XS and k <= 6, shared by the precisions."""
        return {(k, x): sk_direct(k, x, primes_1e4, exact=True)
                for x in self.XS for k in range(1, 7)}

    @pytest.mark.parametrize("precision", [64, 80, 192])
    def test_one_sided_against_exact(self, precision, primes_1e4, exact_values, monkeypatch):
        # record the oracle's fixed-point total and ledger before any mpf rounding
        fixed_value_bound, oracle_fixed = sums._fixed_value_bound, []

        def record(total, ledger, *args):
            oracle_fixed.append((total, ledger))
            return fixed_value_bound(total, ledger, *args)

        monkeypatch.setattr(sums, "_fixed_value_bound", record)
        shapes = _tuple_shapes(max(self.XS))
        for x in self.XS:
            ks = KeySpace.build(x)
            plist = primes_1e4.primes[: primes_1e4.count_upto(x)]
            for k in range(1, 7):  # up to prefixes of five primes: 2^6 <= 999
                exact = exact_values[k, x]
                # the fixed-point value, in units of 2^-frac_bits, before any mpf rounding
                frac_bits = sums.fixed_point_params(precision)
                *_, (value, _, ledger) = _levels(ks, plist, frac_bits, k)
                assert 0 <= exact.value * 2**frac_bits - value <= ledger, (k, x)

                direct = sk_direct(k, x, primes_1e4, precision=precision)
                total, ledger = oracle_fixed[-1]
                assert 0 <= exact.value * 2**frac_bits - total <= ledger, (k, x)
                # the same floors grouped by the tuples' product, not enumerated
                assert total == sum(count * ((1 << frac_bits) // n)
                                    for n, (omega, count) in enumerate(shapes[: x + 1])
                                    if omega == k), (k, x)
                for res in (sk_fast(k, x, primes_1e4, precision=precision), direct):
                    value = _to_fraction(res.value)
                    slack = max(1, value) * Fraction(1, 2 ** (precision + 16))
                    gap = exact.value - value
                    assert -slack <= gap <= _to_fraction(res.error_bound), (k, x, precision)
                    assert res.terms == exact.terms, (k, x)

    @pytest.mark.parametrize("x", [10**5, 3 * 10**5])
    def test_against_per_prime_recurrence(self, x, primes_1e6):
        frac_bits = sums.fixed_point_params(192)
        levels = _reference_levels(4, x, primes_1e6, frac_bits)
        for k, (ref_int, ref_terms, ref_ledger) in enumerate(levels, start=1):
            res = sk_fast(k, x, primes_1e6, precision=192)
            gap = abs(_to_fraction(res.value) - Fraction(ref_int, 2**frac_bits))
            assert gap <= _to_fraction(res.error_bound) + Fraction(ref_ledger, 2**frac_bits)
            assert res.terms == ref_terms


class TestLevels:
    @pytest.mark.parametrize("x", [1, 2, 16, 999, 65_537, 10**6])
    def test_each_level_matches_sk_fast(self, x, primes_1e6):
        levels = sk_levels(4, x, primes_1e6)
        assert [res.k for res in levels] == [1, 2, 3, 4]
        for k, res in enumerate(levels, start=1):
            single = sk_fast(k, x, primes_1e6)
            assert res.x == single.x
            assert res.value == single.value, (k, x)
            assert res.error_bound == single.error_bound, (k, x)
            assert res.terms == single.terms, (k, x)

    def test_domain(self, primes_1e4):
        with pytest.raises(DomainError):
            sk_levels(0, 100, primes_1e4)

    @pytest.mark.parametrize("precision", [64, 192, 1024])
    def test_values_rounded_to_working_precision(self, precision, primes_1e4):
        for res in sk_levels(6, 10**6, primes_1e4, precision):
            assert res.value.man.bit_length() <= precision + GUARD_BITS, res.k

    @pytest.mark.parametrize("x, precision", [
        (10**8, 64), (10**8, 192), pytest.param(10**10, 64, marks=pytest.mark.slow)])
    def test_error_bound_within_precision(self, x, precision):
        # every level reads level 1 alone, so no ledger compounds: at k = MAX_K each level's
        # bound stays under 2^-precision max(1, |S_j|)
        for res in sk_levels(sums.MAX_K, x, sieve(math.isqrt(x)), precision):
            value, bound = _to_fraction(res.value), _to_fraction(res.error_bound)
            assert bound <= Fraction(1, 2**precision) * max(1, value), res.k

    # traced peak bytes a key of one pass: about 140 and 185 with each level-1 table held
    # once; one more copy of T, or pi as Python ints, takes either case past its budget
    @pytest.mark.parametrize("k, x, budget", [(1, 99_700_000, 170), (4, 10**7, 230)])
    def test_traced_peak_per_key(self, k, x, budget, primes_1e4):
        sk_levels(k, 1000, primes_1e4)  # fills the caches a first call makes
        tracemalloc.start()
        try:
            sk_levels(k, x, primes_1e4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= budget * len(KeySpace.build(x)), peak

    @pytest.mark.parametrize("k, x", [(1, 99_700_000), (4, 9_970_000), (6, 10**6)])
    def test_pass_leaves_no_cycles(self, k, x, primes_1e4):
        # a pass frees its tables when it returns, not when the cyclic collector next runs:
        # a recursive closure left alive holds what it reads
        gc.collect()
        gc.disable()
        try:
            sk_levels(k, x, primes_1e4)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_precisions_agree_within_ledgers(self, primes_1e4):
        _assert_precisions_agree(10**7 + 19, primes_1e4)

    @pytest.mark.parametrize("x", [10**7 + 19, 99_700_000])
    def test_k1_precisions_agree_within_ledgers(self, x, primes_1e4):
        # k = 1 reads start values at the fewest keys
        _assert_precisions_agree(x, primes_1e4, k=1)

    @pytest.mark.slow
    def test_precisions_agree_within_ledgers_at_1e10(self):
        primes = sieve(10**5)
        low = _assert_precisions_agree(10**10, primes)
        # level j at x does not depend on k, and k = 2 and 3 fill the fewest level-1 keys
        for k in (2, 3):
            pruned = sk_levels(k, 10**10, primes, 64)
            assert [(r.value, r.error_bound, r.terms) for r in pruned] == [
                (r.value, r.error_bound, r.terms) for r in low[:k]], k


def _assert_precisions_agree(x: int, primes, k: int = 6):
    """sk_levels(k, x) at 64 and 1024 bits: each value within the other's bound, equal terms.

    Both values sit at most their error_bound below S_j(x), so each lies
    within the other's bound, up to its own rounding to the working precision.
    Returns the 64-bit levels.
    """
    low, high = (sk_levels(k, x, primes, precision) for precision in (64, 1024))
    for a, b in zip(low, high):
        va, vb = _to_fraction(a.value), _to_fraction(b.value)
        assert vb - va <= _to_fraction(a.error_bound) + vb / 2 ** (1024 + 16), a.k
        assert va - vb <= _to_fraction(b.error_bound) + va / 2 ** (64 + 16), a.k
        assert a.terms == b.terms, a.k
    return low


class TestRosserSchoenfeld:
    """Level 1 at every key against Rosser-Schoenfeld (Illinois J. Math. 6, 1962, Theorem 5).

    loglog v + c1 - 1/(2 log^2 v) < S_1(v) for v > 1, and S_1(v) < loglog v
    + c1 + 1/(2 log^2 v) for v >= 286.  Level 1 is at most S_1 and at least
    S_1 less its ledger, so the lower bound is checked on the value and the
    upper one on the value plus the ledger.  The bounds are loose, but they
    need no sieve and no oracle: only c1 from the bundle.
    """

    @pytest.mark.parametrize("x", [10**8, pytest.param(10**10, marks=pytest.mark.slow)])
    def test_bounds_at_every_key(self, x, bundle192):
        frac_bits = sums.fixed_point_params(64)
        ks = KeySpace.build(x)
        t, _, e = _level_one_at_every_key(ks, sieve(ks.sqrt_x).primes.tolist(), frac_bits)
        level1, ledger = [max(v - e, 0) for v in t], 2 * e  # level 1 as _levels yields it
        with mp.workprec(128):
            c1 = +bundle192.c1
            for v, value in zip(ks.keys[1:].tolist(), level1[1:]):
                log_v = mp.log(v)
                main, slack = mp.log(log_v) + c1, 1 / (2 * log_v**2)
                assert main - slack < mp.ldexp(value, -frac_bits), v
                if v >= 286:
                    assert mp.ldexp(value + ledger, -frac_bits) < main + slack, v


def _shape_arrays(limit: int) -> tuple[np.ndarray, np.ndarray]:
    """Omega(n) and the number of ordered prime tuples with product n, for n = 0..limit.

    Each n is factored by repeated division by the smallest prime factor of
    what is left: the a-th power of a prime, after t other factors, takes the
    count from c to c (t + a) / a, so it ends at Omega(n)! / prod e_i!.
    """
    spf = np.arange(limit + 1)
    small = [p for p in range(2, math.isqrt(limit) + 1)
             if all(p % d for d in range(2, math.isqrt(p) + 1))]
    for p in reversed(small):  # smaller primes overwrite larger ones
        spf[p * p :: p] = p
    rest, last = np.arange(limit + 1), np.zeros(limit + 1, dtype=np.int64)
    omega, counts, run = (np.zeros(limit + 1, dtype=np.int64) for _ in range(3))
    counts[1:] = 1
    while (live := np.flatnonzero(rest > 1)).size:
        p = spf[rest[live]]
        run[live] = np.where(p == last[live], run[live] + 1, 1)
        omega[live] += 1
        counts[live] = counts[live] * omega[live] // run[live]
        rest[live] //= p
        last[live] = p
    return omega, counts


def _levels(ks: KeySpace, primes, frac_bits: int, k: int):
    """(value, count, ledger) at x of levels 1..k, from sums._levels over ks alone."""
    [levels] = sums._levels([ks], primes, frac_bits, k)
    return list(levels)


def _level_one(ks: KeySpace, small_primes: list[int], frac_bits: int, y0: int, positions):
    """(T, pi, e) of sums._level_one over ks alone."""
    [level_one] = sums._level_one([ks], small_primes, frac_bits, [y0], [positions])
    return level_one


def _start_values(ks: KeySpace, small_primes: list[int], frac_bits: int, want):
    """The start values of sums._start_values over ks alone."""
    [start] = sums._start_values([ks], small_primes, frac_bits, [want])
    return start.tolist()


def _walk(ks: KeySpace, small_primes: list[int], t, pi, e: int, frac_bits: int, k: int):
    """Levels 2..k of sums._walk, with the prime prefix sums a pass builds."""
    return list(sums._walk(ks, small_primes, t, pi, e, frac_bits, k,
                           *sums._prime_sums(small_primes, frac_bits)))


def _cutoff(x: int) -> int:
    """The running-sum cutoff y0 = max(floor(x^(2/3)), isqrt(x)) of _levels."""
    y0 = round((x * x) ** (1 / 3))
    y0 -= y0**3 > x * x
    y0 += (y0 + 1) ** 3 <= x * x
    return max(y0, math.isqrt(x))


def _level_one_at_every_key(ks: KeySpace, small_primes: list[int], frac_bits: int):
    """(T, pi, e) of _level_one at every key of ks: every top key x // n > y0 is filled.

    A DP pass fills level 1 only at the top keys x // n with Omega(n) <= k - 1.
    """
    y0 = _cutoff(ks.x)
    top = ks.x // (y0 + 1)
    return _level_one(ks, small_primes, frac_bits, y0, list(range(len(ks) - top, len(ks))))


def _dense_levels(k: int, x: int, primes, frac_bits: int):
    """(value, count, ledger) at x of levels 1..k, from level 1 filled at every key.

    Level 1 is taken as _levels yields it, max(T - e, 0) with ledger 2e, and
    levels 2..k from the prefix walk over T.
    """
    ks = KeySpace.build(x)
    small_primes = primes.primes[: primes.count_upto(ks.sqrt_x)].tolist()
    t, pi, e = _level_one_at_every_key(ks, small_primes, frac_bits)
    return [(max(t[-1] - e, 0), pi[-1], 2 * e),
            *_walk(ks, small_primes, t, pi, e, frac_bits, k)]


class TestDemandDrivenLevels:
    """_levels fills level 1 only at the keys the walk reads; the levels must not notice."""

    # both sides of perfect squares and of the x // (sqrt_x + 1) switch
    @pytest.mark.parametrize("x", [2, 3, 4, 48, 49, 50, 1000, 65_537, 10**6])
    def test_tops_match_dense_pass(self, x, primes_1e6):
        frac_bits = sums.fixed_point_params(192)
        dense = _dense_levels(6, x, primes_1e6, frac_bits)
        ks = KeySpace.build(x)
        plist = primes_1e6.primes[: primes_1e6.count_upto(x)]
        for k in range(1, 7):
            assert _levels(ks, plist, frac_bits, k) == dense[:k], (k, x)

    @pytest.mark.parametrize("x", [4, 49, 999, 65_537, 10**6])
    @pytest.mark.parametrize("precision", [64, 192])
    def test_walk_over_t_matches_clamped_table(self, x, precision, primes_1e6):
        # the walk reads only keys >= 2, where T >= 2^F / 2 - e is far above e, so e cancels
        # in each difference T(x // n) - (T(q) + 2e): T and max(T - e, 0) give the same levels
        frac_bits = sums.fixed_point_params(precision)
        ks = KeySpace.build(x)
        small = primes_1e6.primes[: primes_1e6.count_upto(ks.sqrt_x)].tolist()
        t, pi, e = _level_one_at_every_key(ks, small, frac_bits)
        clamped = [max(v - e, 0) for v in t]
        walks = (_walk(ks, small, table, pi, e, frac_bits, 6) for table in (t, clamped))
        assert next(walks) == next(walks), (precision, x)


class TestTupleCounts:
    """Omega(n) up to top = x // (y0 + 1), the input of level 1's fill rule, and the cutoff y0."""

    def test_reference_against_trial_division(self):
        omega, counts = _shape_arrays(3000)
        assert list(zip(omega.tolist(), counts.tolist())) == _tuple_shapes(3000)

    def test_cutoff(self):
        # x^2 is a cube at x = m^3; 2154^3 and 2155^3 straddle FAST_MAX_X
        cubes = [m**3 + d for m in (2, 3, 10, 2154, 2155) for d in (-1, 0, 1)]
        for x in [*range(1, 3000), *cubes, 10**9, FAST_MAX_X]:
            assert sums._cutoff(KeySpace.build(x)) == _cutoff(x), x
        assert _cutoff(9999) == 464 and 9999 // (464 + 1) == 21

    @pytest.mark.parametrize("x", [2, 48, 1000, 9999, 65_537, 10**6, 2 * 10**7 + 3])
    def test_against_factorisation(self, x, primes_1e6):
        top = x // (_cutoff(x) + 1)
        small = primes_1e6.primes[: primes_1e6.count_upto(math.isqrt(x))].tolist()
        omega = sums._omega(top, small)
        want_omega, _ = _shape_arrays(top)
        assert omega[1:].tolist() == want_omega[1:].tolist(), x  # n = 0 is no product


def _exact_levels(k: int, x: int, primes) -> list[dict]:
    """Exact S_1..S_k as Fractions at every key of x, by the defining recursion."""
    keys = KeySpace.build(x).keys.tolist()
    plist = primes.primes[: primes.count_upto(x)].tolist()
    levels = [{v: sum(Fraction(1, p) for p in plist if p <= v) for v in keys}]
    for _ in range(2, k + 1):
        prev = levels[-1]
        levels.append({v: sum(Fraction(prev[v // p], p) for p in plist if p <= v) for v in keys})
    return levels


BOUND_GUARD = 64  # _exact_bounds works this many bits below the engine's units


def _exact_bounds(k: int, keys: list[int], omega, tuples, bits: int):
    """(lo, hi, counts) of S_1..S_k at every key, lo <= 2^bits S_j(v) <= hi.

    S_j(v) sums c/n over n <= v with Omega(n) = j, c the ordered prime
    tuples with product n (from _shape_arrays); lo floors each term, and hi
    adds one unit per term.  No step of the DP is used.
    """
    one, levels = 1 << bits, []
    for j in range(1, k + 1):
        n = np.flatnonzero(omega == j)
        lo = list(accumulate((one * c // m for m, c in zip(n.tolist(), tuples[n].tolist())),
                             initial=0))
        at = np.searchsorted(n, keys, side="right").tolist()
        counts = np.concatenate(([0], np.cumsum(tuples[n])))[at].tolist()
        levels.append(([lo[i] for i in at], [lo[i] + i for i in at], counts))
    return levels


class TestLedgerAtEveryKey:
    """Level 1's ledger bounds true - computed at every key it fills; each level's at x."""

    @pytest.mark.parametrize("x", [2, 16, 48, 210, 361, 600, 999])
    @pytest.mark.parametrize("precision", [64, 192])
    def test_dense_levels_against_exact(self, x, precision, primes_1e4):
        # level 1 at every key, as _levels yields it, against exact S_1
        frac_bits = sums.fixed_point_params(precision)
        ks = KeySpace.build(x)
        (*_, ledger), = _levels(ks, primes_1e4.primes, frac_bits, 1)
        small_primes = primes_1e4.primes[: primes_1e4.count_upto(ks.sqrt_x)].tolist()
        t, _, e = _level_one_at_every_key(ks, small_primes, frac_bits)
        exact = _exact_levels(1, x, primes_1e4)[0]
        for v, computed in zip(ks.keys.tolist(), t):
            assert 0 <= exact[v] * 2**frac_bits - max(computed - e, 0) <= ledger, (x, v)

    @pytest.mark.parametrize("x", [2, 3, 4, 16, 48, 49, 50, 210, 361, 600, 999, 4096, 9999,
                                   65_537, 10**6])
    def test_filled_entries_against_exact(self, x, primes_1e6, monkeypatch):
        # at k = 5 level 1 fills every key up to y0 and the top keys x // n > y0 with
        # Omega(n) <= 4, all the walk reads; every other value and count is 0.  Each level's
        # value at x lies within its ledger of S_j(x).  9999 has y0 = 464 and top keys for
        # n <= 21.
        ks = KeySpace.build(x)
        keys, nk = ks.keys.tolist(), len(ks)
        top = x // (_cutoff(x) + 1)
        omega, tuples = _shape_arrays(x)
        filled = [*range(nk - top), *(nk - n for n in range(1, top + 1) if omega[n] <= 4)]
        unfilled = sorted(set(range(nk)) - set(filled))
        level_one, tables = sums._level_one, []

        def record(*args):
            for table in level_one(*args):
                tables.append(table)
                yield table

        monkeypatch.setattr(sums, "_level_one", record)
        for precision in (64, 192):
            frac_bits = sums.fixed_point_params(precision)
            exact = _exact_bounds(5, keys, omega, tuples, frac_bits + BOUND_GUARD)
            levels = _levels(ks, primes_1e6.primes, frac_bits, 5)
            t, pi, e = tables[-1]
            assert not any(t[i] or pi[i] for i in unfilled), (precision, x)
            (lo, hi, want), ledger = exact[0], levels[0][2]
            for i in filled:
                # level 1 as _levels yields it: computed <= 2^F S_1 <= computed + ledger
                computed = max(t[i] - e, 0)
                assert computed << BOUND_GUARD <= lo[i], (precision, x, keys[i])
                assert hi[i] <= (computed + ledger) << BOUND_GUARD, (precision, x, keys[i])
                assert pi[i] == want[i], (x, keys[i])
            for j, ((value, count, ledger), (lo, hi, want)) in enumerate(zip(levels, exact), 1):
                # computed <= 2^F S_j(x) <= computed + ledger, and the exact tuple count
                assert value << BOUND_GUARD <= lo[-1], (precision, j, x)
                assert hi[-1] <= (value + ledger) << BOUND_GUARD, (precision, j, x)
                assert count == want[-1], (j, x)

    @pytest.mark.parametrize("x", [999, 65_537])
    def test_worst_case_level1_within_ledger(self, x, primes_1e6):
        # level-1 tables at either end of what the walk may be given, T within e of 2^F S_1:
        # e below the exact ceiling at every key and e above the exact floor at the primes
        # q <= sqrt(x), where each difference T(x // n) - (T(q) + 2e) is 4e low; and e above
        # the exact floor at every key and e below the ceiling at the primes q, where only
        # the + 2e keeps each difference from its true value
        frac_bits = sums.fixed_point_params(64)
        ks = KeySpace.build(x)
        exact = _exact_levels(1, x, primes_1e6)[0]
        scaled = [exact[v] * 2**frac_bits for v in ks.keys.tolist()]
        small_primes = primes_1e6.primes[: primes_1e6.count_upto(ks.sqrt_x)].tolist()
        _, pi, _ = _level_one_at_every_key(ks, small_primes, frac_bits)
        e = 2 ** (frac_bits - 8)  # far above every floor the level drops
        low = [math.ceil(t) - e for t in scaled]
        high = [math.floor(t) + e for t in scaled]
        for q in small_primes:
            low[q - 1] = math.floor(scaled[q - 1]) + e
            high[q - 1] = math.ceil(scaled[q - 1]) - e
        omega, tuples = _shape_arrays(x)
        exact_at_x = _exact_bounds(4, [x], omega, tuples, frac_bits + BOUND_GUARD)[1:]
        for table in (low, high):
            # each level's own ledger with e
            walk = _walk(ks, small_primes, table, pi, e, frac_bits, 4)
            for j, ((value, count, bound), (lo, hi, want)) in enumerate(zip(walk, exact_at_x), 2):
                assert value << BOUND_GUARD <= lo[0], (j, x)
                assert hi[0] <= (value + bound) << BOUND_GUARD, (j, x)
                assert count == want[0], (j, x)

    @pytest.mark.parametrize("x", [999, 10**6])
    def test_ledger_formula(self, x, primes_1e6):
        # level 1: 2e; level j: ceil(4e W_j / 2^F) + ceil(L_j / 2^G) + 1, G = INIT_GUARD_BITS,
        # with W_j and L_j as _walk_weights counts them; and the exact sum of c(m) j / m over
        # level j's prefixes m is at most j S_{j-1}(x).  At 12 fractional bits each rounding
        # of the weights moves the ledger
        ks = KeySpace.build(x)
        small = primes_1e6.primes[: primes_1e6.count_upto(ks.sqrt_x)].tolist()
        omega, shapes = _shape_arrays(x)
        for frac_bits in (12, sums.fixed_point_params(80)):
            _, _, e = _level_one_at_every_key(ks, small, frac_bits)
            levels = _levels(ks, primes_1e6.primes, frac_bits, 4)
            assert levels[0][2] == 2 * e
            bits = frac_bits + BOUND_GUARD
            exact = _exact_bounds(3, [x], omega, shapes, bits)
            for j, (weights, big_w, loss) in _walk_weights(x, small, frac_bits, 4).items():
                assert levels[j - 1][2] == (math.ceil(Fraction(4 * e * big_w, 2**frac_bits))
                                            - (-loss >> sums.INIT_GUARD_BITS) + 1), (j, x)
                # sum of c(m) j / m <= j S_{j-1}(x), through a lower bound of S_{j-1}(x)
                lo = exact[j - 2][0][0]
                assert sum(math.ceil(c * 2**bits) for c in weights) <= j * lo, (j, x)

    @pytest.mark.parametrize("x", [999, 65_537])
    def test_walk_without_guard_bits(self, x, primes_1e6, monkeypatch):
        # with no guard bits every floor and ceiling of the walk shows.  Given a table T and
        # e = 0, level j is at most the exact prefix sum of T, the sum over its prefixes m = n q
        # of c(m) j (T(x // m) - T(q)) / m + 2^F c(m q) / (m q), and below it by at most the
        # loss counter L_j; the ledger is L_j + 1.
        # T is a multiple of every prime up to sqrt(x), so its reads divide exactly, but at
        # those primes q, where T(q) is -1 mod q: rounding T(q) / q the wrong way gains most
        ks = KeySpace.build(x)
        keys = ks.keys.tolist()
        small = primes_1e6.primes[: primes_1e6.count_upto(ks.sqrt_x)].tolist()
        lcm = math.prod(small)
        frac_bits = lcm.bit_length() + 32
        _, pi, _ = _level_one_at_every_key(ks, small, frac_bits)
        exact = _exact_levels(1, x, primes_1e6)[0]
        t = [math.floor(exact[v] * 2**frac_bits / lcm) * lcm for v in keys]
        for q in small:
            t[q - 1] -= 1
        monkeypatch.setattr(sums, "INIT_GUARD_BITS", 0)
        walk = _walk(ks, small, t, pi, 0, frac_bits, 4)
        at = {v: i for i, v in enumerate(keys)}
        totals = dict.fromkeys((2, 3, 4), Fraction(0))
        for n, prefix, children in _parents(x, small, 4):
            j = len(prefix) + 2
            for q in children:
                m = n * q
                totals[j] += (Fraction(_ordered((*prefix, q)) * j * (t[at[x // m]] - t[q - 1]), m)
                              + Fraction(_ordered((*prefix, q, q)) << frac_bits, m * q))
        for (j, (_, _, loss)), (value, _, ledger) in zip(
                _walk_weights(x, small, frac_bits, 4).items(), walk):
            assert ledger == loss + 1, (j, x)
            assert value <= totals[j], (j, x)
            assert totals[j] - value <= loss, (j, x)


def _ordered(tup: tuple) -> int:
    """The ordered prime tuples with the product of ``tup``: len(tup)! / prod e_i!."""
    return math.factorial(len(tup)) // math.prod(math.factorial(tup.count(p)) for p in set(tup))


def _parents(x: int, small: list[int], k: int):
    """(n, prefix, children) of each parent of the walk's prefixes of levels 2..k.

    ``prefix`` is a sorted tuple of at most k - 2 primes with product n, and
    ``children`` the primes q >= its last with n q^2 <= x: each gives the
    level-(len(prefix) + 2) prefix (*prefix, q).  Only parents with children
    are listed.  Enumerated from the definition, not from the walk.
    """
    stack = [(1, ())]
    while stack:
        n, prefix = stack.pop()
        children = [q for q in small if q >= (prefix[-1] if prefix else 0) and n * q * q <= x]
        if children:
            yield n, prefix, children
        if len(prefix) < k - 2:
            stack += [(n * q, (*prefix, q)) for q in children]


def _walk_weights(x: int, small: list[int], frac_bits: int, k: int) -> dict:
    """{j: (weights, W_j, L_j)} for levels 2..k of the prefix walk.

    ``weights`` holds c(m) j / m for each prefix m of level j.  Each parent n
    (:func:`_parents`), over all its children m = n q with weights w = c(m) j
    and leaves c(m q), gives ceil(sum_q w ceil(2^F / q) / n) in W_j and
    ceil(sum_q (2 w + c(m q)) / n) + 1 in the loss counter L_j, in guard units.
    """
    levels = {j: ([], 0, 0) for j in range(2, k + 1)}
    for n, prefix, children in _parents(x, small, k):
        j = len(prefix) + 2
        weights, big_w, loss = levels[j]
        w = [_ordered((*prefix, q)) * j for q in children]
        leaves = [_ordered((*prefix, q, q)) for q in children]
        weights += [Fraction(wq, n * q) for wq, q in zip(w, children)]
        big_w += math.ceil(Fraction(sum(wq * -((-1 << frac_bits) // q)
                                        for wq, q in zip(w, children)), n))
        loss += math.ceil(Fraction(2 * sum(w) + sum(leaves), n)) + 1
        levels[j] = weights, big_w, loss
    return levels


@pytest.fixture(scope="module")
def primes_1e7():
    return sieve(10**7 + 10**4)


def _lucy_stages(ks: KeySpace, small_primes: list[int], start: list[int], final):
    """(T, pi, e) of the Lucy sieve one stage at a time over plain lists, no batching.

    ``start`` holds the start values.  A read of a key w < p^2 at stage p
    takes ``final(w)``, the (T, pi) pair of a floor sum over the primes up
    to w, in place of the table.  Each stage walks the keys v >= p^2 from
    the top down, so v // p still holds the previous stage's values when
    read.
    """
    keys = ks.keys.tolist()
    t, pi, e = list(start), [v - 1 for v in keys], 2
    pos = {v: i for i, v in enumerate(keys)}
    for p in small_primes:
        low_t, low_pi = final(p - 1)
        for i in range(len(keys) - 1, -1, -1):
            if keys[i] < p * p:
                break
            w = keys[i] // p
            src_t, src_pi = final(w) if w < p * p else (t[pos[w]], pi[pos[w]])
            t[i] -= (src_t - low_t) // p
            pi[i] -= src_pi - low_pi
        e += math.ceil(Fraction(2 * e, p)) + 1
    return t, pi, e


class TestLevelOne:
    """The Lucy tables against test-local floor-sum and stage-by-stage references.

    The last two checks read level 1 at every key as a DP pass yields it.
    """

    # both sides of: the first start value above the harmonic switch (x = 2^12 + 1, and
    # x // 2 > 2^12); the switch max(sqrt_x (F+32) // 64, 2^12) leaving 2^12 at 1024, 192
    # and 64 bits (sqrt_x = 240, 994, 1928); x // sqrt_x == sqrt_x (perfect squares and
    # x = s (s + 1))
    XS = [2, 3, 4, 48, 49, 50, 4096, 4097, 8193, 8194, 57599, 57600, 988035, 988036, 999999,
          10**6, 1000001, 3717183, 3717184, 10**7, 3162 * 3163]

    @pytest.mark.parametrize("precision", [64, 192, 1024, 5000])
    def test_contains_floor_sum_interval(self, precision, primes_1e7):
        frac_bits = sums.fixed_point_params(precision)
        guard = 32  # reference at 2^(F+32): its interval is under one unit wide
        plist = primes_1e7.primes.tolist()
        cases = []
        # the 5000-bit reference and table take seconds beyond x = 10^6
        for x in (x for x in self.XS if precision <= 1024 or x <= 10**6):
            ks = KeySpace.build(x)
            small = plist[: primes_1e7.count_upto(ks.sqrt_x)]
            t, pi, e = _level_one_at_every_key(ks, small, frac_bits)
            cases.append((x, ks, t, pi.tolist(), e))
        # sum of floor(2^(F+32) / p) over the first `count` primes, at every count needed
        wanted = sorted({count for *_, pi, _ in cases for count in pi})
        at = np.zeros(len(plist) + 1, dtype=bool)
        at[wanted] = True
        one = 1 << (frac_bits + guard)
        floors = dict(zip(wanted, compress(accumulate((one // p for p in plist), initial=0),
                                           at.tolist())))
        for x, ks, t, pi, e in cases:
            want_pi = np.searchsorted(primes_1e7.primes, ks.keys, side="right").tolist()
            assert pi == want_pi, x
            for v, tv, count in zip(ks.keys.tolist(), t, pi):
                lo = floors[count]  # 2^(F+32) S_1(v) lies in [lo, lo + pi(v))
                assert (tv - e) << guard <= lo and lo + count <= (tv + e) << guard, (x, v)

    # both sides of q^3 for every q <= 47: the head/tail split moves there
    SPLIT = [q**3 + d for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
             for d in (-1, 0, 1)]
    # both sides of m^3, where y0 = floor(x^(2/3)) is m^2
    CUBES = [m**3 + d for m in range(2, 61) for d in (-1, 0, 1)]

    @pytest.mark.parametrize("precision", [64, 192])
    def test_matches_stage_by_stage_sieve(self, precision, primes_1e4):
        # the demand-pruned head with final values below p^2, and the tail stages p^3 > x
        # taken together per top key, give the sequential integers at every top key
        frac_bits = sums.fixed_point_params(precision)
        one = 1 << (frac_bits + 32)
        plist = primes_1e4.primes.tolist()
        floors = list(accumulate((one // p for p in plist), initial=0))

        def final(w):
            count = bisect_right(plist, w)
            return floors[count] >> 32, count

        for x in sorted({*range(1, 2001), *self.SPLIT, *self.CUBES, 10**6 + 3}):
            ks = KeySpace.build(x)
            assert _cutoff(x) <= primes_1e4.limit, x  # final() counts the primes up to y0
            low = len(ks) - x // (_cutoff(x) + 1)  # the keys up to y0
            small = plist[: bisect_right(plist, ks.sqrt_x)]
            start = _start_values(ks, small, frac_bits, range(len(ks)))
            want_t, want_pi, want_e = _lucy_stages(ks, small, start, final)
            t, pi, e = _level_one_at_every_key(ks, small, frac_bits)
            assert (t[low:], pi.tolist(), e) == (want_t[low:], want_pi, want_e), x
            assert t[:low] == [final(v)[0] for v in ks.keys[:low].tolist()], x
            t, pi, e = _level_one(ks, small, frac_bits, _cutoff(x), [len(ks) - 1])
            assert (t[-1], pi[-1], e) == (want_t[-1], want_pi[-1], want_e), x

    # both sides of the harmonic switch max(sqrt_x (F+32) // 64, 2^12) leaving 2^12 (XS)
    @pytest.mark.parametrize("precision, x", [
        *((64, x) for x in (4097, 1928**2 - 1, 1928**2)),
        *((192, x) for x in (4097, 994**2 - 1, 994**2, 10**6 + 3, 9_970_000)),
        *((1024, x) for x in (4097, 240**2 - 1, 240**2)),
    ])
    def test_start_values_against_harmonic(self, precision, x):
        # within 2 units of floor(2^F (H_v - 1)) at every key, whichever keys are wanted
        frac_bits = sums.fixed_point_params(precision)
        ks = KeySpace.build(x)
        keys, small_primes = ks.keys.tolist(), sieve(ks.sqrt_x).primes.tolist()
        start = _start_values(ks, small_primes, frac_bits, range(len(ks)))
        small = bisect_right(keys, 1 << 12)
        harmonic = list(accumulate((Fraction(1, n) for n in range(2, keys[small - 1] + 1)),
                                   initial=Fraction(0)))  # H_v - 1 exactly, v <= 2^12
        want = [math.floor(harmonic[v - 1] * 2**frac_bits) for v in keys[:small]]
        with mp.workprec(frac_bits + 64):
            want += [int(mp.floor(mp.ldexp(mp.harmonic(v) - 1, frac_bits)))
                     for v in keys[small:]]
        assert all(abs(a - b) <= 2 for a, b in zip(start, want)), max(
            (abs(a - b), v) for a, b, v in zip(start, want, keys))
        chosen = sorted(random.Random(x).sample(range(len(ks)), len(ks) // 3))
        some, chosen = _start_values(ks, small_primes, frac_bits, chosen), set(chosen)
        assert some == [start[i] if i in chosen else 0 for i in range(len(ks))]

    @pytest.mark.parametrize("x", [2, 50, 8194, 10**7])
    def test_error_bound_recurrence(self, x, primes_1e7):
        # e starts at 2 units and grows per prime p <= sqrt(x) by ceil(2e/p) + 1
        ks = KeySpace.build(x)
        small = primes_1e7.primes[: primes_1e7.count_upto(ks.sqrt_x)].tolist()
        want = 2
        for p in small:
            want += math.ceil(Fraction(2 * want, p)) + 1
        assert _level_one_at_every_key(ks, small, sums.fixed_point_params(64))[2] == want

    def test_primes_only_to_sqrt_x(self, primes_1e7):
        # a table to isqrt(x) gives the same bits as one to x; one prime short is refused
        x = 3162**2 + 5
        assert sieve(3161).limit < math.isqrt(x) == 3162
        small, full = sk_fast(3, x, sieve(3162)), sk_fast(3, x, primes_1e7)
        assert (small.value, small.error_bound, small.terms) == (full.value, full.error_bound,
                                                                 full.terms)
        with pytest.raises(ParameterError):
            sk_fast(3, x, sieve(3161))

    @staticmethod
    def _ints(x, primes, frac_bits):
        """Level 1 at every key of KeySpace(x) as a DP pass yields it, as integers."""
        ks = KeySpace.build(x)
        small = primes.primes[: primes.count_upto(ks.sqrt_x)].tolist()
        t, _, e = _level_one_at_every_key(ks, small, frac_bits)
        return [max(v - e, 0) for v in t]

    def _table(self, x, primes, precision=192):
        """Level 1 at every key of KeySpace(x), as {key: mpf at ``precision`` bits}."""
        frac_bits = sums.fixed_point_params(precision)
        return {key: sums._fixed_value_bound(val, 0, frac_bits, precision)[0]
                for key, val in zip(KeySpace.build(x).keys.tolist(),
                                    self._ints(x, primes, frac_bits))}

    def test_keys_of_ten(self, primes_1e4):
        table = self._table(10, primes_1e4)
        expected = {
            1: Fraction(0),
            2: Fraction(1, 2),
            3: Fraction(5, 6),
            5: Fraction(31, 30),
            10: Fraction(247, 210),
        }
        assert set(table) == set(expected)
        with mp.workprec(300):
            for key, frac in expected.items():
                want = mpf(frac.numerator) / frac.denominator
                assert abs(table[key] - want) < mpf(2) ** -180

    def test_entry_at_one_is_zero(self, primes_1e4):
        assert self._table(7, primes_1e4)[1] == 0


class TestDemandPrunedLevelOne:
    """At k = 1 the sieve runs only the stages T(x) needs; x must not notice.

    The k = 2 pass runs the stages its top keys x and x // p need.  Both passes
    set level 1 at x to max(T(x) - e, 0), so sk_levels adds only the ledger and
    the count to the sieve's T(x), pi(x) and e, which the next test (against
    every top key) and TestLevelOne::test_matches_stage_by_stage_sieve
    (x <= 2000) compare directly.
    """

    SQUARES = [p * p + d for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
                                   59, 61, 67, 71, 73, 79, 83, 89, 97) for d in (-1, 0, 1)]
    LARGE = [65_537, 10**6, 10**7 + 3]

    @pytest.mark.parametrize("precision", [64, 192])
    def test_sk_levels_match_full_pass(self, precision, primes_1e7):
        for x in sorted({*range(1, 401), *self.SQUARES, *self.LARGE}):
            pruned, full = (sk_levels(k, x, primes_1e7, precision)[0] for k in (1, 2))
            assert (pruned.value, pruned.error_bound, pruned.terms) == (
                full.value, full.error_bound, full.terms), (precision, x)

    @pytest.mark.parametrize("precision", [64, 192])
    def test_sieve_exact_at_x_and_table_zero_elsewhere(self, precision, primes_1e7):
        frac_bits = sums.fixed_point_params(precision)
        for x in sorted({*range(1, 201), *self.SQUARES, *self.LARGE}):
            ks = KeySpace.build(x)
            small = primes_1e7.primes[: primes_1e7.count_upto(ks.sqrt_x)].tolist()
            t, pi, e = _level_one(ks, small, frac_bits, _cutoff(x), [len(ks) - 1])
            want_t, want_pi, want_e = _level_one_at_every_key(ks, small, frac_bits)
            assert (t[-1], pi[-1], e) == (want_t[-1], want_pi[-1], want_e), (precision, x)
            low = len(ks) - x // (_cutoff(x) + 1)  # the keys up to y0, from the running sum
            assert t[low:-1] == pi[low:-1].tolist() == [0] * (len(ks) - low - 1), (precision, x)

    @pytest.mark.parametrize("x", [8, 27, 999, 65_537, 10**6])
    def test_head_reads_only_requested_start_values(self, x, primes_1e6, monkeypatch):
        # with None at every key outside ``want``, any other start value the head read would
        # raise or change (T, pi, e); the positions are those of k = 1..6 and every top key
        frac_bits = sums.fixed_point_params(192)
        ks = KeySpace.build(x)
        small = primes_1e6.primes[: primes_1e6.count_upto(ks.sqrt_x)].tolist()
        level_one, start_values, calls = sums._level_one, sums._start_values, []
        monkeypatch.setattr(sums, "_level_one", lambda *args: calls.append(args) or (
            level_one(*args)))
        for k in range(1, 7):
            _levels(ks, primes_1e6.primes, frac_bits, k)
        top = x // (_cutoff(x) + 1)
        calls.append(([ks], small, frac_bits, [_cutoff(x)], [list(range(len(ks) - top, len(ks)))]))
        plain = [[(t, pi.tolist(), e) for t, pi, e in level_one(*args)] for args in calls]

        def only_wanted(keyspaces, small_primes, frac_bits, wants):
            for want, values in zip(wants, start_values(keyspaces, small_primes, frac_bits, wants)):
                wanted = set(np.asarray(want).tolist())
                yield np.array([v if i in wanted else None for i, v in enumerate(values)],
                               dtype=object)

        monkeypatch.setattr(sums, "_start_values", only_wanted)
        for args, want in zip(calls, plain):
            tables = [(t, pi.tolist(), e) for t, pi, e in level_one(*args)]
            assert tables == want, (x, len(args[-1][0]))

    def test_demand_pass_width(self, primes_1e4, monkeypatch):
        # at k = 1 the head wants start values at 9,457 of the 19,968 keys of x = 99,700,000
        start_values, wants = sums._start_values, []
        monkeypatch.setattr(sums, "_start_values", lambda *args: wants.extend(
            map(len, args[-1])) or start_values(*args))
        ks = KeySpace.build(99_700_000)
        _levels(ks, primes_1e4.primes, sums.fixed_point_params(192), 1)
        assert (wants, len(ks)) == ([9457], 19_968)

    def test_one_sieve_per_pass(self, primes_1e6, monkeypatch):
        # at x = 10^6 and 192 bits the top keys lie above the harmonic switch (4,125), so
        # the start values factor n = x // v from the primes the pass already holds
        calls = []
        monkeypatch.setattr(sums, "sieve", lambda limit: calls.append(limit) or sieve(limit))
        sk_levels(1, 10**6, primes_1e6, 192)
        assert calls == [10**4]


def _fields(levels) -> list[tuple]:
    """What a sweep and a per-point pass must share: every field of each level but elapsed."""
    return [(r.k, r.x, r.value, r.error_bound, r.terms, r.method) for r in levels]


class TestSweep:
    """A sweep plans each x and fills level 1 once; each x must not notice the others.

    The shared sieve, running sums, harmonic stream and start-value tables
    depend on a key and F alone, so every value, error_bound and terms is
    equal, not merely within ledgers, to a pass over that x alone.
    """

    SWEEP = GridSpec(1000, 2_006_000, 13).values()  # the sweep workload's grid
    # unsorted, with a repeat: points below 2^k, both sides of the harmonic switch leaving
    # 2^12 (4096, 8193: x // 2 > 2^12) and, at 1024 bits, of sqrt_x (F+32) // 64 leaving it
    # (sqrt_x = 239 and 240); points whose y0 lies below other points' keys and above them
    MIXED = [4097, 1, 63, 10**6, 4095, 2, 4096, 8193, 64, 240**2 - 1, 999, 240**2, 3,
             65_537, 8193, 2_006_000, 50]

    @pytest.mark.parametrize("precision", [64, 192, 1024])
    @pytest.mark.parametrize("k", range(1, 7))
    def test_mixed_grid_matches_per_point_passes(self, k, precision, primes_1e4):
        sweep = list(sums._sk_grid(k, self.MIXED, primes_1e4, precision))
        assert len(sweep) == len(self.MIXED)
        for x, levels in zip(self.MIXED, sweep):
            assert _fields(levels) == _fields(sk_levels(k, x, primes_1e4, precision)), (k, x)

    @pytest.mark.parametrize("k, precision", [(4, 192), (6, 64), (6, 1024)])
    def test_sweep_grid_matches_per_point_passes(self, k, precision, primes_1e4):
        sweep = sums._sk_grid(k, self.SWEEP, primes_1e4, precision)
        for x, levels in zip(self.SWEEP, sweep):
            assert _fields(levels) == _fields(sk_levels(k, x, primes_1e4, precision)), x

    def test_one_point_grid_is_sk_levels(self, primes_1e4):
        for x in (1, 4097, 10**6):
            [levels] = sums._sk_grid(3, [x], primes_1e4, 192)
            assert _fields(levels) == _fields(sk_levels(3, x, primes_1e4, 192)), x

    def test_one_sieve_per_sweep(self, primes_1e4, monkeypatch):
        # one sieve, up to the largest y0
        calls = []
        monkeypatch.setattr(sums, "sieve", lambda limit: calls.append(limit) or sieve(limit))
        list(sums._sk_grid(4, self.SWEEP, primes_1e4, 192))
        assert calls == [_cutoff(2_006_000)] == [15_905]

    def test_sweep_leaves_no_cycles(self, primes_1e4):
        gc.collect()
        gc.disable()
        try:
            list(sums._sk_grid(4, self.SWEEP, primes_1e4, 192))
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_checks_every_x_before_any_work(self, primes_1e4, monkeypatch):
        monkeypatch.setattr(sums, "_levels", None)  # any work would call it
        with pytest.raises(CapacityError, match="x=10000000001 exceeds"):
            next(sums._sk_grid(2, [1000, FAST_MAX_X + 1], primes_1e4))
        with pytest.raises(DomainError, match="x must be >= 1, got 0"):
            next(sums._sk_grid(2, [1000, 0], primes_1e4))
        with pytest.raises(ParameterError):
            next(sums._sk_grid(2, [1000, 10**9], primes_1e4))

    def test_harmonic_switch_under_2_24_at_the_caps(self):
        # _start_values' error budget holds while the switch max(sqrt_x (F+32) // 64, 2^12)
        # stays under 2^24; a sweep's one harmonic stream runs to its largest x's switch, so a
        # larger FAST_MAX_X or MAX_PRECISION must re-derive the budget first
        bits = sums.fixed_point_params(MAX_PRECISION) + sums.INIT_GUARD_BITS
        assert max(math.isqrt(FAST_MAX_X) * bits // 64, 1 << 12) < 1 << 24


class TestOracleEquivalence:
    def test_small_grid(self, primes_1e4):
        # the acceptance suite runs the full x <= 2000 grid; this keeps a
        # fast cross-section in the unit tier
        with mp.workprec(256):
            for x in list(range(2, 200)) + [517, 1024, 1997]:
                for k in (1, 2, 3):
                    d = sk_direct(k, x, primes_1e4)
                    f = sk_fast(k, x, primes_1e4)
                    assert abs(d.value - f.value) < mpf(10) ** -15
                    assert d.terms == f.terms


class TestPublishedCounts:
    """terms against published counts, with no code of the package on the reference side.

    At k = 1, terms is pi(10^n).  At k = 2 it is 2 A066265(n) - pi(isqrt(10^n)): every
    semiprime pq with p != q is two ordered pairs, and every p^2 one.
    """

    PI = {3: 168, 4: 1229, 5: 9592, 6: 78498, 7: 664579, 8: 5761455, 9: 50847534}
    PI_SQRT = {3: 11, 4: 25, 5: 65, 6: 168, 7: 446, 8: 1229, 9: 3401}
    SEMIPRIMES = {3: 299, 4: 2625, 5: 23378, 6: 210035, 7: 1904324, 8: 17427258,
                  9: 160788536}  # OEIS A066265

    @pytest.mark.parametrize("n", range(3, 10))
    def test_terms(self, n):
        x = 10**n
        primes = sieve(math.isqrt(x))
        s1, s2 = sk_levels(2, x, primes, precision=64)
        assert s1.terms == self.PI[n]
        assert sk_levels(1, x, primes, precision=64)[0].terms == self.PI[n]  # demand-pruned
        assert s2.terms == 2 * self.SEMIPRIMES[n] - self.PI_SQRT[n]


class TestEngineInternals:
    def test_fixed_point_params(self):
        assert sums.fixed_point_params(192) == 232
        for precision in (64, 80, 192, 1000):
            frac_bits = sums.fixed_point_params(precision)
            assert frac_bits == precision + sums.LEDGER_MARGIN + sums.HEADROOM_BITS
