import math
import random
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

    @pytest.mark.parametrize("precision", [64, 80, 192])
    def test_one_sided_against_exact(self, precision, primes_1e4, monkeypatch):
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
            for k in (1, 2, 3, 4):
                exact = sk_direct(k, x, primes_1e4, exact=True)
                # the fixed-point table, in units of 2^-frac_bits, before any mpf rounding
                frac_bits = sums.fixed_point_params(precision)
                *_, (vals, _, ledger) = sums._levels(ks, plist, frac_bits, k)
                assert 0 <= exact.value * 2**frac_bits - vals[-1] <= ledger, (k, x)

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

    def test_precisions_agree_within_ledgers(self, primes_1e4):
        _assert_precisions_agree(10**7 + 19, primes_1e4)

    @pytest.mark.slow
    def test_precisions_agree_within_ledgers_at_1e10(self):
        _assert_precisions_agree(10**10, sieve(10**5))


def _assert_precisions_agree(x: int, primes):
    """sk_levels(6, x) at 64 and 1024 bits: each value within the other's bound, equal terms.

    Both values sit at most their error_bound below S_j(x), so each lies
    within the other's bound, up to its own rounding to the working precision.
    """
    low, high = (sk_levels(6, x, primes, precision) for precision in (64, 1024))
    for a, b in zip(low, high):
        va, vb = _to_fraction(a.value), _to_fraction(b.value)
        assert vb - va <= _to_fraction(a.error_bound) + vb / 2 ** (1024 + 16), a.k
        assert va - vb <= _to_fraction(b.error_bound) + va / 2 ** (64 + 16), a.k
        assert a.terms == b.terms, a.k


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
        level1, _, ledger = next(sums._levels(ks, sieve(ks.sqrt_x).primes, frac_bits, 2))
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


def _cutoff(x: int) -> int:
    """The running-sum cutoff y0 = max(floor(x^(2/3)), isqrt(x)) of _levels."""
    y0 = round((x * x) ** (1 / 3))
    y0 -= y0**3 > x * x
    y0 += (y0 + 1) ** 3 <= x * x
    return max(y0, math.isqrt(x))


def _dense_levels(k: int, x: int, primes, frac_bits: int):
    """Levels 1..k of the DP with every level filled at every key.

    Keys up to y0 are running sums of tuple counts, as in _levels; every key
    above y0 takes a hyperbola step.
    """
    ks = KeySpace.build(x)
    keys, s = ks.keys.tolist(), ks.sqrt_x
    low = ks.keys[ks.keys <= _cutoff(x)]
    plist = primes.primes[: primes.count_upto(x)]
    level1, pi, ledger = next(sums._levels(ks, plist, frac_bits, 2))  # k = 1 fills only x
    e = ledger // 2  # level 1's ledger is twice its two-sided error
    small_primes = plist[: pi[s - 1]].tolist()
    omega, tuples = _shape_arrays(_cutoff(x))
    levels = [(level1, pi)]
    for j in range(2, k + 1):
        steps = np.flatnonzero(omega[: s + 1] == j - 1)  # the b of the grouped part
        vals, counts = sums._advance(ks, keys, range(low.size, len(keys)), small_primes, level1,
                                     pi, e, *levels[-1], steps.tolist(), tuples[steps].tolist())
        n = np.flatnonzero(omega == j)
        vals[: low.size], counts[: low.size] = sums._running_sums(n, tuples[n], low, frac_bits)
        levels.append((vals, counts))
    return levels


class TestDemandDrivenLevels:
    """_levels fills only the keys the next level reads; the tops must not notice."""

    # both sides of perfect squares and of the x // (sqrt_x + 1) switch
    @pytest.mark.parametrize("x", [2, 3, 4, 48, 49, 50, 1000, 65_537, 10**6])
    def test_tops_match_dense_pass(self, x, primes_1e6):
        frac_bits = sums.fixed_point_params(192)
        dense = _dense_levels(6, x, primes_1e6, frac_bits)
        dense_tops = [(vals[-1], counts[-1]) for vals, counts in dense]
        ks = KeySpace.build(x)
        plist = primes_1e6.primes[: primes_1e6.count_upto(x)]
        for k in range(1, 7):
            levels = sums._levels(ks, plist, frac_bits, k)
            assert [(vals[-1], counts[-1]) for vals, counts, _ in levels] == dense_tops[:k], (k, x)


class TestTupleCounts:
    """Omega(n) and the ordered tuple counts up to y0, the running sums' input."""

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
        y0 = _cutoff(x)
        small = primes_1e6.primes[: primes_1e6.count_upto(math.isqrt(x))].tolist()
        omega, tuples = sums._tuple_counts(y0, small)
        want_omega, want_tuples = _shape_arrays(y0)
        assert omega[1:].tolist() == want_omega[1:].tolist(), x  # n = 0 is no product
        assert tuples[1:].tolist() == want_tuples[1:].tolist(), x
        # composites 2q with q a prime above isqrt(y0) = x^(1/3), left in the cofactor
        cofactor = [q for q in range(math.isqrt(y0) + 1, y0 // 2 + 1) if want_omega[q] == 1]
        assert bool(cofactor) == (x > 2), x


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
    """Each level's ledger bounds true - computed at every key, not only at x."""

    @pytest.mark.parametrize("x", [2, 16, 48, 210, 361, 600, 999])
    @pytest.mark.parametrize("precision", [64, 192])
    def test_dense_levels_against_exact(self, x, precision, primes_1e4):
        frac_bits = sums.fixed_point_params(precision)
        keys = KeySpace.build(x).keys.tolist()
        ledgers = [ledger for *_, ledger in sums._levels(KeySpace.build(x), primes_1e4.primes,
                                                         frac_bits, 4)]
        dense = _dense_levels(4, x, primes_1e4, frac_bits)
        for (vals, _), exact, ledger in zip(dense, _exact_levels(4, x, primes_1e4), ledgers):
            for v, computed in zip(keys, vals):
                assert 0 <= exact[v] * 2**frac_bits - computed <= ledger, (x, v)

    @pytest.mark.parametrize("x", [2, 3, 4, 16, 48, 49, 50, 210, 361, 600, 999, 4096, 9999,
                                   65_537, 10**6])
    def test_filled_entries_against_exact(self, x, primes_1e6):
        # at k = 5, _levels fills every key of level 1; at level 1 < j < 5 every key up
        # to y0 by running sums and the top keys x // n > y0 with Omega(n) <= 5 - j; and
        # x at level 5.  9999 has y0 = 464 and top keys for n <= 21.
        ks = KeySpace.build(x)
        keys, nk = ks.keys.tolist(), len(ks)
        top = x // (_cutoff(x) + 1)
        omega, tuples = _shape_arrays(x)
        for precision in (64, 192):
            frac_bits = sums.fixed_point_params(precision)
            exact = _exact_bounds(5, keys, omega, tuples, frac_bits + BOUND_GUARD)
            levels = sums._levels(ks, primes_1e6.primes, frac_bits, 5)
            for j, ((vals, counts, ledger), (lo, hi, want)) in enumerate(zip(levels, exact), 1):
                tops = [nk - n for n in range(1, top + 1) if omega[n] <= 5 - j]
                filled = range(nk) if j == 1 else [nk - 1] if j == 5 else [*range(nk - top), *tops]
                for i in filled:
                    # computed <= 2^F S_j <= computed + ledger, and the exact tuple count
                    assert vals[i] << BOUND_GUARD <= lo[i], (precision, j, x, keys[i])
                    assert hi[i] <= (vals[i] + ledger) << BOUND_GUARD, (precision, j, x, keys[i])
                    assert counts[i] == want[i], (j, x, keys[i])
                    if 1 < j < 5 and i < nk - top:  # running sums of tuple counts
                        assert hi[i] < (vals[i] + 2) << BOUND_GUARD, (precision, j, x, keys[i])

    @pytest.mark.parametrize("x", [999, 65_537])
    def test_worst_case_level1_within_ledger(self, x, primes_1e6):
        # level-1 tables at either end of what the grouped part may be given: 2e
        # below the exact floor at every v // b and exact at r, where each
        # difference is 4e low; and exact at every v // b and 2e below the
        # ceiling at r, where only the + 2e keeps each difference from its true value
        frac_bits = sums.fixed_point_params(64)
        ks = KeySpace.build(x)
        nk, s, r = len(ks), ks.sqrt_x, math.isqrt(x)
        exact = _exact_levels(1, x, primes_1e6)[0]
        scaled = [exact[v] * 2**frac_bits for v in ks.keys.tolist()]
        level1, pi, ledger = next(sums._levels(ks, primes_1e6.primes, frac_bits, 2))
        e = 2 ** (frac_bits - 8)  # far above every floor the level drops
        low = [math.floor(t) - 2 * e for t in scaled]
        low[r - 1] += 2 * e
        high = [math.floor(t) for t in scaled]
        high[r - 1] = math.ceil(scaled[r - 1]) - 2 * e
        small_primes = primes_1e6.primes[: pi[s - 1]].tolist()
        s2 = sum(Fraction(exact[x // p], p) for p in primes_1e6.primes.tolist() if p <= x)
        # the step's own ledger with e, and level 1's true error in the per-prime part
        bound = sums.truncation_error_ledger(2 * e, level1[-1] + ledger, len(small_primes), e,
                                             level1[s - 1] + ledger, frac_bits)
        for table in (low, high):
            out, _ = sums._advance(ks, ks.keys.tolist(), [nk - 1], small_primes, table, pi, e,
                                   level1, pi, small_primes, [1] * len(small_primes))
            assert 0 <= s2 * 2**frac_bits - out[-1] <= bound, x

    @pytest.mark.parametrize("x", [999, 10**6])
    def test_ledger_formula(self, x, primes_1e6):
        # level 1: 2e; each next level: ledger * S_1 upper + pi(sqrt x)
        # + 4e * S_{j-1}(sqrt x) upper + 2
        frac_bits = sums.fixed_point_params(80)
        unit = Fraction(1, 2**frac_bits)
        ks = KeySpace.build(x)
        s = ks.sqrt_x
        small = primes_1e6.primes[: primes_1e6.count_upto(s)].tolist()
        _, _, e = sums._level_one(ks, small, frac_bits)
        levels = list(sums._levels(ks, primes_1e6.primes, frac_bits, 4))
        assert levels[0][2] == 2 * e
        s1_upper = levels[0][0][-1] + 2 * e
        for (prev, _, ledger), (_, _, nxt) in zip(levels, levels[1:]):
            want = (math.ceil(ledger * s1_upper * unit) + len(small)
                    + math.ceil(4 * e * (prev[s - 1] + ledger) * unit) + 2)
            assert nxt == want


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

    The last two checks read level 1 as a k = 2 DP pass yields it.
    """

    # both sides of: the first Euler-Maclaurin key (x // 2 > 2^12); the switch
    # max(sqrt_x (F+32)/32, 2^12) leaving 2^12 at 1024, 192 and 64 bits (sqrt_x = 120, 497,
    # 964); x // sqrt_x == sqrt_x (perfect squares and x = s (s + 1))
    XS = [2, 3, 4, 48, 49, 50, 8193, 8194, 8195, 14399, 14400, 247008, 247009, 929295,
          929296, 999999, 10**6, 1000001, 10**7, 3162 * 3163]

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
            cases.append((x, ks, *sums._level_one(ks, small, frac_bits)))
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
        harmonic = [0, *accumulate((one // n for n in range(2, 1 << 12)), initial=0)]
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
            if x < len(harmonic):
                start = [harmonic[v] >> 32 for v in ks.keys.tolist()]
            else:
                start = sums._start_values(ks, frac_bits)
            want_t, want_pi, want_e = _lucy_stages(ks, small, start, final)
            t, pi, e = sums._level_one(ks, small, frac_bits)
            assert (t[low:], pi, e) == (want_t[low:], want_pi, want_e), x
            assert t[:low] == [final(v)[0] for v in ks.keys[:low].tolist()], x
            t, pi, e = sums._level_one(ks, small, frac_bits, only_x=True)
            assert (t[-1], pi[-1], e) == (want_t[-1], want_pi[-1], want_e), x

    @pytest.mark.parametrize("x", [2, 50, 8194, 10**7])
    def test_error_bound_recurrence(self, x, primes_1e7):
        # e starts at 2 units and grows per prime p <= sqrt(x) by ceil(2e/p) + 1
        ks = KeySpace.build(x)
        small = primes_1e7.primes[: primes_1e7.count_upto(ks.sqrt_x)].tolist()
        want = 2
        for p in small:
            want += math.ceil(Fraction(2 * want, p)) + 1
        assert sums._level_one(ks, small, sums.fixed_point_params(64))[2] == want

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
        """Level 1 of a k = 2 DP pass over KeySpace(x) at every key, as integers.

        A k = 1 pass fills level 1 only at x.
        """
        return next(sums._levels(KeySpace.build(x), primes.primes, frac_bits, 2))[0]

    def _table(self, x, primes, precision=192):
        """Level 1 at every key of KeySpace(x), as {key: mpf at ``precision`` bits}."""
        frac_bits = sums.fixed_point_params(precision)
        return {key: sums._fixed_to_mpf(val, frac_bits, precision)
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

    The k = 2 pass runs the stages every top key needs.  Both passes set level 1 at
    x to max(T(x) - e, 0), so sk_levels adds only the ledger and the count to
    the sieve's T(x), pi(x) and e, which the next test and
    TestLevelOne::test_matches_stage_by_stage_sieve (x <= 2000) compare
    directly.
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
            t, pi, e = sums._level_one(ks, small, frac_bits, only_x=True)
            want_t, want_pi, want_e = sums._level_one(ks, small, frac_bits)
            assert (t[-1], pi[-1], e) == (want_t[-1], want_pi[-1], want_e), (precision, x)
            (vals, counts, _), = sums._levels(ks, primes_1e7.primes, frac_bits, 1)
            assert vals[:-1] == counts[:-1] == [0] * (len(ks) - 1), (precision, x)


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
