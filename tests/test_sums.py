import math
import random
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from mertens_sums import sums
from mertens_sums.bigreal import MAX_PRECISION
from mertens_sums.errors import CapacityError, DomainError, ParameterError
from mertens_sums.sums import (
    FAST_MAX_X,
    KeySpace,
    prime_recip_table,
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

    def test_capacity_and_parameters(self, primes_1e4, primes_1e6, monkeypatch):
        with pytest.raises(CapacityError):
            sk_fast(2, 10**11, primes_1e4)
        with pytest.raises(ParameterError):
            sk_fast(2, 100_000, primes_1e4)
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
        monkeypatch.setattr(sums, "MEMORY_BUDGET_BYTES", 1024)
        with pytest.raises(CapacityError):
            sk_fast(2, 70_000, primes_1e6)

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
                tops = []
                for vals, _ in sums._levels(ks, plist, frac_bits, k):
                    tops.append(vals[-1])
                ledger = sums.truncation_error_ledger(len(plist), tops, frac_bits)
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


def _dense_levels(k: int, x: int, primes, frac_bits: int):
    """Levels 1..k of the grouped-quotient DP, with every level filled at every key."""
    ks = KeySpace.build(x)
    keys = ks.keys.tolist()
    plist = primes.primes[: primes.count_upto(x)]
    level1, pi = next(sums._levels(ks, plist, frac_bits, 1))
    small_primes = plist[: pi[ks.sqrt_x - 1]].tolist()
    levels = [(level1, pi)]
    for _ in range(2, k + 1):
        levels.append(sums._advance(ks, keys, range(len(keys)), small_primes, level1, pi,
                                    *levels[-1], frac_bits))
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
            assert [(vals[-1], counts[-1]) for vals, counts in levels] == dense_tops[:k], (k, x)


def _seed_reference(counts, divisors, frac_bits: int) -> list[int]:
    """Per-divisor running sum of floor(2^frac_bits / p), read after counts[i] terms."""
    one = 1 << frac_bits
    prefix = [0, *accumulate(one // p for p in divisors)]
    return [prefix[c] for c in counts]


class TestSeedTable:
    @pytest.mark.parametrize("precision", [64, 80, 192, 1024, 5000])
    def test_matches_per_prime_reference(self, precision, primes_1e6):
        frac_bits = sums.fixed_point_params(precision)
        chunk = sums.SEED_CHUNK
        table = primes_1e6.primes[: chunk + 1]
        prefix = _seed_reference(range(chunk + 2), table.tolist(), frac_bits)
        # pi(x) just below, on and just above a block boundary of the cumulative sums
        for x in (int(table[chunk - 1]) - 1, int(table[chunk - 1]), int(table[chunk])):
            keys = KeySpace.build(x).keys
            plist = table[: primes_1e6.count_upto(x)]
            counts = np.searchsorted(plist, keys.astype(plist.dtype), side="right")
            assert sums.seed_table(counts, plist, frac_bits) == [prefix[c] for c in counts]

    @pytest.mark.parametrize("frac_bits", [104, 232])
    def test_divisors_beyond_32_bits(self, frac_bits):
        # divisors near FAST_MAX_X take 30-bit limbs; the seed needs only ascending divisors
        chunk = sums.SEED_CHUNK
        divisors = np.arange(FAST_MAX_X - 2 * (chunk + 9), FAST_MAX_X, 2, dtype=np.int64) + 1
        counts = np.array([0, 0, 1, 7, chunk - 1, chunk, chunk + 1, divisors.size])
        expected = _seed_reference(counts.tolist(), divisors.tolist(), frac_bits)
        assert sums.seed_table(counts, divisors, frac_bits) == expected

    def test_no_primes(self):
        counts = np.zeros(3, dtype=np.int64)
        assert sums.seed_table(counts, np.empty(0, dtype=np.uint32), 232) == [0, 0, 0]


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


class TestPrimeRecipTable:
    def test_keys_of_ten(self, primes_1e4):
        ks = KeySpace.build(10)
        table = prime_recip_table(ks, primes_1e4)
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

    def test_nondecreasing(self, primes_1e4):
        ks = KeySpace.build(997)
        table = prime_recip_table(ks, primes_1e4)
        vals = [table[k] for k in sorted(table)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_entry_at_one_is_zero(self, primes_1e4):
        assert prime_recip_table(KeySpace.build(7), primes_1e4)[1] == 0


class TestEngineInternals:
    def test_fixed_point_params(self):
        assert sums.fixed_point_params(192) == 232
        for precision in (64, 80, 192, 1000):
            frac_bits = sums.fixed_point_params(precision)
            assert frac_bits == precision + sums.LEDGER_MARGIN + sums.HEADROOM_BITS
