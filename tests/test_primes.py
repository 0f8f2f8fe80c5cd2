import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mertens_sums import primes as primes_mod
from mertens_sums.errors import CapacityError, DomainError
from mertens_sums.primes import mobius, sieve


def trial_division_primes(limit):
    """Second, independent sieve: plain trial division."""
    out = []
    for n in range(2, limit + 1):
        d = 2
        is_prime = True
        while d * d <= n:
            if n % d == 0:
                is_prime = False
                break
            d += 1
        if is_prime:
            out.append(n)
    return out


class TestSieve:
    def test_first_primes(self):
        table = sieve(30)
        assert table.primes.tolist() == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
        assert table.count == 10

    def test_empty_below_two(self):
        assert sieve(1).count == 0
        assert sieve(0).count == 0

    def test_pi_of_1e6(self, primes_1e6):
        assert primes_1e6.count == 78498

    def test_against_trial_division(self):
        expected = trial_division_primes(10_000)
        assert sieve(10_000).primes.tolist() == expected

    def test_segmentation_invisible(self, monkeypatch):
        # a tiny segment span must not change the output
        big = sieve(100_000)
        monkeypatch.setattr(primes_mod, "DEFAULT_SEGMENT_SPAN", 1 << 10)
        small_segs = sieve(100_000)
        assert np.array_equal(big.primes, small_segs.primes)

    @given(st.integers(min_value=0, max_value=3000), st.integers(min_value=0, max_value=3000))
    @settings(max_examples=40, deadline=None)
    def test_prefix_property(self, a, b):
        lo, hi = min(a, b), max(a, b)
        small, big = sieve(lo), sieve(hi)
        assert np.array_equal(big.primes[: small.count], small.primes)

    def test_limit_zero_and_negative(self):
        assert sieve(0).count == 0
        with pytest.raises(DomainError):
            sieve(-1)

    def test_capacity_ceiling(self):
        with pytest.raises(CapacityError):
            sieve(10**10)  # above the default configured maximum

    def test_count_upto(self, primes_1e6):
        assert primes_1e6.count_upto(10) == 4
        assert primes_1e6.count_upto(1) == 0
        assert primes_1e6.count_upto(2) == 1

    def test_iteration(self):
        assert list(sieve(10)) == [2, 3, 5, 7]


class TestMobius:
    @pytest.mark.parametrize(
        "n,expected",
        [(1, 1), (2, -1), (4, 0), (6, 1), (12, 0), (30, -1), (210, 1), (97, -1),
         # prime factors above 1024, and a prime above 10^6
         (1031 * 1033, 1), (1031**2, 0), (1031 * 1033 * 1039, -1),
         (1000003, -1), (2 * 1000003, 1), (1000003**2, 0)],
    )
    def test_values(self, n, expected):
        assert mobius(n) == expected

    def test_domain(self):
        with pytest.raises(DomainError):
            mobius(0)
        with pytest.raises(DomainError):
            mobius(-5)

    def test_squarefree_count_matches_brute_force(self):
        def squarefree(n):
            d = 2
            while d * d <= n:
                if n % (d * d) == 0:
                    return False
                d += 1
            return True

        n_max = 10_000
        from_mobius = sum(abs(mobius(n)) for n in range(1, n_max + 1))
        brute = sum(1 for n in range(1, n_max + 1) if squarefree(n))
        assert from_mobius == brute

    @given(st.integers(min_value=1, max_value=3000), st.integers(min_value=1, max_value=3000))
    @settings(max_examples=60, deadline=None)
    def test_multiplicative_on_coprime_pairs(self, a, b):
        import math

        if math.gcd(a, b) == 1:
            assert mobius(a * b) == mobius(a) * mobius(b)
