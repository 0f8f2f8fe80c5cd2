import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from mertens_sums import primes as primes_mod
from mertens_sums.constants import prime_zeta
from mertens_sums.errors import CapacityError, DomainError
from mertens_sums.primes import mobius, sieve

# Independent of the accelerated series: direct prime sum over p <= 1e8 plus
# an integral tail bracket certifies the first 8+ digits; the remaining
# digits pin the series against itself at doubled precision.
PRIME_ZETA_2 = "0.4522474200410654985065433648322479341732"


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


class TestPrimeZeta:
    def test_known_value_at_2(self):
        with mp.workprec(300):
            assert abs(prime_zeta(2, 224) - mpf(PRIME_ZETA_2)) < mpf(10) ** -38

    @pytest.mark.parametrize("s", range(2, 11))
    def test_direct_sum_bracketing(self, s, primes_1e6):
        # P(s) must sit within the direct-sum window [sum, sum + integral tail]
        with mp.workprec(260):
            direct = mpf(0)
            for p in primes_1e6.primes.tolist():
                direct += mpf(p) ** (-s)
            tail = mpf(10**6) ** (1 - s) / (s - 1)  # sum_{n>1e6} n^-s < tail
            val = prime_zeta(s, 192)
            assert direct <= val <= direct + tail

    def test_monotone_in_s(self):
        assert prime_zeta(2, 128) > prime_zeta(3, 128) > prime_zeta(4, 128)

    def test_dominated_term_bound_at_20(self):
        with mp.workprec(160):
            v = prime_zeta(20, 128)
            lead = mpf(2) ** -20 + mpf(3) ** -20
            assert abs(v - lead) < 2 * mpf(5) ** -20

    def test_domain_error_below_three_halves(self):
        with pytest.raises(DomainError):
            prime_zeta(1.4, 128)
        with pytest.raises(DomainError):
            prime_zeta(1, 128)

    def test_precision_consistency(self):
        with mp.workprec(300):
            lo = prime_zeta(2, 128)
            hi = prime_zeta(2, 192)
            assert abs(lo - hi) < mpf(2) ** -(128 - 4)

    def test_non_integer_argument(self):
        # s = 3/2 is the domain edge; the value is finite and positive
        v = prime_zeta(1.5, 96)
        assert 0.84 < float(v) < 0.85
