import math
from fractions import Fraction

import pytest
from mpmath import mp, mpf

from conftest import assert_close_digits, prime_log_series
from mertens_sums import constants as cn
from mertens_sums.bigreal import (
    DEFAULT_PRECISION,
    GUARD_BITS,
    check_precision,
    working_precision,
)
from mertens_sums.errors import CapacityError, DomainError, PrecisionNotMetError

# Frozen from the package's own series at 448 bits; independent anchors are
# exercised in the tests below (Euler-Maclaurin, direct prime sums, integral
# bracketing, mpmath).
ZETA_3 = "1.202056903159594285399738161511449990765"
G_AT_1 = "0.3157184520538900768510852514737065719906"
C_1 = "0.2614972128476427837554268386086958590516"
A_2 = "-1.311756143040507762154039030290780962560"
A_3 = "-0.2520158102045714131740236092525789122684"
A_4 = "3.996926673174995748040819082450525657227"


def euler_gamma_euler_maclaurin(precision: int = DEFAULT_PRECISION, n: int = 10000):
    """gamma via Euler-Maclaurin applied to H_n - log n.

        gamma = H_n - log n - 1/(2n) + sum_{i>=1} B_{2i} / (2i n^{2i})

    The Bernoulli correction terms decrease until around i ~ pi*n, far
    beyond any truncation used here, so the first omitted term bounds the
    remainder.
    """
    check_precision(precision, cn.MAX_CONSTANT_PRECISION)
    with working_precision(precision):
        h = mpf(0)
        for i in range(n, 0, -1):  # ascending magnitudes: sum small terms first
            h += mpf(1) / i
        val = h - mp.log(n) - mpf(1) / (2 * n)
        eps = mpf(2) ** (-(precision + 16))
        n2 = mpf(n) ** 2
        pw = n2
        for i in range(1, 400):
            b = cn._bernoulli(2 * i)
            term = mpf(b.numerator) / (b.denominator * 2 * i * pw)
            val += term
            if abs(term) < eps:
                break
            pw *= n2
        else:
            raise PrecisionNotMetError(
                "Euler-Maclaurin tail did not reach the error budget; increase n",
                achieved_bound=abs(term),
            )
        return +val


class TestEmbeddedLiterals:
    def test_gamma_against_euler_maclaurin(self):
        # the embedded literal and the from-scratch oracle must share >= 100 digits
        with mp.workprec(400):
            lit = cn.euler_gamma(352)
            oracle = euler_gamma_euler_maclaurin(352)
            assert abs(lit - oracle) < mpf(10) ** -100

    def test_gamma_leading_digits(self):
        assert_close_digits(cn.euler_gamma(64), "0.5772156649015328606", 18)
        assert_close_digits(cn.euler_gamma(192), "0.577216", 6)

    def test_gamma_precision_consistency(self):
        with mp.workprec(300):
            for p1, p2 in ((64, 192), (128, 256), (192, 1024)):
                d = abs(cn.euler_gamma(p1) - cn.euler_gamma(p2))
                assert d < mpf(2) ** -(min(p1, p2) - 4)

    def test_precision_capacity(self):
        with pytest.raises(CapacityError):
            cn.euler_gamma(1025)
        with pytest.raises(DomainError):
            cn.euler_gamma(32)  # below the 64-bit floor


class TestZeta:
    def test_pi_power_identities(self):
        with mp.workprec(224):
            pi = +mp.pi
            tol = mpf(2) ** -(192 - 8)
            assert abs(cn.zeta_int(2, 192) * 6 - pi**2) < tol * pi**2
            assert abs(cn.zeta_int(4, 192) * 90 - pi**4) < tol * pi**4
            assert abs(cn.zeta_int(6, 192) * 945 - pi**6) < tol * pi**6

    def test_zeta3_value(self):
        assert_close_digits(cn.zeta_int(3, 192), ZETA_3, 38)

    def test_zeta3_integral_bracketing(self):
        # direct sum to N, then tail in [int_{N+1} t^-3, int_N t^-3]
        with mp.workprec(200):
            n = 10_000
            partial = mpf(0)
            for i in range(n, 0, -1):
                partial += mpf(i) ** -3
            lo = partial + mpf(1) / (2 * (n + 1) ** 2)
            hi = partial + mpf(1) / (2 * n**2)
            val = cn.zeta_int(3, 192)
            assert lo < val < hi

    def test_domain(self):
        with pytest.raises(DomainError):
            cn.zeta_int(1, 128)
        with pytest.raises(DomainError):
            cn.zeta_int(0, 128)

    @pytest.mark.parametrize("precision", [64, 224, 1088])
    def test_integers_against_mpmath(self, precision):
        # mpmath's zeta is the oracle; the series budget is 2^-(precision+24)
        with mp.workprec(precision + 64):
            for s in range(2, 261):
                got = cn.zeta_int(s, precision)
                ref = mp.zeta(s)
                assert abs(got - ref) <= mpf(2) ** -(precision + 24) * ref, s

    @pytest.mark.parametrize("precision", [64, 192, 1024])
    def test_rounded_to_working_precision(self, precision):
        for s in range(2, 41):
            assert cn.zeta_int(s, precision).man.bit_length() <= precision + GUARD_BITS, s

    def test_huge_integer(self):
        # zeta(s) - 1 < 2^(1-s) is far below the budget: no power of s is built
        assert cn.zeta_int(10**12, 192) == 1


class TestGSeries:
    def test_value(self):
        assert_close_digits(cn.g_at_1(192), G_AT_1, 38)

    def test_direct_prime_sum_bracketing(self, primes_1e6):
        # g(1) = sum_p { log(1/(1-1/p)) - 1/p }; the dropped tail over
        # p > 1e6 is below sum_{n>1e6} n^-2 < 1e-6
        direct = prime_log_series(primes_1e6, 160)
        with mp.workprec(160):
            val = cn.g_at_1(128)
            assert direct < val < direct + mpf(10) ** -6

    def test_precision_consistency(self):
        with mp.workprec(256):
            assert abs(cn.g_at_1(128) - cn.g_at_1(192)) < mpf(2) ** -(128 - 4)

    @pytest.mark.parametrize("precision", [64, 128, 192])
    def test_against_prime_zeta_double_sum(self, precision):
        # the unswapped series sum_{m>=2} P(m)/m, cut where 2^(1-m)/m falls
        # below 2^-(precision+16), each P(m) from mpmath at 32 guard bits, so
        # the oracle shares no zeta value with the package
        with mp.workprec(precision + 32):
            eps = mpf(2) ** -(precision + 16)
            direct, m = mpf(0), 2
            while True:
                direct += mp.primezeta(m) / m
                if mpf(2) ** (1 - m) / m < eps:
                    break
                m += 1
            assert abs(cn.g_at_1(precision) - direct) < mpf(2) ** -(precision - 4)


def _bernoulli_akiyama_tanigawa(n):
    a = [Fraction(0)] * (n + 1)
    for m in range(n + 1):
        a[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            a[j - 1] = j * (a[j - 1] - a[j])
    return a[0]


class TestBernoulli:
    def test_against_akiyama_tanigawa(self):
        # the recurrence yields B_1 = +1/2; the package, like mpmath, takes
        # B_1 = -1/2 and reads only even indices
        assert cn._bernoulli(1) == -_bernoulli_akiyama_tanigawa(1) == Fraction(-1, 2)
        for n in [0] + list(range(2, 41)):
            assert cn._bernoulli(n) == _bernoulli_akiyama_tanigawa(n), n

    def test_b12(self):
        assert cn._bernoulli(12) == Fraction(-691, 2730)


class TestMertensConstant:
    def test_published_six_decimals(self):
        # round to 6 decimals and compare digit strings
        with mp.workprec(128):
            rounded = mp.nstr(cn.mertens_c1(192), 6)
        assert rounded == "0.261497"

    def test_value(self):
        assert_close_digits(cn.mertens_c1(192), C_1, 38)

    def test_direct_vs_accelerated_within_certified_bound(self, primes_1e6):
        # the defining prime series summed directly, short by under 1/limit
        direct_sum = prime_log_series(primes_1e6, 224)
        with mp.workprec(224):
            acc = cn.mertens_c1(192)
            direct = cn.euler_gamma(192) - direct_sum
            bound = mpf(2) / primes_1e6.limit
            assert abs(acc - direct) < bound
            assert bound < mpf(10) ** -5

    def test_self_consistency_at_doubled_precision(self):
        with mp.workprec(420):
            assert abs(cn.mertens_c1(192) - cn.mertens_c1(384)) < mpf(10) ** -25

    def test_works_at_the_precision_ceiling(self):
        # internal series run guard bits above the public 1024-bit cap
        with mp.workprec(1100):
            v = cn.mertens_c1(1024)
            assert abs(v - cn.mertens_c1(512)) < mpf(2) ** -500


class TestRecipGammaDerivs:
    def test_first_values_against_closed_forms(self, bundle192):
        a = bundle192.recip_gamma_derivs
        with mp.workprec(224):
            g = bundle192.gamma
            pi2 = bundle192.zeta[2] * 6
            z3 = bundle192.zeta[3]
            assert a[0] == 1
            assert_close_digits(a[1], g, 25, "a_1")
            assert_close_digits(a[2], g**2 - pi2 / 6, 25, "a_2")
            assert_close_digits(a[3], 2 * z3 - pi2 * g / 2 + g**3, 25, "a_3")

    def test_frozen_values(self, bundle192):
        a = bundle192.recip_gamma_derivs
        assert_close_digits(a[2], A_2, 38, "a_2")
        assert_close_digits(a[3], A_3, 38, "a_3")
        assert_close_digits(a[4], A_4, 38, "a_4")

    def test_a4_sign_of_pi2_gamma2_term(self, bundle192):
        # the closed form misprinted in places carries +pi^2 gamma^2
        # (~ 10.57); the series recursion and the quartic polynomial force
        # the minus sign (~ 3.9969)
        a4 = bundle192.recip_gamma_derivs[4]
        with mp.workprec(224):
            g = bundle192.gamma
            pi2 = bundle192.zeta[2] * 6
            pi4 = bundle192.zeta[4] * 90
            z3 = bundle192.zeta[3]
            minus_variant = pi4 / 60 + 8 * g * z3 - pi2 * g**2 + g**4
            plus_variant = pi4 / 60 + 8 * g * z3 + pi2 * g**2 + g**4
            assert_close_digits(a4, minus_variant, 25, "a_4 (minus variant)")
            assert abs(a4 - plus_variant) > 6  # ~ 6.58 apart

    def test_doubled_precision_and_truncation(self, bundle192):
        a4 = bundle192.recip_gamma_derivs[4]
        redone = cn.recip_gamma_derivs(16, 384)[4]
        assert_close_digits(a4, redone, 25, "a_4 doubled")

    def test_taylor_coefficient_spot_values(self, bundle192):
        a = bundle192.recip_gamma_derivs
        with mp.workprec(256):
            redone = cn.recip_gamma_derivs(8, 448)
            for m, fact in ((2, 2), (3, 6), (4, 24)):
                assert_close_digits(a[m] / fact, redone[m] / fact, 30, f"a_{m}/{m}!")
        assert_close_digits(a[2] / 2, "-0.6558780715202539024488715", 24)
        assert_close_digits(a[3] / 6, "-0.04200263503409523702103456", 24)
        assert_close_digits(a[4] / 24, "0.1665386113822914793125562", 24)

    def test_series_sums_to_one(self, bundle192):
        # partial sums of a_m/m! converge to 1/Gamma(2) = 1
        a = bundle192.recip_gamma_derivs
        with mp.workprec(224):
            m_top = 40
            partial = mpf(0)
            for m in range(m_top + 1):
                partial += a[m] / math.factorial(m)
            allowance = 2 * abs(a[m_top + 1]) / math.factorial(m_top + 1) + mpf(10) ** -30
            assert abs(partial - 1) < allowance

    def test_capacity(self):
        with pytest.raises(CapacityError):
            cn.recip_gamma_derivs(80, 192)
        with pytest.raises(DomainError):
            cn.recip_gamma_derivs(-1, 192)


class TestH0:
    def test_value_and_identities(self, bundle192):
        with mp.workprec(224):
            h = bundle192.h0
            assert h < 0
            assert h == bundle192.c1 - bundle192.gamma
            assert abs(h + cn.g_at_1(192)) < mpf(2) ** -(192 - 8)
        assert_close_digits(h, "-0.3157184520538900768510852514737065719906", 38)

    def test_standalone_helper(self, bundle192):
        # the bundle's h0 against c1 and gamma computed on their own
        with mp.workprec(224):
            assert abs(bundle192.h0 - (cn.mertens_c1(192) - cn.euler_gamma(192))) == 0


class TestBundle:
    def test_invariants(self, bundle192):
        assert bundle192.precision == 192
        assert bundle192.recip_gamma_derivs[0] == 1
        with mp.workprec(bundle192.precision + 32):  # construction precision
            assert bundle192.h0 == bundle192.c1 - bundle192.gamma
        assert set(range(2, 11)).issubset(bundle192.zeta.keys())
