import math

import numpy as np
import pytest
from mpmath import mp, mpf

from conftest import assert_close_digits
from mertens_sums import asymptotics as asy
from mertens_sums.constants import ConstantsBundle
from mertens_sums.errors import CapacityError, DomainError

# frozen from the package at 448 bits (anchored below by the independent
# closed-form expansions built from c1, pi^2, zeta(3), pi^4 alone)
LAMBDA_0_2 = "-1.576553274521141042305990861461080031790"
LAMBDA_1_2 = "0.5229944256952855675108536772173917181031"
P1_AT_1 = "1.261497212847642783755426838608695859052"
P2_AT_1 = "-0.05355884882585547479513718424368831368695"
I1_AT_EE = "1.577215664901532860606512090082402431042"
I2_AT_EE = "0.8426751867625579590589851498740238995248"


def expand_golden(k, bundle):
    """Independent expansion of the k <= 4 closed forms using only c1 and
    the classical constants; no reciprocal-gamma machinery, no package
    polynomial code."""
    with mp.workprec(bundle.precision + 32):
        c1 = bundle.c1
        pi2 = bundle.zeta[2] * 6
        pi4 = bundle.zeta[4] * 90
        z3 = bundle.zeta[3]

        def binom_shift(power):
            return [math.comb(power, j) * c1 ** (power - j) for j in range(power + 1)]

        coeffs = [mpf(0)] * (k + 1)
        for j, c in enumerate(binom_shift(k)):
            coeffs[j] += c
        if k == 2:
            coeffs[0] -= pi2 / 6
        elif k == 3:
            for j, c in enumerate(binom_shift(1)):
                coeffs[j] -= pi2 / 2 * c
            coeffs[0] += 2 * z3
        elif k == 4:
            for j, c in enumerate(binom_shift(2)):
                coeffs[j] -= pi2 * c
            for j, c in enumerate(binom_shift(1)):
                coeffs[j] += 8 * z3 * c
            coeffs[0] += pi4 / 60
        return coeffs


class TestLambdaCoefficients:
    def test_k1(self, bundle224):
        table = asy.pk_polynomial(1, bundle224)
        assert table.coeffs[1] == 1
        assert_close_digits(table.coeffs[0], bundle224.c1, 30, "lambda_{0,1}")

    def test_k2_values(self, bundle224):
        table = asy.pk_polynomial(2, bundle224)
        assert_close_digits(table.coeffs[1], LAMBDA_1_2, 38)
        assert_close_digits(table.coeffs[0], LAMBDA_0_2, 38)
        with mp.workprec(256):
            assert_close_digits(table.coeffs[1], 2 * bundle224.c1, 30, "lambda_{1,2}=2c1")

    @pytest.mark.parametrize("k", range(1, 13))
    def test_leading_coefficient_and_degree(self, k, bundle192):
        table = asy.pk_polynomial(k, bundle192)
        assert len(table.coeffs) == k + 1
        assert table.coeffs[k] == 1

    def test_capacity_errors(self, bundle224):
        with pytest.raises(DomainError):
            asy.pk_polynomial(0, bundle224)
        small = ConstantsBundle.build(128, m_max=3)
        with pytest.raises(CapacityError):
            asy.pk_polynomial(5, small)  # beyond the bundle's derivative range
        with pytest.raises(CapacityError):
            asy.pk_polynomial(13, bundle224)  # beyond the degree cap


class TestGoldenPolynomials:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_lambda_path_matches_expanded_closed_forms(self, k, bundle224):
        lam = asy.pk_polynomial(k, bundle224).coeffs
        golden = expand_golden(k, bundle224)
        for j, (a, b) in enumerate(zip(lam, golden)):
            assert_close_digits(a, b, 25, f"k={k} coefficient of X^{j}")

    @pytest.mark.parametrize("k", range(1, 9))
    def test_two_path_agreement(self, k, bundle224):
        lam = asy.pk_polynomial(k, bundle224, "lambda").coeffs
        bino = asy.pk_polynomial(k, bundle224, "binomial").coeffs
        with mp.workprec(300):
            tol = mpf(2) ** -(bundle224.precision - 16)
            for j, (a, b) in enumerate(zip(lam, bino)):
                scale = max(1, abs(a))
                assert abs(a - b) < tol * scale, f"k={k}, X^{j}"

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 6])
    def test_value_at_minus_c1(self, k, bundle224):
        # P_k(-c1) = sum_m C(k,m) a_m (-gamma)^(k-m): a scalar cross-check
        # hitting both paths at one point
        with mp.workprec(280):
            expected = mpf(0)
            for m in range(k + 1):
                expected += (
                    math.comb(k, m)
                    * bundle224.recip_gamma_derivs[m]
                    * (-bundle224.gamma) ** (k - m)
                )
            for path in ("lambda", "binomial"):
                got = asy.pk_polynomial(k, bundle224, path)(-bundle224.c1)
                assert abs(got - expected) < mpf(2) ** -(bundle224.precision - 16)

    def test_unknown_path(self, bundle224):
        with pytest.raises(DomainError):
            asy.pk_polynomial(2, bundle224, "magic")


class TestImClosedForm:
    def test_m0_is_one(self, bundle224):
        for x in (3, 100, 10**8):
            assert asy.im_closed_form(0, x, bundle224) == 1

    def test_at_e_to_the_e(self, bundle224):
        # x = e^e makes loglog x = 1, so I_m = sum_j C(m,j) a_{m-j}
        with mp.workprec(280):
            xee = mp.e**mp.e
            assert_close_digits(asy.im_closed_form(1, xee, bundle224), I1_AT_EE, 38)
            assert_close_digits(asy.im_closed_form(2, xee, bundle224), I2_AT_EE, 38)

    def test_combinatorial_equivalence(self, bundle224):
        # C(m,j) L^j a_{m-j} summed equals m! sum_j L^j/j! * a_{m-j}/(m-j)!
        with mp.workprec(280):
            for m in range(5):
                for x in (10, 1000):
                    ll = mp.log(mp.log(x))
                    alt = mpf(0)
                    for j in range(m + 1):
                        alt += (
                            ll**j
                            / math.factorial(j)
                            * bundle224.recip_gamma_derivs[m - j]
                            / math.factorial(m - j)
                        )
                    alt *= math.factorial(m)
                    got = asy.im_closed_form(m, x, bundle224)
                    assert abs(got - alt) < mpf(2) ** -(bundle224.precision - 16)

    def test_domain(self, bundle224):
        with pytest.raises(DomainError):
            asy.im_closed_form(1, 2.9, bundle224)
        with pytest.raises(DomainError):
            asy.im_closed_form(-1, 10, bundle224)


class TestMainTerm:
    def test_k1_at_e_to_the_e(self, bundle224):
        with mp.workprec(280):
            xee = mp.e**mp.e
            assert_close_digits(asy.evaluate_main_term(1, xee, bundle224), P1_AT_1, 38)

    def test_k2_at_e_to_the_e(self, bundle224):
        with mp.workprec(280):
            xee = mp.e**mp.e
            assert_close_digits(asy.evaluate_main_term(2, xee, bundle224), P2_AT_1, 38)

    def test_against_one_plus_c1(self, bundle224):
        with mp.workprec(280):
            xee = mp.e**mp.e
            got = asy.evaluate_main_term(1, xee, bundle224)
            assert abs(got - (1 + bundle224.c1)) < mpf(2) ** -200

    def test_domain(self, bundle224):
        with pytest.raises(DomainError):
            asy.evaluate_main_term(1, 2, bundle224)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_increasing_beyond_derivative_roots(self, k, bundle224):
        # largest real root of P_k' from numpy, then sample a growing grid
        poly = asy.pk_polynomial(k, bundle224, "lambda")
        coeffs_float = [float(c) for c in poly.coeffs]
        deriv = np.polyder(np.poly1d(coeffs_float[::-1]))
        roots = [r.real for r in deriv.roots if abs(r.imag) < 1e-9]
        threshold = max(roots, default=0.0)
        assert math.log(math.log(10**6)) > threshold + 0.05
        xs = [10**6, 10**7, 10**9, 10**12, 10**15]
        vals = [asy.evaluate_main_term(k, x, bundle224) for x in xs]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestPolynomialType:
    def test_horner_evaluation(self):
        p = asy.Polynomial(coeffs=(mpf(1), mpf(-2), mpf(3)))  # 1 - 2X + 3X^2
        assert p(2) == 1 - 4 + 12
        assert len(p.coeffs) - 1 == 2

    def test_closed_form_strings_exist_for_small_k(self):
        assert set(asy.CLOSED_FORM_STRINGS) == {1, 2, 3, 4}
        for k, s in asy.CLOSED_FORM_STRINGS.items():
            assert f"P_{k}(X)" in s
