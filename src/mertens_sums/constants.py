"""Extended-precision evaluation of the constants the main term consumes.

Covers Euler's constant, zeta(k) at integers k >= 2, the Mertens constant

    c1 = gamma - sum_p { log(1/(1-1/p)) - 1/p }  ~ 0.261497,

computed as gamma - g(1) from the series value g(1) = sum_p { log(1/(1-1/p))
- 1/p } = -sum_{N>=2} mu(N) log zeta(N)/N (the tail past term N is below
2^(1-N)/N), and the derivatives a_m = (1/Gamma)^(m)(1), generated from

    1/Gamma(1+z) = exp( gamma z + sum_{j>=2} (-1)^(j+1) zeta(j) z^j / j ).

Only these derivatives at 1 are computed here; 1/Gamma at other points (the
closed form of the Hankel power identity) is mpmath's ``rgamma``.

zeta(k) is a direct sum plus an Euler-Maclaurin tail (:func:`_zeta_fixed`),
summed in exact integer fixed point: each term is one floor, and the ledger
stays under 2^-(precision+24) (1 + 2^-6).

gamma enters as an embedded decimal literal; the test suite recomputes it
from scratch (Euler-Maclaurin on H_n - log n) and requires at least 100
digits of agreement, so every embedded digit stays auditable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from mpmath import mp, mpf

from .bigreal import DEFAULT_PRECISION, GUARD_BITS, check_precision, working_precision
from .errors import CapacityError, DomainError, PrecisionNotMetError
from .primes import mobius

# Highest precision servable from the embedded literal (335 digits ~ 1112 bits).
MAX_CONSTANT_PRECISION = 1024
# Series evaluations may run guard bits above the public ceiling.
MAX_SERIES_PRECISION = MAX_CONSTANT_PRECISION + 2 * GUARD_BITS

_GAMMA_LITERAL = (
    "0.57721566490153286060651209008240243104215933593992359880576723488486"
    "7726777664670936947063291746749514631447249807082480960504014486542836"
    "2241739976449235362535003337429373377376739427925952582470949160087352"
    "0394816567085323315177661152862119950150798479374508570574002992135478"
    "614669402960432542151905877553526733139925401296742051375"
)


def euler_gamma(precision: int = DEFAULT_PRECISION):
    """Euler's constant at the requested bit precision (from the literal)."""
    check_precision(precision, MAX_CONSTANT_PRECISION)
    with working_precision(precision):
        return mpf(_GAMMA_LITERAL)


@lru_cache(maxsize=None)
def _bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n as an exact fraction (mpmath's ``bernfrac``)."""
    return Fraction(*mp.bernfrac(n))


# ----------------------------------------------------------------------
# Zeta values.

EM_MAX_TERMS = 299  # Euler-Maclaurin corrections before the tail counts as stalled


@lru_cache(maxsize=4096)
def _zeta_fixed(s: int, precision: int):
    """zeta(s) for integer s >= 2 by N direct terms plus an Euler-Maclaurin tail.

        zeta(s) = sum_{n<=N} n^-s + N^(1-s)/(s-1) - N^-s/2
                  + sum_{i>=1} B_2i/(2i)! s(s+1)...(s+2i-2) N^-(s+2i-1)

    The error budget is 2^-budget_bits, budget_bits = precision + 24.  The
    direct sum alone leaves N^(1-s), and the corrections fall like
    (2 pi N)^-2i, so N = min(budget_bits // 2 + 8, floor(2^(budget_bits /
    (s-1))) + 2) suffices for every s.  Corrections are added until one falls
    below the budget; the first omitted one bounds the remainder.

    Everything is exact integer fixed point at scale 2^bits, bits =
    budget_bits + 16.  Each term is one floor and loses under one unit
    2^-bits.  There are at most budget_bits // 2 + 8 direct terms (564 at
    MAX_SERIES_PRECISION), 2 tail terms and EM_MAX_TERMS corrections, fewer
    than 2^10 floors, so they lose under 2^-(budget_bits + 6), and the total
    error stays under 2^-budget_bits (1 + 2^-6).  One ldexp rounds the sum
    to an mpf of precision + GUARD_BITS bits.
    """
    budget_bits = precision + 24
    bits = budget_bits + 16
    one = 1 << bits
    if s > bits:  # every term but n = 1 floors to zero; skip the huge powers
        return mpf(1)
    eps = one >> budget_bits  # 2^-budget_bits in units of 2^-bits
    limit = 1 << budget_bits
    n_direct = budget_bits // 2 + 8
    if (n_direct - 2) ** (s - 1) > limit:
        # N = floor(2^(budget_bits/(s-1))) + 2, the floor as an exact integer root
        m = int(2.0 ** (budget_bits / (s - 1)))
        while m ** (s - 1) > limit:
            m -= 1
        while (m + 1) ** (s - 1) <= limit:
            m += 1
        n_direct = m + 2
    total = sum(one // n**s for n in range(1, n_direct + 1))
    npow = n_direct ** (s - 1)
    total += one // ((s - 1) * npow)
    total -= one // (2 * npow * n_direct)
    npow *= n_direct * n_direct  # N^(s+2i-1), from i = 1
    rising, fact = s, 2  # s(s+1)...(s+2i-2) and (2i)!
    for i in range(1, EM_MAX_TERMS + 1):
        b = _bernoulli(2 * i)
        term = (b.numerator * rising << bits) // (b.denominator * fact * npow)
        total += term
        if abs(term) < eps:
            with working_precision(precision):
                return +mp.ldexp(total, -bits)
        rising *= (s + 2 * i - 1) * (s + 2 * i)
        npow *= n_direct * n_direct
        fact *= (2 * i + 1) * (2 * i + 2)
    raise PrecisionNotMetError(
        f"zeta({s}) Euler-Maclaurin tail stalled above the error budget",
        achieved_bound=mp.ldexp(abs(term), -bits),
    )


def zeta_int(k: int, precision: int = DEFAULT_PRECISION):
    """zeta(k) for integer k >= 2 (:func:`_zeta_fixed`, cached on k and precision)."""
    if not isinstance(k, int) or k < 2:
        raise DomainError(f"zeta_int requires an integer k >= 2, got {k!r}")
    return _zeta_fixed(k, check_precision(precision, MAX_SERIES_PRECISION))


# ----------------------------------------------------------------------
# The Mertens constant and its series form.

def g_at_1(precision: int = DEFAULT_PRECISION):
    """g(1) = sum_{m>=2} P(m)/m = -sum_{N>=2} mu(N) log zeta(N) / N.

    P(m) = sum_p p^-m is the prime zeta function.  Swapping the sums in
    P(m) = sum_n mu(n)/n log zeta(nm) leaves sum_{n|N, n<N} mu(n) = -mu(N)
    at N = nm: one Moebius log-zeta series (H. Cohen, High precision
    computation of Hardy-Littlewood constants, 1998).  It stops at the first
    N with 2^(1-N)/N below the error budget: |log zeta(j)| <= zeta(j) - 1 <
    2^(1-j) for j >= 3, and summed over j > N that is below 2^(1-N)/N.  The
    result is an mpf of precision + GUARD_BITS bits, but it is accurate only
    to about 2^-(precision+16), the budget the series stops at; the guard
    bits below that are not.
    """
    check_precision(precision, MAX_CONSTANT_PRECISION)
    with working_precision(precision):
        eps = mpf(2) ** (-(precision + 16))
        total = mpf(0)
        n = 2
        while True:
            mu = mobius(n)
            if mu:
                total -= mu * mp.log(zeta_int(n, precision + GUARD_BITS)) / n
            if mpf(2) ** (1 - n) / n < eps:
                break
            n += 1
        return +total


def mertens_c1(precision: int = DEFAULT_PRECISION):
    """The Mertens constant c1 = gamma - sum_p { log(1/(1-1/p)) - 1/p } = gamma - g(1)."""
    check_precision(precision, MAX_CONSTANT_PRECISION)
    with working_precision(precision):
        return +(euler_gamma(precision) - g_at_1(precision))


# ----------------------------------------------------------------------
# Derivatives of the reciprocal gamma function at 1.

MAX_DERIV_ORDER = 64


def recip_gamma_derivs(m_max: int, precision: int = DEFAULT_PRECISION):
    """a_m = (1/Gamma)^(m)(1) for m = 0..m_max, as m! e_m.

    e_m, the Taylor coefficients of 1/Gamma(1+z) at 0, exponentiate
    L(z) = gamma z + sum_{j>=2} (-1)^(j+1) zeta(j) z^j / j by e_0 = 1,
    e_n = (1/n) sum_{1<=j<=n} j l_j e_{n-j}.  Order m involves only
    l_1..l_m, so the only error is rounding at the working precision.
    """
    if not isinstance(m_max, int) or m_max < 0:
        raise DomainError(f"m_max must be a nonnegative integer, got {m_max!r}")
    if m_max > MAX_DERIV_ORDER:
        raise CapacityError(
            f"m_max={m_max} exceeds the supported derivative order {MAX_DERIV_ORDER}"
        )
    check_precision(precision, MAX_CONSTANT_PRECISION)
    with working_precision(precision, guard=GUARD_BITS + 16):
        ell = [mpf(0)] * (m_max + 1)
        if m_max >= 1:
            ell[1] = euler_gamma(precision)
        for j in range(2, m_max + 1):
            zj = zeta_int(j, precision)
            ell[j] = zj / j if j % 2 == 1 else -zj / j
        e = [mpf(1)] + [mpf(0)] * m_max
        for n in range(1, m_max + 1):
            acc = mpf(0)
            for j in range(1, n + 1):
                acc += j * ell[j] * e[n - j]
            e[n] = acc / n
        return [+(em * math.factorial(m)) for m, em in enumerate(e)]


# ----------------------------------------------------------------------
# Bundle.

@dataclass(frozen=True)
class ConstantsBundle:
    """All constants the asymptotic machinery consumes, at one precision.

    ``zeta`` maps k -> zeta(k) for 2 <= k <= zeta_max; ``recip_gamma_derivs``
    holds a_0..a_m_max, so a_0 = 1 and a_1 = gamma; h0 = c1 - gamma.
    """

    precision: int
    gamma: object
    zeta: dict
    c1: object
    h0: object
    recip_gamma_derivs: list

    @classmethod
    def build(cls, precision: int = DEFAULT_PRECISION, m_max: int = 40):
        check_precision(precision, MAX_CONSTANT_PRECISION)
        with working_precision(precision):
            derivs = recip_gamma_derivs(m_max, precision)  # validates m_max first
            gamma = euler_gamma(precision)
            zmax = max(m_max, 10)
            zmap = {k: zeta_int(k, precision) for k in range(2, zmax + 1)}
            c1 = mertens_c1(precision)
            h0 = +(c1 - gamma)
        return cls(
            precision=int(precision),
            gamma=gamma,
            zeta=zmap,
            c1=c1,
            h0=h0,
            recip_gamma_derivs=derivs,
        )

    @property
    def m_max(self) -> int:
        return len(self.recip_gamma_derivs) - 1
