"""Extended-precision evaluation of the constants the main term consumes.

Covers Euler's constant, zeta values, the prime zeta function
P(s) = sum_p p^(-s) = sum_{n>=1} mu(n)/n log zeta(ns), the Mertens constant

    c1 = gamma - sum_p { log(1/(1-1/p)) - 1/p }  ~ 0.261497,

the series value g(1) = sum_{m>=2} P(m)/m = -sum_{N>=2} mu(N) log zeta(N)/N
(so that c1 = gamma - g(1); the tail past term N is below 2^(1-N)/N),
and the derivatives a_m = (1/Gamma)^(m)(1), generated from

    1/Gamma(1+z) = exp( gamma z + sum_{j>=2} (-1)^(j+1) zeta(j) z^j / j ).

zeta(s) is a direct sum plus an Euler-Maclaurin tail (:func:`_zeta_em`).
Integer s, which is every zeta value the constants above use, is summed in
exact integer fixed point: each term is one floor, and the ledger stays
under 2^-(precision+24) (1 + 2^-6).  Only non-integer s (zeta_real(2.5),
prime_zeta(1.5)) sums in mpf.

gamma and pi enter as embedded decimal literals; the test suite recomputes
both from scratch (Euler-Maclaurin for gamma, a Machin arctan series for
pi) and requires at least 100 digits of agreement, so every embedded digit
stays auditable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from mpmath import mp, mpf

from .bigreal import DEFAULT_PRECISION, GUARD_BITS, check_precision, working_precision
from .errors import CapacityError, DomainError, ParameterError, PrecisionNotMetError
from .primes import mobius, sieve

# Highest precision servable from the embedded literals (335 digits ~ 1112 bits).
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

_PI_LITERAL = (
    "3.14159265358979323846264338327950288419716939937510582097494459230781"
    "6406286208998628034825342117067982148086513282306647093844609550582231"
    "7253594081284811174502841027019385211055596446229489549303819644288109"
    "7566593344612847564823378678316527120190914564856692346034861045432664"
    "821339360726024914127372458700660631558817488152092096282"
)


def euler_gamma(precision: int = DEFAULT_PRECISION):
    """Euler's constant at the requested bit precision (from the literal)."""
    check_precision(precision, MAX_CONSTANT_PRECISION)
    with working_precision(precision):
        return mpf(_GAMMA_LITERAL)


def pi_value(precision: int = DEFAULT_PRECISION):
    """pi at the requested bit precision (from the literal)."""
    check_precision(precision, MAX_CONSTANT_PRECISION)
    with working_precision(precision):
        return mpf(_PI_LITERAL)


# ----------------------------------------------------------------------
# Independent oracles for the embedded literals.  These are slower and
# exist so that tests can re-derive gamma and pi without trusting any
# library constant or the literals themselves.

def euler_gamma_euler_maclaurin(precision: int = DEFAULT_PRECISION, n: int = 10000):
    """gamma via Euler-Maclaurin applied to H_n - log n.

        gamma = H_n - log n - 1/(2n) + sum_{i>=1} B_{2i} / (2i n^{2i})

    The Bernoulli correction terms decrease until around i ~ pi*n, far
    beyond any truncation used here, so the first omitted term bounds the
    remainder.
    """
    check_precision(precision, MAX_CONSTANT_PRECISION)
    with working_precision(precision):
        h = mpf(0)
        for i in range(n, 0, -1):  # ascending magnitudes: sum small terms first
            h += mpf(1) / i
        val = h - mp.log(n) - mpf(1) / (2 * n)
        eps = mpf(2) ** (-(precision + 16))
        n2 = mpf(n) ** 2
        pw = n2
        for i in range(1, 400):
            b = _bernoulli(2 * i)
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


def pi_machin(precision: int = DEFAULT_PRECISION):
    """pi from Machin's identity pi/4 = 4 arctan(1/5) - arctan(1/239).

    The arctan series are alternating, so each truncation error is below
    the first omitted term.
    """
    check_precision(precision, MAX_CONSTANT_PRECISION)
    with working_precision(precision):
        def arctan_inv(q: int):
            # arctan(1/q) = sum_{k>=0} (-1)^k / ((2k+1) q^(2k+1))
            eps = mpf(2) ** (-(precision + 16))
            q2 = q * q
            term = mpf(1) / q
            total = mpf(0)
            k = 0
            while abs(term) > eps:
                total += term if k % 2 == 0 else -term
                term = term / q2 * (2 * k + 1) / (2 * k + 3)
                k += 1
            return total

        return +(16 * arctan_inv(5) - 4 * arctan_inv(239))


@lru_cache(maxsize=None)
def _bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n as an exact fraction (mpmath's ``bernfrac``)."""
    return Fraction(*mp.bernfrac(n))


# ----------------------------------------------------------------------
# Zeta values.

EM_MAX_TERMS = 299  # Euler-Maclaurin corrections before the tail counts as stalled


@lru_cache(maxsize=4096)
def _zeta_em(s, precision: int):
    """zeta(s) for real s > 1 by N direct terms plus an Euler-Maclaurin tail.

        zeta(s) = sum_{n<=N} n^-s + N^(1-s)/(s-1) - N^-s/2
                  + sum_{i>=1} B_2i/(2i)! s(s+1)...(s+2i-2) N^-(s+2i-1)

    The error budget is 2^-budget_bits, budget_bits = precision + 24.  The
    direct sum alone leaves N^(1-s), and the corrections fall like
    (2 pi N)^-2i, so N = min(budget_bits // 2 + 8, floor(2^(budget_bits /
    (s-1))) + 2) suffices for every s.  Corrections are added until one falls
    below the budget; the first omitted one bounds the remainder.

    Two routes, chosen by the value of s:

    * integer s (an int, or an mpf such as the 2.0 that prime_zeta(2) passes
      to zeta_real): exact integer fixed point at scale 2^bits, bits =
      budget_bits + 16, in :func:`_zeta_fixed`.  Each term is one floor and
      loses under one unit 2^-bits.  There are at most budget_bits // 2 + 8
      direct terms (564 at MAX_SERIES_PRECISION), 2 tail terms and
      EM_MAX_TERMS corrections, fewer than 2^10 floors, so they lose under
      2^-(budget_bits + 6), and the total error stays under
      2^-budget_bits (1 + 2^-6).  One ldexp rounds the sum to an mpf of
      precision + GUARD_BITS bits.
    * any other s (prime_zeta(1.5), zeta_real(2.5)): the same sums in mpf at
      precision + GUARD_BITS bits, in :func:`_zeta_mpf`.

    Cached on (s, precision), the one cache zeta_int and zeta_real share.
    """
    budget_bits = precision + 24
    with working_precision(precision):
        if s == int(s):
            return _zeta_fixed(int(s), budget_bits)
        return _zeta_mpf(mpf(s), budget_bits)


def _stalled(s, bound):
    return PrecisionNotMetError(
        f"zeta({s}) Euler-Maclaurin tail stalled above the error budget",
        achieved_bound=bound,
    )


def _zeta_fixed(s: int, budget_bits: int):
    """zeta(s) for integer s >= 2 in integer fixed point (see :func:`_zeta_em`)."""
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
            return mp.ldexp(total, -bits)
        rising *= (s + 2 * i - 1) * (s + 2 * i)
        npow *= n_direct * n_direct
        fact *= (2 * i + 1) * (2 * i + 2)
    raise _stalled(s, mp.ldexp(abs(term), -bits))


def _zeta_mpf(s, budget_bits: int):
    """zeta(s) for non-integer mpf s > 1 at the working precision (see :func:`_zeta_em`)."""
    n_direct = min(budget_bits // 2 + 8, int(mpf(2) ** (budget_bits / (s - 1)) + 2))
    total = mpf(0)
    for n in range(n_direct, 0, -1):
        total += mpf(n) ** -s
    total += mpf(n_direct) ** (1 - s) / (s - 1)
    total -= mpf(n_direct) ** -s / 2
    rising = s  # (s)(s+1)...(s+2i-2), starts with one factor
    npow = mpf(n_direct) ** (-s - 1)
    fact = mpf(2)  # (2i)!
    eps = mpf(2) ** (-budget_bits)
    for i in range(1, EM_MAX_TERMS + 1):
        b = _bernoulli(2 * i)
        term = mpf(b.numerator) / b.denominator / fact * rising * npow
        total += term
        if abs(term) < eps:
            return +total
        rising *= (s + 2 * i - 1) * (s + 2 * i)
        npow /= n_direct * n_direct
        fact *= (2 * i + 1) * (2 * i + 2)
    raise _stalled(s, abs(term))


def zeta_int(k: int, precision: int = DEFAULT_PRECISION):
    """zeta(k) for integer k >= 2."""
    if not isinstance(k, int) or k < 2:
        raise DomainError(f"zeta_int requires an integer k >= 2, got {k!r}")
    return _zeta_em(k, check_precision(precision, MAX_SERIES_PRECISION))


def zeta_real(s, precision: int = DEFAULT_PRECISION):
    """zeta(s) for real s > 1 (same Euler-Maclaurin engine as zeta_int)."""
    precision = check_precision(precision, MAX_SERIES_PRECISION)
    if not mpf(s) > 1:
        raise DomainError(f"zeta_real requires s > 1, got {s!r}")
    return _zeta_em(s, precision)


# ----------------------------------------------------------------------
# The Mertens constant and its series form.

def g_at_1(precision: int = DEFAULT_PRECISION):
    """g(1) = sum_{m>=2} P(m)/m = -sum_{N>=2} mu(N) log zeta(N) / N.

    Swapping the sums in P(m) = sum_n mu(n)/n log zeta(nm) leaves
    sum_{n|N, n<N} mu(n) = -mu(N) at N = nm: one Moebius log-zeta series
    (H. Cohen, High precision computation of Hardy-Littlewood constants,
    1998).  It stops at the first N with 2^(1-N)/N below the error budget:
    |log zeta(j)| <= zeta(j) - 1 < 2^(1-j) for j >= 3, and summed over
    j > N that is below 2^(1-N)/N.  The result is an mpf of precision +
    GUARD_BITS bits, but it is accurate only to about 2^-(precision+16),
    the budget the series stops at; the guard bits below that are not.
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


def prime_zeta(s, precision: int = DEFAULT_PRECISION):
    """P(s) = sum_p p^(-s) for real s >= 3/2.

    Uses P(s) = sum_n mu(n)/n log zeta(ns), truncated at the first n whose
    log-zeta falls below the error budget; zeta(m) - 1 < 2^(1-m) makes the
    dropped tail geometric.  Below s = 3/2 the series is not used and the
    argument is rejected.  :func:`g_at_1` sums these values over m without
    calling this function; the tests check the two against each other.
    """
    check_precision(precision, MAX_SERIES_PRECISION)
    with working_precision(precision):
        s_mp = mpf(s)
        if s_mp < mpf(3) / 2:
            raise DomainError(f"prime_zeta requires s >= 3/2, got {s!r}")
        eps = mpf(2) ** (-(precision + 8))
        total = mpf(0)
        n = 1
        while True:
            mu = mobius(n)
            if mu != 0:
                lz = mp.log(zeta_real(n * s_mp, precision))
                total += mpf(mu) / n * lz
                # tail: sum_{j>n} |log zeta(js)|/j <= 2^(1-(n+1)s)/((n+1)(1-2^-s))
                tail = mpf(2) ** (1 - (n + 1) * s_mp) / ((n + 1) * (1 - mpf(2) ** (-s_mp)))
                if abs(lz) < eps / 2 and tail < eps:
                    break
            n += 1
            if n > 100_000:  # unreachable for s >= 3/2; defensive cap
                raise CapacityError("prime_zeta series failed to terminate")
        return +total


def mertens_c1_direct_bound(limit: int):
    """Certified absolute bound for the direct method at a given sieve limit.

    The dropped prime tail is below sum_{n>limit} n^(-2) < 1/limit; a factor
    2 absorbs arithmetic rounding with a wide margin.
    """
    return mpf(2) / limit


def mertens_c1(
    precision: int = DEFAULT_PRECISION,
    method: str = "accelerated",
    primes=None,
    abs_tol=None,
):
    """The Mertens constant c1 = gamma - sum_p { log(1/(1-1/p)) - 1/p }.

    ``accelerated`` evaluates gamma - g(1) and reaches the full requested
    precision.  ``direct`` sums the defining prime series over the supplied
    table (limit >= 10^6 required) and is certified only to
    :func:`mertens_c1_direct_bound`; it exists as an independent
    cross-check.  When the certified bound exceeds ``abs_tol`` (default:
    2^-precision), the direct method raises ``PrecisionNotMetError``
    carrying the bound it did achieve.
    """
    check_precision(precision, MAX_CONSTANT_PRECISION)
    if method == "accelerated":
        with working_precision(precision):
            return +(euler_gamma(precision) - g_at_1(precision))
    if method != "direct":
        raise DomainError(f"unknown method {method!r}; expected 'direct' or 'accelerated'")

    if primes is None:
        primes = sieve(10**6)
    return _mertens_c1_direct(precision, primes, abs_tol)


def _mertens_c1_direct(precision: int, primes, abs_tol):
    if primes.limit < 10**6:
        raise ParameterError(
            f"direct method needs a prime table with limit >= 10^6, got {primes.limit}"
        )
    certified = mertens_c1_direct_bound(primes.limit)
    if abs_tol is None:
        abs_tol = mpf(2) ** (-precision)
    if certified > abs_tol:
        raise PrecisionNotMetError(
            f"direct method at limit {primes.limit} certifies only {float(certified):.3e}",
            achieved_bound=certified,
        )
    with working_precision(precision):
        total = mpf(0)
        one = mpf(1)
        # sum_p { log(1/(1-1/p)) - 1/p }, ascending primes
        for p in primes.primes.tolist():
            invp = one / p
            total += -mp.log(one - invp) - invp
        return +(euler_gamma(precision) - total)


# ----------------------------------------------------------------------
# Derivatives of the reciprocal gamma function at 1.

MAX_DERIV_ORDER = 64
RECIP_GAMMA_MAX_ABS_Z = 4  # |z| envelope of recip_gamma, the one the Hankel checks test


def _recip_gamma_taylor(order: int, precision: int) -> list:
    """e_0..e_order, the Taylor coefficients a_m / m! of 1/Gamma(1+z) at 0.

    Exponentiates L(z) = gamma z + sum_{j>=2} (-1)^(j+1) zeta(j) z^j / j by
    e_0 = 1, e_n = (1/n) sum_{1<=j<=n} j l_j e_{n-j}.  Order m involves only
    l_1..l_m, so the only error is rounding at the working precision.
    """
    with working_precision(precision, guard=GUARD_BITS + 16):
        ell = [mpf(0)] * (order + 1)
        if order >= 1:
            ell[1] = euler_gamma(precision)
        for j in range(2, order + 1):
            zj = zeta_int(j, precision)
            ell[j] = zj / j if j % 2 == 1 else -zj / j
        e = [mpf(1)] + [mpf(0)] * order
        for n in range(1, order + 1):
            acc = mpf(0)
            for j in range(1, n + 1):
                acc += j * ell[j] * e[n - j]
            e[n] = acc / n
        return e


def recip_gamma_derivs(m_max: int, precision: int = DEFAULT_PRECISION):
    """a_m = (1/Gamma)^(m)(1) for m = 0..m_max, from :func:`_recip_gamma_taylor`."""
    if not isinstance(m_max, int) or m_max < 0:
        raise DomainError(f"m_max must be a nonnegative integer, got {m_max!r}")
    if m_max > MAX_DERIV_ORDER:
        raise CapacityError(
            f"m_max={m_max} exceeds the supported derivative order {MAX_DERIV_ORDER}"
        )
    check_precision(precision, MAX_CONSTANT_PRECISION)
    e = _recip_gamma_taylor(m_max, precision)
    with working_precision(precision, guard=GUARD_BITS + 16):
        return [+(em * math.factorial(m)) for m, em in enumerate(e)]


def _recip_gamma_order(bits: int) -> int:
    """An order past which the series of 1/Gamma(1+w), |w| <= 1/2, is below 2^-bits.

    By Cauchy on |w| = 16, |a_m / m!| <= M 16^-m, and past order N the tail
    is below M 32^-(N+1) 32/31.  The Weierstrass product bounds log M by
    16 gamma + sum_n g(16/n) (0.5773 > gamma), g(u) = max_{|v|=u} log|(1+v) e^-v|:
    u^2/2 for u <= 2, log(u-1) + u above; past n = 1024 the sum adds < 1/4.
    """
    log_m = 0.5773 * 16 + 1 / 4 + sum(
        math.log(16 / n - 1) + 16 / n if n < 8 else 128 / n**2 for n in range(1, 1024))
    return math.ceil((bits + log_m / math.log(2) + 1) / 5)


def recip_gamma(z, precision: int = DEFAULT_PRECISION):
    """1/Gamma(1+z) for real |z| <= RECIP_GAMMA_MAX_ABS_Z, to 2^-precision relative.

    z = w + k, k the nearest integer: the Taylor series of 1/Gamma(1+w),
    cut where :func:`_recip_gamma_order` puts the tail below 2^-(precision+8)
    (no term exceeds one, so nothing cancels), then divided by
    (w+1)...(w+k) for k > 0 or multiplied by w (w-1) ... (w+k+1) for k < 0.
    """
    check_precision(precision, MAX_CONSTANT_PRECISION)
    with working_precision(precision):
        z = mpf(z)
        if not abs(z) <= RECIP_GAMMA_MAX_ABS_Z:
            raise DomainError(
                "series evaluation of 1/Gamma(1+z) supports "
                f"|z| <= {RECIP_GAMMA_MAX_ABS_Z}, got {z}"
            )
        k = int(mp.nint(z))
        w = z - k
        taylor = _recip_gamma_taylor(_recip_gamma_order(precision + 8), precision)
        total = mp.polyval(taylor[::-1], w)
        for j in range(1, k + 1):
            total /= w + j
        for j in range(0, -k):
            total *= w - j
    with working_precision(precision):
        return +total


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
            c1 = mertens_c1(precision, "accelerated")
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
