"""Main-term polynomials for generalized Mertens sums.

For each k >= 1 the sum S_k(x) of reciprocals of ordered prime k-tuples
with product <= x has main term P_k(loglog x), where

    P_k(X) = sum_{0<=j<=k} lambda_{j,k} X^j,
    lambda_{j,k} = sum_{0<=m<=k-j} (k; m, j, k-m-j) h0^(k-m-j) a_m,

with multinomial (k; m, j, k-m-j) = k!/(m! j! (k-m-j)!), h0 = c1 - gamma
and a_m = (1/Gamma)^(m)(1).  The same polynomial also arises as

    P_k(X) = sum_{0<=m<=k} C(k,m) a_m (X + h0)^(k-m),

and both assembly paths are exposed so their agreement can be checked.
The one-variable integrals feeding the coefficients, the second form at h0 = 0,

    I_m(x) = sum_{0<=j<=m} C(m,j) (loglog x)^j a_{m-j},

are evaluated in closed form here and numerically in :mod:`.hankel`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from mpmath import mp, mpf

from .bigreal import working_precision
from .constants import ConstantsBundle
from .errors import CapacityError, DomainError

MAX_DEGREE = 12


@dataclass(frozen=True)
class Polynomial:
    """Dense polynomial with extended-precision coefficients, degree order."""

    coeffs: tuple  # coeffs[j] multiplies X^j

    def __call__(self, x):
        """Horner evaluation; x may be int, float or mpf."""
        acc = mpf(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc


def _check_degree(k: int) -> None:
    """1 <= k <= MAX_DEGREE: the checks on k that need no bundle."""
    if not isinstance(k, int) or k < 1:
        raise DomainError(f"k must be an integer >= 1, got {k!r}")
    if k > MAX_DEGREE:
        raise CapacityError(f"k={k} exceeds the supported degree cap {MAX_DEGREE}")


def _check_k(k: int, bundle: ConstantsBundle) -> None:
    _check_degree(k)
    if k > bundle.m_max:
        raise CapacityError(
            f"k={k} exceeds the bundle's derivative range m_max={bundle.m_max}"
        )


def multinomial(k: int, m: int, j: int) -> int:
    """(k; m, j, k-m-j) = k!/(m! j! (k-m-j)!) for m, j >= 0 and m + j <= k, exactly."""
    r = k - m - j
    return math.factorial(k) // (math.factorial(m) * math.factorial(j) * math.factorial(r))


def _powers(base, n: int) -> list:
    """[1, base, ..., base^n] at the ambient precision."""
    out = [mpf(1)]
    for _ in range(n):
        out.append(out[-1] * base)
    return out


def _binomial_expansion(k: int, a, shift) -> tuple:
    """Degree-order coefficients of sum_{0<=m<=k} C(k,m) a_m (X + shift)^(k-m)."""
    coeffs = [mpf(0)] * (k + 1)
    spow = _powers(shift, k)
    for m in range(k + 1):
        d = k - m
        cm = math.comb(k, m)
        for j in range(d + 1):  # (X + shift)^d = sum_j C(d,j) shift^(d-j) X^j
            coeffs[j] += cm * a[m] * math.comb(d, j) * spow[d - j]
    return tuple(+c for c in coeffs)


def pk_polynomial(k: int, bundle: ConstantsBundle, path: str = "lambda") -> Polynomial:
    """P_k as a polynomial, assembled along either route.

    ``lambda`` sums the coefficients lambda_{j,k} directly; ``binomial``
    expands sum_m C(k,m) a_m (X + h0)^(k-m), the pre-rearrangement form.
    The two must agree to working precision.
    """
    _check_k(k, bundle)
    if path not in ("lambda", "binomial"):
        raise DomainError(f"unknown path {path!r}; expected 'lambda' or 'binomial'")
    a = bundle.recip_gamma_derivs
    with working_precision(bundle.precision):
        if path == "binomial":
            return Polynomial(coeffs=_binomial_expansion(k, a, bundle.h0))
        h0pow = _powers(bundle.h0, k)
        lam = []
        for j in range(k + 1):
            acc = mpf(0)
            for m in range(k - j + 1):
                acc += multinomial(k, m, j) * h0pow[k - m - j] * a[m]
            lam.append(+acc)
    return Polynomial(coeffs=tuple(lam))


def _loglog(x):
    xv = mpf(x)
    if xv < 3:
        raise DomainError(f"x must be >= 3 so that loglog x is positive, got {x!r}")
    return mp.log(mp.log(xv))


def im_closed_form(m: int, x, bundle: ConstantsBundle):
    """I_m(x) = sum_j C(m,j) (loglog x)^j a_{m-j} for x >= 3: the binomial form at shift 0."""
    if not isinstance(m, int) or m < 0:
        raise DomainError(f"m must be an integer >= 0, got {m!r}")
    if m > bundle.m_max:
        raise CapacityError(f"m={m} exceeds the bundle's derivative range")
    with working_precision(bundle.precision):
        ll = _loglog(x)
        return +Polynomial(coeffs=_binomial_expansion(m, bundle.recip_gamma_derivs, 0))(ll)


def evaluate_main_term(k: int, x, bundle: ConstantsBundle):
    """P_k(loglog x) with Horner evaluation of the lambda-path polynomial."""
    poly = pk_polynomial(k, bundle)
    with working_precision(bundle.precision):
        return +poly(_loglog(x))


# ----------------------------------------------------------------------
# Closed forms for small k, both as display strings and as independently
# expanded coefficient tables built from c1, pi^2, zeta(3), pi^4 alone.

CLOSED_FORM_STRINGS = {
    1: "P_1(X) = (X + c1)",
    2: "P_2(X) = (X + c1)^2 - pi^2/6",
    3: "P_3(X) = (X + c1)^3 - (pi^2/2) (X + c1) + 2 zeta(3)",
    4: "P_4(X) = (X + c1)^4 - pi^2 (X + c1)^2 + 8 zeta(3) (X + c1) + pi^4/60",
}


def closed_form_coefficients(k: int, bundle: ConstantsBundle) -> tuple:
    """Expanded coefficients of the k <= 4 closed forms above.

    Built only from c1 and the classical constants (no reciprocal-gamma
    machinery), so this is an independent route to the same polynomials.
    """
    if k not in CLOSED_FORM_STRINGS:
        raise DomainError(f"closed forms are recorded for k = 1..4 only, got {k}")
    with working_precision(bundle.precision):
        pi2 = bundle.zeta[2] * 6
        pi4 = bundle.zeta[4] * 90
        z3 = bundle.zeta[3]
        c1 = bundle.c1

        def shifted(power: int):
            # coefficients of (X + c1)^power, degree order 0..power
            return [math.comb(power, j) * c1 ** (power - j) for j in range(power + 1)]

        coeffs = [mpf(0)] * (k + 1)

        def add(poly, scale=mpf(1)):
            for j, c in enumerate(poly):
                coeffs[j] += scale * c

        add(shifted(k))
        if k == 2:
            coeffs[0] -= pi2 / 6
        elif k == 3:
            add(shifted(1), -pi2 / 2)
            coeffs[0] += 2 * z3
        elif k == 4:
            add(shifted(2), -pi2)
            add(shifted(1), 8 * z3)
            coeffs[0] += pi4 / 60
        return tuple(+c for c in coeffs)
