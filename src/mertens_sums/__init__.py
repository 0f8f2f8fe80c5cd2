"""Generalized Mertens prime sums.

Exact computation of S_k(x), the sum of 1/(p_1 ... p_k) over ordered
prime k-tuples with product <= x, together with the degree-k main-term
polynomials P_k built from first-principles constants, and numerical
Hankel-contour checks of the identities behind them.
"""

__version__ = "0.1.0"

from .asymptotics import (
    Polynomial,
    evaluate_main_term,
    im_closed_form,
    pk_polynomial,
)
from .bigreal import DEFAULT_PRECISION, to_decimal
from .constants import (
    ConstantsBundle,
    euler_gamma,
    g_at_1,
    mertens_c1,
    recip_gamma_derivs,
    zeta_int,
)
from .errors import (
    CapacityError,
    ConvergenceError,
    DomainError,
    MertensError,
    ParameterError,
    PrecisionNotMetError,
)
from .hankel import HankelContour, QuadResult, hankel_power_quad, im_quad
from .harness import (
    GridSpec,
    VerificationRow,
    emit_report,
    parse_report,
    summary_stats,
    verify_grid,
)
from .primes import PrimeTable, mobius, sieve
from .sums import (
    KeySpace,
    MertensSumResult,
    sk_direct,
    sk_fast,
    sk_levels,
)

__all__ = [
    "CapacityError",
    "ConstantsBundle",
    "ConvergenceError",
    "DEFAULT_PRECISION",
    "DomainError",
    "GridSpec",
    "HankelContour",
    "KeySpace",
    "MertensError",
    "MertensSumResult",
    "ParameterError",
    "Polynomial",
    "PrecisionNotMetError",
    "PrimeTable",
    "QuadResult",
    "VerificationRow",
    "emit_report",
    "euler_gamma",
    "evaluate_main_term",
    "g_at_1",
    "hankel_power_quad",
    "im_closed_form",
    "im_quad",
    "mertens_c1",
    "mobius",
    "parse_report",
    "pk_polynomial",
    "recip_gamma_derivs",
    "sieve",
    "sk_direct",
    "sk_fast",
    "sk_levels",
    "summary_stats",
    "to_decimal",
    "verify_grid",
    "zeta_int",
]
