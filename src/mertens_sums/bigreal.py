"""Precision plumbing for extended-precision reals.

Every multiprecision value in this package is an mpmath ``mpf``.  Precision
is always explicit: operations that produce values take a bit count and run
under :func:`working_precision`, so nothing depends on mpmath's ambient
global state.  Decimal rendering goes through :func:`to_decimal`, which
rounds to nearest and is deterministic for a given mantissa, making report
bytes reproducible.
"""

from __future__ import annotations

import mpmath
from mpmath import mp, mpf

from .errors import CapacityError, DomainError

DEFAULT_PRECISION = 192  # bits
GUARD_BITS = 32
MIN_PRECISION = 64
# Error bounds near 2^-precision must stay printable: mpmath renders numbers
# below about 2^-14000 through ints past Python's 4300-digit str limit.
MAX_PRECISION = 8192
DEFAULT_DIGITS = 20
MAX_DIGITS = 10_000  # well beyond the ~2466 digits that MAX_PRECISION carries


def check_precision(precision: int, maximum: int = MAX_PRECISION) -> int:
    """Validate a precision request in bits."""
    precision = int(precision)
    if precision < MIN_PRECISION:
        raise DomainError(f"precision must be >= {MIN_PRECISION} bits, got {precision}")
    if precision > maximum:
        raise CapacityError(f"precision {precision} exceeds supported maximum {maximum} bits")
    return precision


def check_digits(digits: int) -> int:
    """Validate a count of printed decimal digits."""
    digits = int(digits)
    if digits < 1:
        raise DomainError(f"digits must be >= 1, got {digits}")
    if digits > MAX_DIGITS:
        raise CapacityError(f"digits {digits} exceeds supported maximum {MAX_DIGITS}")
    return digits


def working_precision(precision: int, guard: int = GUARD_BITS):
    """Context manager running mpmath at ``precision + guard`` bits."""
    return mp.workprec(int(precision) + int(guard))


def to_decimal(x, digits: int = DEFAULT_DIGITS) -> str:
    """Render ``x`` as a decimal string with ``digits`` significant digits.

    Round-to-nearest; trailing zeros are kept so that field widths, and
    therefore report bytes, do not depend on the value.  An mpf input is
    rendered from its own mantissa, never re-rounded at ambient precision.
    """
    check_digits(digits)
    if not isinstance(x, mpmath.mpf):
        with mp.workprec(max(mp.prec, int(digits * 3.33) + 32)):
            x = mpf(x)
    return mpmath.nstr(x, int(digits), strip_zeros=False)
