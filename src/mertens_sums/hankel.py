"""Numerical quadrature over a Hankel loop around the negative real axis.

The loop runs in below the cut, circles the origin counterclockwise, and
runs back out above the cut.  Against it we verify two identities in
double precision:

    (1/2 pi i) int x^s s^(-1-z) ds           = (log x)^z / Gamma(z+1)
    (1/2 pi i) int (log(1/s))^m x^s ds / s   = I_m(x)

with I_m given in closed form by :func:`.asymptotics.im_closed_form` and
1/Gamma(z+1) by mpmath's ``rgamma``, for |z| <= MAX_ABS_Z.
``log(1/s)`` is the principal branch, -(log|s| + i arg s) with arg in
(-pi, pi); the contour stays off the cut because its rays sit at a
positive imaginary offset.

Geometry is not canonical: any radius/offset/truncation pair enclosing
the origin works, and a contour-independence test leans on exactly that.
Defaults scale with 1/log x so the x^s decay on the rays, e^(-t log x),
is resolved by a handful of Gauss-Legendre panels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from mpmath import mp, mpf

from .bigreal import DEFAULT_PRECISION, working_precision
from .errors import ConvergenceError, DomainError, ParameterError

DEFAULT_TARGET = 1e-8
MAX_ABS_Z = 4  # the |z| envelope the power identity is tested on
MAX_IM_ORDER = 6
_MAX_REFINEMENTS = 7


@dataclass(frozen=True)
class HankelContour:
    """Loop geometry: a circle of ``radius`` about 0 joined to two
    horizontal rays at height ``+-offset`` reaching to Re s = -truncation.
    Positively oriented: lower ray inbound, circle counterclockwise,
    upper ray outbound."""

    radius: float
    offset: float
    truncation: float
    nodes_per_panel: int = 64

    def __post_init__(self):
        if not (self.radius > self.offset > 0):
            raise ParameterError(
                f"need radius > offset > 0, got radius={self.radius}, offset={self.offset}"
            )
        if not (self.truncation > self.radius):
            raise ParameterError(
                f"truncation {self.truncation} must exceed the circle radius {self.radius}"
            )
        if self.nodes_per_panel < 4:
            raise ParameterError("nodes_per_panel must be at least 4")

    @classmethod
    def for_x(cls, x: float, z: float = 0.0) -> "HankelContour":
        """The default loop for x, its rays long enough for the tail rule at z."""
        logx = math.log(x)
        radius = 1.0 / logx
        return cls(
            radius=radius,
            offset=radius / 8.0,
            truncation=max(40.0 / logx, 2.0 * radius, _needed_truncation(x, z)),
        )


@dataclass(frozen=True)
class QuadResult:
    """Real value of a contour integral plus its diagnostics."""

    value: float
    imag_part: float
    error_estimate: float
    refinements: int

    def __float__(self) -> float:
        return self.value


@lru_cache(maxsize=32)
def _gauss_nodes(n: int):
    nodes, weights = np.polynomial.legendre.leggauss(n)
    return nodes, weights


def _integrate(f, x: float, contour: HankelContour, splits: int) -> complex:
    """One pass over the loop with every base panel split ``splits`` ways."""
    logx = math.log(x)
    gl_x, gl_w = _gauss_nodes(contour.nodes_per_panel)
    x0 = math.sqrt(contour.radius**2 - contour.offset**2)
    alpha = math.asin(contour.offset / contour.radius)

    # Base ray panels grow geometrically from the circle junction outward;
    # the integrand decays like e^(-t log x) so panel count stays small.
    edges = [x0]
    while edges[-1] < contour.truncation:
        edges.append(min(edges[-1] * 2.0, contour.truncation))

    total = 0.0 + 0.0j
    for a, b in zip(edges[:-1], edges[1:]):
        step = (b - a) / splits
        for i in range(splits):
            lo, hi = a + i * step, a + (i + 1) * step
            t = 0.5 * (hi - lo) * gl_x + 0.5 * (lo + hi)
            w = 0.5 * (hi - lo) * gl_w
            s_below = -t - 1j * contour.offset
            s_above = -t + 1j * contour.offset
            # below the cut the loop travels toward the circle (+dt),
            # above it travels back out (-dt)
            total += np.sum(
                w * (f(s_below) * np.exp(s_below * logx) - f(s_above) * np.exp(s_above * logx))
            )

    th0, th1 = -(math.pi - alpha), math.pi - alpha
    n_circ = 8 * splits
    for i in range(n_circ):
        lo = th0 + (th1 - th0) * i / n_circ
        hi = th0 + (th1 - th0) * (i + 1) / n_circ
        th = 0.5 * (hi - lo) * gl_x + 0.5 * (lo + hi)
        w = 0.5 * (hi - lo) * gl_w
        s = contour.radius * np.exp(1j * th)
        total += np.sum(w * f(s) * np.exp(s * logx) * (1j * s))

    return total / (2j * math.pi)


def _truncation_tail(x: float, contour: HankelContour, z: float) -> float:
    """Crude bound on the dropped |Re s| > truncation ray contribution."""
    T = contour.truncation
    growth = (1.0 + T) ** max(0.0, -1.0 - z)
    return x ** (-T) * growth / math.log(x)


def _needed_truncation(x: float, z: float) -> float:
    """The least truncation T whose _truncation_tail at x and z is DEFAULT_TARGET / 2 or less.

    With g = max(0, -1 - z), the log of the tail over the target is
    h(T) = g log(1 + T) - T log x + log(2 / (DEFAULT_TARGET log x)).  It is
    concave in T and positive at T = 0, so the tail meets the target from
    one root T* on.  T <- (log(2 / (DEFAULT_TARGET log x)) + g log(1 + T)) / log x
    climbs from 0 to T*.  After one step T >= 12 / log x (log x < 710), where
    its slope g / ((1 + T) log x) is at most 3/12, so 64 steps reach T* to
    double precision.
    """
    logx, g = math.log(x), max(0.0, -1.0 - z)
    target = math.log(2.0 / (DEFAULT_TARGET * logx))
    t = 0.0
    for _ in range(64):
        t = (target + g * math.log1p(t)) / logx
    return t


def _checked_contour(x: float, contour: HankelContour | None, z: float) -> HankelContour:
    """The given contour, or the default for x and z, if its dropped ray tail meets the target.

    The default and the suggested truncation both come from
    :func:`_needed_truncation`, so the default meets it, and a truncation that
    fails is below the suggestion.
    """
    if contour is None:
        contour = HankelContour.for_x(x, z)
    tail = _truncation_tail(x, contour, z)
    if tail > DEFAULT_TARGET:
        suggested = _needed_truncation(x, z)
        raise ParameterError(
            f"ray truncation {contour.truncation} leaves a tail ~{tail:.2e} above the "
            f"target {DEFAULT_TARGET:.2e}; suggest truncation >= {suggested:.3g}",
            suggestion=suggested,
        )
    return contour


def _refine(f, x: float, contour: HankelContour) -> QuadResult:
    prev = _integrate(f, x, contour, 1)
    delta = float("inf")
    cur = prev
    for r in range(1, _MAX_REFINEMENTS + 1):
        cur = _integrate(f, x, contour, 2**r)
        delta = abs(cur - prev)
        # the target is relative once |value| > 1: double rounding alone is eps |value|
        scale = max(1.0, abs(cur))
        if delta < DEFAULT_TARGET / 4 * scale:
            break
        prev = cur
    else:
        raise ConvergenceError(
            f"panel refinement did not settle below {DEFAULT_TARGET:.2e} max(1, |value|) "
            f"(last delta {delta:.2e})",
            achieved_bound=delta,
        )
    estimate = max(2.0 * delta, 64.0 * np.finfo(float).eps * scale)
    imag = abs(cur.imag)
    if imag > 10 * DEFAULT_TARGET * scale:
        raise ConvergenceError(
            f"imaginary part {imag:.2e} exceeds 10x the target {DEFAULT_TARGET:.2e} "
            "max(1, |value|); the contour is asymmetric or under-resolved",
            achieved_bound=imag,
        )
    return QuadResult(
        value=float(cur.real), imag_part=float(imag), error_estimate=float(estimate),
        refinements=r,
    )


def hankel_power_quad(
    z: float,
    x: float,
    contour: HankelContour | None = None,
) -> QuadResult:
    """(1/2 pi i) int x^s s^(-1-z) ds over the loop; equals
    (log x)^z / Gamma(z+1), for |z| <= MAX_ABS_Z."""
    if not 1 < x < math.inf:
        raise DomainError(f"x must be finite and exceed 1, got {x!r}")
    z = float(z)
    if not abs(z) <= MAX_ABS_Z:  # also rejects nan
        raise DomainError(f"|z| <= {MAX_ABS_Z} is the tested envelope, got {z}")
    contour = _checked_contour(x, contour, z)

    def integrand(s):
        return s ** (-1.0 - z)

    return _refine(integrand, x, contour)


def im_quad(
    m: int,
    x: float,
    contour: HankelContour | None = None,
) -> QuadResult:
    """(1/2 pi i) int (log(1/s))^m x^s ds/s over the loop; matches the
    closed form I_m(x) from the asymptotics module."""
    if not isinstance(m, int) or m < 0:
        raise DomainError(f"m must be an integer >= 0, got {m!r}")
    if m > MAX_IM_ORDER:
        raise DomainError(f"m <= {MAX_IM_ORDER} is the tested envelope, got {m}")
    if not 3 <= x < math.inf:
        raise DomainError(f"x must be finite and >= 3, got {x!r}")
    contour = _checked_contour(x, contour, 0.0)

    def integrand(s):
        return (-np.log(s)) ** m / s

    return _refine(integrand, x, contour)


def power_law_closed_form(z: float, x: float) -> float:
    """(log x)^z / Gamma(z+1), the closed-form side of the power identity.

    1/Gamma is mpmath's ``rgamma``; the quadrature side uses only numpy.
    """
    if not 1 < x < math.inf:
        raise DomainError(f"x must be finite and exceed 1, got {x!r}")
    with working_precision(DEFAULT_PRECISION):
        return math.log(x) ** z * float(mp.rgamma(1 + mpf(z)))
