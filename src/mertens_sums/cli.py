"""Command-line front door: ``mertens sum|poly|constants|hankel|verify``.

Exit codes: 0 success, 2 invalid arguments or domain errors,
3 precision-not-met, 4 capacity exceeded.  An error, usage errors
included, prints the one line ``mertens: error: <message>`` to stderr.
``verify`` evaluates each grid point once for all requested k and writes
the rows k-major, in ``--k`` order, as a report laid out by
:func:`harness.emit_report` (``--format text|csv|json``); a failed sweep
writes nothing.  The other commands print one payload as indented JSON or
as text lines (``--format text|json``).  Nothing is read from or written
to disk except ``--out``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import __version__
from .asymptotics import (
    CLOSED_FORM_STRINGS,
    MAX_DEGREE,
    closed_form_coefficients,
    im_closed_form,
    pk_polynomial,
)
from .bigreal import DEFAULT_DIGITS, DEFAULT_PRECISION, check_digits, check_precision, to_decimal
from .constants import ConstantsBundle
from .errors import MertensError
from .hankel import hankel_power_quad, im_quad, power_law_closed_form
from .harness import (
    DEFAULT_GRID_POINTS,
    DEFAULT_GRID_START,
    DEFAULT_GRID_STOP,
    DEFAULT_K_SET,
    GridSpec,
    emit_report,
    verify_grid,
)
from .primes import sieve
from .sums import FAST_MAX_X, sk_fast


def _common_flags(sp: argparse.ArgumentParser, formats=("text", "json"), digits=True) -> None:
    sp.add_argument("--prec", type=int, default=DEFAULT_PRECISION, metavar="BITS",
                    help="working precision in bits (default %(default)s)")
    if digits:  # hankel prints doubles in full, so it has no --digits
        sp.add_argument("--digits", type=int, default=DEFAULT_DIGITS, metavar="D",
                        help="printed decimal digits (default %(default)s)")
    sp.add_argument("--format", choices=formats, default="text")
    sp.add_argument("--out", metavar="PATH", default=None,
                    help="write output to PATH instead of stdout")


def _emit(args, text: str | bytes) -> None:
    data = text.encode() if isinstance(text, str) else text
    if args.out:
        try:
            with open(args.out, "wb") as fh:
                fh.write(data)
        except OSError as exc:
            raise MertensArgumentError(f"cannot write {args.out}: {exc.strerror}") from exc
    else:
        sys.stdout.write(data.decode())


def _emit_payload(args, payload: dict, lines: list[str]) -> int:
    """Write ``payload`` as indented JSON or ``lines`` as text, per ``--format``."""
    if args.format == "json":
        _emit(args, json.dumps(payload, sort_keys=True, indent=2) + "\n")
    else:
        _emit(args, "\n".join(lines) + "\n")
    return 0


def _cmd_constants(args) -> int:
    bundle = ConstantsBundle.build(args.prec, m_max=12)
    d = args.digits
    payload = {
        "gamma": to_decimal(bundle.gamma, d),
        "c1": to_decimal(bundle.c1, d),
        "h0": to_decimal(bundle.h0, d),
        "zeta": {str(k): to_decimal(bundle.zeta[k], d) for k in range(2, 11)},
        "recip_gamma_deriv": {
            str(m): to_decimal(bundle.recip_gamma_derivs[m], d) for m in range(9)
        },
    }
    lines = [
        f"gamma = {payload['gamma']}",
        f"c1    = {payload['c1']}",
        f"h0    = {payload['h0']}",
    ]
    lines += [f"zeta({k}) = {payload['zeta'][str(k)]}" for k in range(2, 11)]
    lines += [f"a_{m} = {payload['recip_gamma_deriv'][str(m)]}" for m in range(9)]
    return _emit_payload(args, payload, lines)


def _cmd_poly(args) -> int:
    k = args.k
    bundle = ConstantsBundle.build(args.prec, m_max=MAX_DEGREE)
    poly = pk_polynomial(k, bundle)
    coefficients = {str(j): to_decimal(c, args.digits) for j, c in enumerate(poly.coeffs)}
    lines = [f"P_{k}(X) coefficients (degree: value)"]
    lines += [f"  X^{j}: {c}" for j, c in coefficients.items()]
    payload = {"k": k, "coefficients": coefficients}
    if args.symbolic:
        payload["closed_form"] = payload["deltas"] = None
        if k in CLOSED_FORM_STRINGS:
            closed = closed_form_coefficients(k, bundle)
            payload["closed_form"] = CLOSED_FORM_STRINGS[k]
            payload["deltas"] = {str(j): to_decimal(abs(a - b), 3)
                                 for j, (a, b) in enumerate(zip(poly.coeffs, closed))}
            lines.append(CLOSED_FORM_STRINGS[k])
            lines += [f"  X^{j} delta vs closed form: {d}" for j, d in payload["deltas"].items()]
        else:
            lines.append(f"(no recorded closed form for k={k}; numeric table only)")
    return _emit_payload(args, payload, lines)


def _cmd_hankel(args) -> int:
    if args.z is not None:
        res = hankel_power_quad(args.z, args.x)
        closed = power_law_closed_form(args.z, args.x)
        label = f"(log x)^z / Gamma(z+1) at z={args.z}, x={args.x}"
    else:
        res = im_quad(args.m, args.x)
        bundle = ConstantsBundle.build(args.prec, m_max=8)
        closed = float(im_closed_form(args.m, args.x, bundle))
        label = f"I_{args.m}({args.x})"
    abs_delta = abs(res.value - closed)
    rel_delta = abs_delta / abs(closed) if closed != 0 else float("inf")
    payload = {
        "quadrature": repr(res.value),
        "closed_form": repr(closed),
        "abs_delta": f"{abs_delta:.3e}",
        "rel_delta": f"{rel_delta:.3e}",
        "imag_part": f"{res.imag_part:.3e}",
        "error_estimate": f"{res.error_estimate:.3e}",
        "refinements": res.refinements,
    }
    return _emit_payload(args, payload, [label] + [f"{key} = {val}" for key, val in payload.items()])


def _cmd_sum(args) -> int:
    primes = sieve(math.isqrt(min(max(args.x, 0), FAST_MAX_X)))  # the engine refuses larger x
    res = sk_fast(args.k, args.x, primes, precision=args.prec)
    payload = {
        "k": res.k,
        "x": res.x,
        "value": to_decimal(res.value, args.digits),
        "error_bound": to_decimal(res.error_bound, 3),
        "method": res.method,
        "terms": res.terms,
        "elapsed_s": round(res.elapsed, 6),
    }
    return _emit_payload(args, payload, [f"{key} = {val}" for key, val in payload.items()])


def _cmd_verify(args) -> int:
    grid = GridSpec(start=args.start, stop=args.stop, points=args.points)
    rows = verify_grid(args.k or DEFAULT_K_SET, grid, precision=args.prec, digits=args.digits)
    _emit(args, emit_report(rows, args.format, digits=args.digits))
    return 0


class MertensArgumentError(MertensError):
    exit_code = 2


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as the one line ``mertens: error: <message>``, exit 2.

    Subparsers are made of the same class, so every subcommand does the same.
    """

    def error(self, message: str):
        self.exit(2, f"mertens: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mertens",
        description="Generalized Mertens prime sums: exact engines, main-term "
                    "polynomials, and contour-quadrature checks.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("constants", help="print gamma, c1, h0, zeta(2..10), a_0..a_8")
    _common_flags(sp)
    sp.set_defaults(func=_cmd_constants)

    sp = sub.add_parser("poly", help="main-term polynomial coefficients")
    _common_flags(sp)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--symbolic", action="store_true",
                    help="also print the recorded closed form (k <= 4) and deltas")
    sp.set_defaults(func=_cmd_poly)

    sp = sub.add_parser("hankel", help="contour quadrature vs closed forms")
    _common_flags(sp, digits=False)
    sp.add_argument("--x", type=float, required=True)
    mode = sp.add_mutually_exclusive_group(required=True)
    mode.add_argument("--m", type=int, help="order of I_m")
    mode.add_argument("--z", type=float,
                      help="check x^s s^(-1-z) against (log x)^z/Gamma(z+1) instead")
    sp.set_defaults(func=_cmd_hankel)

    sp = sub.add_parser("sum", help="evaluate S_k(x)")
    _common_flags(sp)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--x", type=int, required=True)
    sp.set_defaults(func=_cmd_sum)

    sp = sub.add_parser("verify", help="sweep a grid and report normalized remainders")
    _common_flags(sp, formats=("text", "csv", "json"))
    sp.add_argument("--k", type=int, action="append", default=None,
                    help="repeatable; default 1 2 3 4")
    sp.add_argument("--start", type=int, default=DEFAULT_GRID_START)
    sp.add_argument("--stop", type=int, default=DEFAULT_GRID_STOP)
    sp.add_argument("--points", type=int, default=DEFAULT_GRID_POINTS)
    sp.set_defaults(func=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on bad usage, 0 on --version
        return int(exc.code or 0)
    try:
        check_precision(args.prec)
        if "digits" in args:
            check_digits(args.digits)
        if args.out and not os.path.isdir(os.path.dirname(args.out) or "."):
            raise MertensArgumentError(f"--out directory does not exist: {args.out}")
        return args.func(args)
    except MertensError as exc:
        print(f"mertens: error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
